"""Label orbits: enumeration vs weight classification, counts, expansion."""

import numpy as np
import pytest

from pimub.errors import MissingOrbitError, NotNormalizedError
from pimub.mub import BasisLabel, vertical_label
from pimub.orbits import (
    LabelPoint,
    all_label_points,
    closed_form_orbit_count,
    expand_probabilities,
    enumerate_orbits,
    independent_count,
    minimal_bases,
    orbit_invariants,
    orbit_report,
    orbit_table_to_csv,
    orbit_table_to_json,
    s_range,
    transform_point,
)
from pimub.tomography import (
    PIStateSpec,
    exact_probabilities,
    independent_parameter_count,
    random_pi_state,
    sample_counts,
)

from conftest import family, field, orbit_table
from reference_data import THREE_QUBIT_ORBIT_CLASSES, THREE_QUBIT_TOTAL_POINTS


def _class_rows(table):
    f_n = table.n
    rows = []
    for orbit in table.orbits:
        basis = orbit.representative.basis
        if basis.is_vertical:
            kind, m = "vertical", 0
            l = s = orbit.invariants[0]
        elif basis.slope.bits == 0:
            kind, m = "computational", 0
            l = s = orbit.invariants[0]
        else:
            kind = "slope"
            m, l, s = orbit.invariants
        rows.append((kind, m, l, s, orbit.size))
    assert f_n == table.n
    return rows


# ----------------------------------------------------------------------
# Enumeration against frozen and counting oracles
# ----------------------------------------------------------------------

def test_single_qubit_points_are_their_own_orbits():
    table = orbit_table(1)
    assert len(table.orbits) == 6
    assert all(orbit.size == 1 for orbit in table.orbits)


def test_two_qubit_orbit_structure():
    f = field(2)
    table = orbit_table(2)
    assert len(table.orbits) == 13
    assert table.total_points == 20
    per_class = {}
    for orbit in table.orbits:
        basis = orbit.representative.basis
        if basis.is_vertical:
            key = "vertical"
        elif basis.slope.bits == 0:
            key = "computational"
        elif basis.slope.weight == 1:
            key = "weight1"
        else:
            key = "weight2"
        per_class[key] = per_class.get(key, 0) + 1
    # 3 computational, 4 in the weight-1 slope class, 3 in the full-support
    # slope, 3 vertical
    assert per_class == {"computational": 3, "weight1": 4, "weight2": 3, "vertical": 3}
    # the weight-1 class pairs the two single-theta bases
    pair = {(0b01, 0b10), (0b10, 0b01)}
    orbit = table.orbit_of(LabelPoint(f.element(0b10), BasisLabel(f.element(0b01))))
    members = {(p.nu.bits, p.basis.slope.bits) for p in orbit.members}
    assert members == pair


def test_three_qubit_orbits_match_frozen_classes():
    table = orbit_table(3)
    assert len(table.orbits) == 24
    assert table.total_points == THREE_QUBIT_TOTAL_POINTS
    assert sorted(_class_rows(table)) == sorted(THREE_QUBIT_ORBIT_CLASSES)


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_covers_all_points(n):
    table = orbit_table(n)
    points = all_label_points(field(n))
    assert table.total_points == len(points) == (2**n + 1) * 2**n
    seen = set()
    for orbit in table.orbits:
        seen.update(orbit.members)
        assert orbit.representative == min(orbit.members, key=LabelPoint.sort_key)
    assert seen == set(points)


@pytest.mark.parametrize("n", range(1, 7))
def test_invariants_constant_on_orbits(n):
    for orbit in orbit_table(n).orbits:
        assert {orbit_invariants(m) for m in orbit.members} == {orbit.invariants}


@pytest.mark.parametrize("n", range(2, 6))
def test_equal_invariants_imply_same_orbit(n):
    # the weight triple is a complete invariant of the transposition action
    table = orbit_table(n)
    by_key = {}
    for orbit in table.orbits:
        basis = orbit.representative.basis
        kind = "v" if basis.is_vertical else ("c" if basis.slope.bits == 0 else "s")
        key = (kind, orbit.invariants)
        assert key not in by_key, f"two orbits share {key}"
        by_key[key] = orbit.orbit_id


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


@pytest.mark.parametrize("n", range(1, 6))
def test_weight_key_table_equals_union_find_closure(n):
    # oracle: close the transposition action itself, then order as the table does
    points = all_label_points(field(n))
    uf = _UnionFind(points)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            for point in points:
                uf.union(point, transform_point(point, p, q))
    groups = {}
    for point in points:
        groups.setdefault(uf.find(point), []).append(point)
    closure = sorted(
        (tuple(sorted(ms, key=LabelPoint.sort_key)) for ms in groups.values()),
        key=lambda ms: ms[0].sort_key(),
    )
    table = orbit_table(n)
    assert [o.members for o in table.orbits] == closure
    assert [o.orbit_id for o in table.orbits] == list(range(len(closure)))
    assert [o.representative for o in table.orbits] == [ms[0] for ms in closure]
    for orbit in table.orbits:
        assert all(table.orbit_of(m) is orbit for m in orbit.members)


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_ids_follow_the_members(n):
    table = orbit_table(n)
    assert table.ids.shape == (2**n + 1, 2**n)
    assert not table.ids.flags.writeable
    assert list(table.labels) == family(n).labels()
    for orbit in table.orbits:
        for m in orbit.members:
            assert table.ids[table.labels.index(m.basis), m.nu.bits] == orbit.orbit_id


def test_orbit_tables_compare_by_their_orbits():
    assert enumerate_orbits(field(3)) == enumerate_orbits(field(3))
    assert enumerate_orbits(field(3)) != enumerate_orbits(field(2))


@pytest.mark.parametrize("n", range(2, 5))
def test_generators_map_members_to_members(n):
    table = orbit_table(n)
    for orbit in table.orbits:
        members = set(orbit.members)
        for point in orbit.members:
            for p in range(1, n + 1):
                for q in range(p + 1, n + 1):
                    assert transform_point(point, p, q) in members


# ----------------------------------------------------------------------
# s-range rule
# ----------------------------------------------------------------------

def test_s_range_basics():
    assert s_range(0, 0, 4) == [0]
    assert s_range(1, 1, 2) == [0, 2]
    assert s_range(2, 4, 4) == [2]  # the 2n - m - l cap binds here
    with pytest.raises(ValueError):
        s_range(5, 0, 4)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_s_range_generates_exactly_the_enumerated_triples(n):
    enumerated = {
        orbit.invariants
        for orbit in orbit_table(n).orbits
        if not orbit.representative.basis.is_vertical
        and orbit.representative.basis.slope.bits != 0
    }
    predicted = {
        (m, l, s)
        for m in range(1, n + 1)
        for l in range(n + 1)
        for s in s_range(m, l, n)
    }
    assert enumerated == predicted


# ----------------------------------------------------------------------
# Minimal bases and independent counts
# ----------------------------------------------------------------------

def test_minimal_bases_two_qubits():
    f = field(2)
    labels = minimal_bases(f)
    assert labels == [
        BasisLabel(f.zero()),
        BasisLabel(f.element(0b01)),
        BasisLabel(f.element(0b11)),
        vertical_label(),
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_minimal_bases_count_and_weights(n):
    labels = minimal_bases(field(n))
    assert len(labels) == n + 2
    slopes = [lab.slope.weight for lab in labels if not lab.is_vertical]
    assert slopes == list(range(n + 1))


def test_independent_counts_worked_examples():
    assert independent_count(field(2), orbit_table(2)) == 9
    assert independent_count(field(3), orbit_table(3)) == 19


@pytest.mark.parametrize("n", range(2, 7))
def test_independent_count_matches_block_parameter_oracle(n):
    assert independent_count(field(n), orbit_table(n)) == independent_parameter_count(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_form_count_disagrees_by_one(n):
    # the closed-form estimate undercounts every enumerated case by one;
    # the enumeration (which matches the frozen reference classes) is
    # authoritative
    assert closed_form_orbit_count(n) == len(orbit_table(n).orbits) - 1


# ----------------------------------------------------------------------
# Probability expansion
# ----------------------------------------------------------------------

def _distributions(records):
    """{basis label: probabilities indexed by the bits of nu}."""
    return {rec.basis: rec.frequencies() for rec in records}


def _member_expansion(measured, table, mode):
    """Oracle: each orbit's value taken point by point over its sorted members."""
    out = {label: np.full(1 << table.n, np.nan) for label in table.labels}
    for orbit in table.orbits:
        hits = [measured[m.basis][m.nu.bits] for m in orbit.members if m.basis in measured]
        value = hits[0] if mode == "representative" else sum(hits) / len(hits)
        for m in orbit.members:
            out[m.basis][m.nu.bits] = value
    return out


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("mode", ("representative", "average"))
def test_expansion_matches_the_member_oracle(n, mode):
    # sampled records on more than the minimal bases, so orbits hold
    # several measured points that disagree
    f = field(n)
    fam = family(n)
    rho = random_pi_state(PIStateSpec.twirl(n, seed=40 + n))
    bases = minimal_bases(f) + [label for label in fam.labels() if label not in minimal_bases(f)][:3]
    records = [sample_counts(r, shots=500, seed=i)
               for i, r in enumerate(exact_probabilities(rho, fam, bases))]
    measured = _distributions(records)
    expanded = expand_probabilities(measured, orbit_table(n), mode=mode)
    oracle = _member_expansion(measured, orbit_table(n), mode)
    assert list(expanded) == list(oracle)
    for label in oracle:
        assert np.array_equal(expanded[label], oracle[label])


def test_expansion_of_maximally_mixed_is_uniform():
    f = field(2)
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    records = exact_probabilities(rho, fam, minimal_bases(f))
    expanded = expand_probabilities(_distributions(records), orbit_table(2))
    assert sum(len(probs) for probs in expanded.values()) == 20
    assert all(abs(p - 0.25) < 1e-12 for probs in expanded.values() for p in probs)


def test_expansion_propagates_across_the_two_qubit_slope_pair():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=12))
    records = exact_probabilities(rho, fam, minimal_bases(f))
    measured = _distributions(records)
    expanded = expand_probabilities(measured, orbit_table(2))
    theta1, theta2 = f.element(0b01), f.element(0b10)
    source = measured[BasisLabel(theta1)][theta2.bits]
    target = expanded[BasisLabel(theta2)][theta1.bits]
    assert abs(source - target) < 1e-15


def test_expansion_agrees_with_direct_probabilities_for_two_qubits():
    f = field(2)
    fam = family(2)
    table = orbit_table(2)
    for seed in range(5):
        rho = random_pi_state(PIStateSpec.twirl(2, seed=seed))
        measured = _distributions(exact_probabilities(rho, fam, minimal_bases(f)))
        expanded = expand_probabilities(measured, table)
        direct = _distributions(exact_probabilities(rho, fam, fam.labels()))
        assert list(expanded) == fam.labels()
        for label, probs in expanded.items():
            assert np.abs(probs - direct[label]).max() < 1e-10


def test_expansion_deviates_from_direct_probabilities_for_three_qubits():
    """Pins the measured ground truth: for n >= 3 the swap action does not
    close on the basis family, so orbit-propagated values disagree with the
    directly computed probabilities at the percent level and the propagated
    per-basis sums drift off one.  The acceptance suite tests the stated
    (exact) requirement and documents its failure; this test keeps the
    actual behavior visible.
    """
    f = field(3)
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=0))
    measured = _distributions(exact_probabilities(rho, fam, minimal_bases(f)))
    expanded = expand_probabilities(measured, orbit_table(3))
    direct = _distributions(exact_probabilities(rho, fam, fam.labels()))
    worst = max(np.abs(probs - direct[label]).max() for label, probs in expanded.items())
    assert worst > 1e-3
    sums = [abs(sum(expanded[label][b] for b in range(8)) - 1.0) for label in fam.labels()]
    assert max(sums) > 1e-3


def test_expansion_modes_average_vs_representative():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=5))
    measured = _distributions(exact_probabilities(rho, fam, minimal_bases(f)))
    rep = expand_probabilities(measured, orbit_table(2), mode="representative")
    avg = expand_probabilities(measured, orbit_table(2), mode="average")
    # exact inputs: both modes agree
    assert all(np.abs(rep[k] - avg[k]).max() < 1e-12 for k in rep)
    with pytest.raises(ValueError):
        expand_probabilities(measured, orbit_table(2), mode="median")


def test_expansion_per_basis_sums_for_exact_inputs():
    # exact per-basis normalization of the expanded set holds where the
    # orbit equalities themselves hold (n <= 2)
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=9))
    measured = _distributions(exact_probabilities(rho, fam, minimal_bases(f)))
    expanded = expand_probabilities(measured, orbit_table(2))
    for label in fam.labels():
        total = sum(expanded[label][b] for b in range(4))
        assert abs(total - 1.0) < 1e-9


def test_expansion_missing_orbit_error():
    f = field(2)
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    # drop the vertical basis: its orbits have no slope members
    records = exact_probabilities(rho, fam, minimal_bases(f)[:-1])
    with pytest.raises(MissingOrbitError):
        expand_probabilities(_distributions(records), orbit_table(2))
    with pytest.raises(MissingOrbitError):
        expand_probabilities({}, orbit_table(2))


def test_expansion_not_normalized_error():
    f = field(2)
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    measured = _distributions(exact_probabilities(rho, fam, minimal_bases(f)))
    broken = dict(measured)
    label = BasisLabel(f.zero())
    broken[label] = broken[label].copy()
    broken[label][0] += 0.1
    with pytest.raises(NotNormalizedError):
        expand_probabilities(broken, orbit_table(2))


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------

def test_orbit_table_json_and_csv():
    table = orbit_table(3)
    obj = orbit_table_to_json(table)
    assert obj["orbit_count"] == 24
    assert obj["total_points"] == 72
    assert obj["independent_count"] == 19
    assert obj["closed_form_count"] == 23
    assert not obj["closed_form_matches"]
    assert sum(row["orbit_size"] for row in obj["orbits"]) == 72
    csv_text = orbit_table_to_csv(table)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "orbit_id,basis_label,nu_bitmask,m,l,s,orbit_size"
    assert len(lines) == 25


def test_orbit_report_mentions_discrepancy():
    report = orbit_report(orbit_table(3))
    assert "24" in report
    assert "23" in report
    assert "DISAGREES" in report.upper() or "disagrees" in report
