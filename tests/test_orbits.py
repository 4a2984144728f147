"""Label orbits: enumeration vs weight classification, counts, expansion."""

import math
import re

import numpy as np
import pytest

from pimub import orbits
from pimub.errors import MissingOrbitError, NotNormalizedError, SchemaError
from pimub.mub import BasisLabel, family_labels, vertical_label
from pimub.operators import permute_label
from pimub.orbits import (
    LabelPoint,
    closed_form_orbit_count,
    expand_probabilities,
    enumerate_orbits,
    independent_count,
    minimal_bases,
    orbit_report,
    orbit_table_to_csv,
    orbit_table_to_json,
)
from pimub.tomography import (
    PIStateSpec,
    exact_probabilities,
    independent_parameter_count,
    random_pi_state,
    sample_counts,
)

from conftest import expand_orbits, family, field, orbit_table
from reference_data import THREE_QUBIT_ORBIT_CLASSES, THREE_QUBIT_TOTAL_POINTS


def orbit_of(table, point):
    """The orbit of ``point``, read from ``table.ids``."""
    return table.orbits[table.ids[table.labels.index(point.basis), point.nu.bits]]


def members(table, orbit):
    """The points of ``orbit``, read from ``table.ids``, in label-key order."""
    f = field(table.n)
    rows, bits = np.nonzero(table.ids == orbit.orbit_id)
    return [LabelPoint(f.element(b), table.labels[r]) for r, b in zip(rows.tolist(), bits.tolist())]


def all_label_points(f):
    """Oracle: every (nu, basis) pair, in ``LabelPoint.sort_key`` order."""
    return [LabelPoint(f.element(b), label) for label in family_labels(f) for b in range(f.size)]


def orbit_invariants(point):
    """Oracle: (|mu|, |nu|, |mu + nu|) for a proper slope, (|nu|,) otherwise."""
    basis = point.basis
    if basis.is_vertical or basis.slope.bits == 0:
        return (point.nu.weight,)
    return (basis.slope.weight, point.nu.weight, (basis.slope + point.nu).weight)


def per_point_orbits(f):
    """Oracle: label points grouped one by one by (basis kind, invariants).

    Returns the orbit id of every point as a (2^n + 1) x 2^n array, ids in
    order of first appearance, and each orbit's (representative, invariants,
    size).
    """
    groups, orbit_ids, ids = {}, {}, []
    for point in all_label_points(f):
        basis = point.basis
        kind = "vertical" if basis.is_vertical else "slope" if basis.slope.bits else "computational"
        key = (kind, orbit_invariants(point))
        groups.setdefault(key, []).append(point)
        ids.append(orbit_ids.setdefault(key, len(orbit_ids)))
    return (np.array(ids).reshape(f.size + 1, f.size),
            [(points[0], invariants, len(points)) for (_, invariants), points in groups.items()])


def transform_point(point, p, q):
    """Oracle: the image of a label point under the (p, q) qubit swap.

    nu moves by the field-level swap; so does the slope of a proper slope
    basis, while the computational and vertical bases stay fixed.
    """
    basis = point.basis
    if not basis.is_vertical and basis.slope.bits != 0:
        basis = BasisLabel(permute_label(basis.slope, p, q))
    return LabelPoint(permute_label(point.nu, p, q), basis)


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
    orbit = orbit_of(table, LabelPoint(f.element(0b10), BasisLabel(f.element(0b01))))
    assert {(p.nu.bits, p.basis.slope.bits) for p in members(table, orbit)} == pair


def test_three_qubit_orbits_match_frozen_classes():
    table = orbit_table(3)
    assert len(table.orbits) == 24
    assert table.total_points == THREE_QUBIT_TOTAL_POINTS
    assert sorted(_class_rows(table)) == sorted(THREE_QUBIT_ORBIT_CLASSES)


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_table_equals_the_per_point_oracle(n):
    ids, oracle = per_point_orbits(field(n))
    table = orbit_table(n)
    assert np.array_equal(table.ids, ids)
    assert [(o.representative, o.invariants, o.size) for o in table.orbits] == oracle
    assert [o.orbit_id for o in table.orbits] == list(range(len(oracle)))


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_covers_all_points(n):
    table = orbit_table(n)
    points = all_label_points(field(n))
    assert table.total_points == len(points) == (2**n + 1) * 2**n
    seen = set()
    for orbit in table.orbits:
        points_of = members(table, orbit)
        assert len(points_of) == orbit.size
        seen.update(points_of)
        assert orbit.representative == min(points_of, key=LabelPoint.sort_key)
    assert seen == set(points)


@pytest.mark.parametrize("n", range(1, 7))
def test_invariants_constant_on_orbits(n):
    table = orbit_table(n)
    for orbit in table.orbits:
        assert {orbit_invariants(m) for m in members(table, orbit)} == {orbit.invariants}


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
    assert [members(table, o) for o in table.orbits] == [list(ms) for ms in closure]
    assert [o.orbit_id for o in table.orbits] == list(range(len(closure)))
    assert [o.representative for o in table.orbits] == [ms[0] for ms in closure]
    assert [o.size for o in table.orbits] == [len(ms) for ms in closure]


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_ids_follow_the_members(n):
    table = orbit_table(n)
    assert table.ids.shape == (2**n + 1, 2**n)
    assert not table.ids.flags.writeable
    assert list(table.labels) == family(n).labels()
    assert np.bincount(table.ids.ravel()).tolist() == [o.size for o in table.orbits]
    for orbit in table.orbits:
        assert orbit_of(table, orbit.representative) is orbit


def test_orbit_tables_compare_by_their_orbits():
    assert enumerate_orbits(field(3)) == enumerate_orbits(field(3))
    assert enumerate_orbits(field(3)) != enumerate_orbits(field(2))


@pytest.mark.parametrize("n", range(2, 5))
def test_generators_map_members_to_members(n):
    table = orbit_table(n)
    for orbit in table.orbits:
        points_of = set(members(table, orbit))
        for point in points_of:
            for p in range(1, n + 1):
                for q in range(p + 1, n + 1):
                    assert transform_point(point, p, q) in points_of


# Performance guards: they count work, so no timing threshold can flake.

@pytest.mark.parametrize("n", (3, 6))
def test_enumeration_builds_one_label_point_per_orbit(monkeypatch, n):
    built = []
    point = orbits.LabelPoint

    def counted(*args, **kwargs):
        built.append(1)
        return point(*args, **kwargs)

    monkeypatch.setattr(orbits, "LabelPoint", counted)
    table = enumerate_orbits(field(n))
    assert len(built) <= len(table.orbits) < table.total_points


# ----------------------------------------------------------------------
# s-range rule
# ----------------------------------------------------------------------

def s_range(m: int, l: int, n: int) -> list[int]:
    """Oracle: allowed |mu + nu| values for given |mu| = m, |nu| = l, in steps of two."""
    if not (0 <= m <= n and 0 <= l <= n):
        raise ValueError(f"weights must lie in 0..{n}, got m={m}, l={l}")
    lo = abs(m - l)
    hi = min(m + l, 2 * n - m - l, n)
    return list(range(lo, hi + 1, 2))


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


@pytest.mark.parametrize("n", range(1, 9))
def test_exact_orbit_count_is_the_enumerated_count(n):
    # the module docstring's count, C(n + 3, 3) + n + 1
    count = len(orbit_table(n).orbits)
    assert count == math.comb(n + 3, 3) + n + 1 == independent_parameter_count(n) + n + 2


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
    """The basis labels, and their probabilities by the bits of nu as rows."""
    return [rec.basis for rec in records], np.array([rec.frequencies() for rec in records])


def _member_expansion(labels, probs, table, mode):
    """Oracle: each orbit's value taken point by point over its sorted members (from ``ids``)."""
    measured = dict(zip(labels, probs))
    out = np.full((len(table.labels), 1 << table.n), np.nan)
    for orbit in table.orbits:
        points_of = members(table, orbit)
        hits = [measured[m.basis][m.nu.bits] for m in points_of if m.basis in measured]
        value = hits[0] if mode == "representative" else sum(hits) / len(hits)
        for m in points_of:
            out[table.labels.index(m.basis), m.nu.bits] = value
    return out


def _sampled_beyond_minimal(n, seed):
    """Sampled records on the minimal bases and three more, so orbits hold
    several measured points that disagree."""
    f = field(n)
    fam = family(n)
    rho = random_pi_state(PIStateSpec.twirl(n, seed=seed))
    bases = minimal_bases(f) + [label for label in fam.labels() if label not in minimal_bases(f)][:3]
    return [sample_counts(r, shots=500, seed=i)
            for i, r in enumerate(exact_probabilities(rho, fam, bases))]


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("mode", ("representative", "average"))
def test_expansion_matches_the_member_oracle(n, mode):
    labels, probs = _distributions(_sampled_beyond_minimal(n, seed=40 + n))
    expanded = expand_orbits(orbit_table(n), labels, probs, mode)
    oracle = _member_expansion(labels, probs, orbit_table(n), mode)
    assert expanded.shape == oracle.shape == (2**n + 1, 2**n)
    assert np.array_equal(expanded, oracle)


@pytest.mark.parametrize("n", (2, 3, 5))
@pytest.mark.parametrize("mode", ("representative", "average"))
def test_expansion_is_independent_of_the_input_row_order(n, mode):
    # the representative is the smallest measured label key and the average
    # sums in label-key order, whatever order the rows come in
    labels, probs = _distributions(_sampled_beyond_minimal(n, seed=60 + n))
    expanded = expand_orbits(orbit_table(n), labels, probs, mode)
    rng = np.random.default_rng(n)
    for order in [np.arange(len(labels))[::-1]] + [rng.permutation(len(labels)) for _ in range(5)]:
        shuffled = expand_orbits(orbit_table(n), [labels[k] for k in order], probs[order], mode)
        assert np.array_equal(shuffled, expanded)


@pytest.mark.parametrize("mode", ("representative", "average"))
def test_expansion_rejects_a_repeated_label(mode):
    labels, probs = _distributions(exact_probabilities(np.eye(8, dtype=complex) / 8.0, family(3),
                                                       minimal_bases(field(3))))
    with pytest.raises(SchemaError, match=re.escape(f"{labels[2]!r} is given more than once")):
        expand_orbits(orbit_table(3), labels + labels[2:3], np.vstack([probs, probs[2]]), mode)


def test_expansion_of_maximally_mixed_is_uniform():
    f = field(2)
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    records = exact_probabilities(rho, fam, minimal_bases(f))
    expanded = expand_probabilities(orbit_table(2), *_distributions(records))
    assert expanded.shape == (5, 4)
    assert all(abs(p - 0.25) < 1e-12 for p in expanded.ravel())


def test_expansion_propagates_across_the_two_qubit_slope_pair():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=12))
    records = exact_probabilities(rho, fam, minimal_bases(f))
    labels, probs = _distributions(records)
    expanded = expand_probabilities(orbit_table(2), labels, probs)
    theta1, theta2 = f.element(0b01), f.element(0b10)
    source = probs[labels.index(BasisLabel(theta1)), theta2.bits]
    target = expanded[orbit_table(2).labels.index(BasisLabel(theta2)), theta1.bits]
    assert abs(source - target) < 1e-15


def test_expansion_agrees_with_direct_probabilities_for_two_qubits():
    f = field(2)
    fam = family(2)
    table = orbit_table(2)
    for seed in range(5):
        rho = random_pi_state(PIStateSpec.twirl(2, seed=seed))
        expanded = expand_probabilities(
            table, *_distributions(exact_probabilities(rho, fam, minimal_bases(f))))
        direct_labels, direct = _distributions(exact_probabilities(rho, fam, fam.labels()))
        assert list(table.labels) == direct_labels == fam.labels()
        for probs, direct_probs in zip(expanded, direct):
            assert np.abs(probs - direct_probs).max() < 1e-10


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
    expanded = expand_probabilities(
        orbit_table(3), *_distributions(exact_probabilities(rho, fam, minimal_bases(f))))
    _, direct = _distributions(exact_probabilities(rho, fam, fam.labels()))
    worst = max(np.abs(probs - direct_probs).max() for probs, direct_probs in zip(expanded, direct))
    assert worst > 1e-3
    sums = [abs(sum(probs[b] for b in range(8)) - 1.0) for probs in expanded]
    assert len(sums) == len(fam.labels())
    assert max(sums) > 1e-3


def test_expansion_modes_average_vs_representative():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=5))
    labels, probs = _distributions(exact_probabilities(rho, fam, minimal_bases(f)))
    rep = expand_probabilities(orbit_table(2), labels, probs)
    avg = expand_orbits(orbit_table(2), labels, probs, "average")
    # exact inputs: the measured points of an orbit agree, so both rules do
    assert all(np.abs(r - a).max() < 1e-12 for r, a in zip(rep, avg))
    # the representative is the one rule the package keeps
    with pytest.raises(TypeError, match="mode"):
        expand_probabilities(orbit_table(2), labels, probs, mode="average")


def test_expansion_per_basis_sums_for_exact_inputs():
    # exact per-basis normalization of the expanded set holds where the
    # orbit equalities themselves hold (n <= 2)
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=9))
    expanded = expand_probabilities(
        orbit_table(2), *_distributions(exact_probabilities(rho, fam, minimal_bases(f))))
    assert len(expanded) == len(fam.labels())
    for probs in expanded:
        total = sum(probs[b] for b in range(4))
        assert abs(total - 1.0) < 1e-9


def test_expansion_missing_orbit_error():
    f = field(2)
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    # drop the vertical basis: its orbits have no slope members
    records = exact_probabilities(rho, fam, minimal_bases(f)[:-1])
    with pytest.raises(MissingOrbitError):
        expand_probabilities(orbit_table(2), *_distributions(records))
    with pytest.raises(MissingOrbitError):
        expand_probabilities(orbit_table(2), [], np.zeros((0, 4)))


def test_expansion_rejects_a_stack_of_the_wrong_shape():
    # the maximally mixed state, so a reshaped stack would pass the
    # normalization check; the full n = 2 family has 5 bases of 4 outcomes
    f = field(2)
    rho = np.eye(4, dtype=complex) / 4.0
    minimal, minimal_probs = _distributions(exact_probabilities(rho, family(2), minimal_bases(f)))
    labels, probs = _distributions(exact_probabilities(rho, family(2), family(2).labels()))
    for given, stack in ((minimal, minimal_probs.ravel()), (labels, probs.T)):
        with pytest.raises(SchemaError, match=re.escape(f"expected {(len(given), 4)}")):
            expand_probabilities(orbit_table(2), given, stack)


def test_expansion_not_normalized_error():
    f = field(2)
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    labels, probs = _distributions(exact_probabilities(rho, fam, minimal_bases(f)))
    broken = probs.copy()
    broken[labels.index(BasisLabel(f.zero())), 0] += 0.1
    with pytest.raises(NotNormalizedError):
        expand_probabilities(orbit_table(2), labels, broken)


def test_expansion_rejects_a_slope_of_another_field():
    # bits 2 of an n = 3 slope would read as the n = 2 slope 2, and bits 6 lie past the table
    f = field(2)
    records = exact_probabilities(random_pi_state(PIStateSpec.twirl(2, 1)), family(2),
                                  minimal_bases(f))
    labels, probs = _distributions(records)
    message = re.escape("is a slope of n=3, not of the table's n=2")
    for bits in (2, 6):
        with pytest.raises(SchemaError, match=message):
            expand_probabilities(orbit_table(2), [*labels, BasisLabel(field(3).element(bits))],
                                 np.vstack([probs, np.full(4, 0.25)]))
    # ``reconstruct`` rejects such a record in its record gate, before any estimate
    # (``test_every_mode_rejects_a_slope_of_another_field``)


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
