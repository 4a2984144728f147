"""MUB family: eigenstructure, unbiasedness, covariance, determinism."""

import copy
import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from pimub.errors import MissingBasisError, SchemaError
from pimub.gf2n import Field, FieldElement, make_field
from pimub import mub
from pimub.mub import (
    BasisLabel,
    MubFamily,
    basis_to_json,
    born_probabilities,
    build_family,
    build_slope_basis,
    build_vertical,
    completeness_deviation,
    family_labels,
    family_operator,
    family_to_json,
    label_from_json,
    pauli_expectations,
    predicted_swap_escapes,
    _slope_exponents,
    _walsh_rows,
    stabilizer_masks,
    swap_covariance_report,
    unbiasedness_deviation,
    vertical_label,
)
from pimub.operators import (build_x, build_z, fourier, pauli_phase, pauli_table, permute_label,
                             walsh)
from pimub.orbits import enumerate_orbits, minimal_bases
from pimub.tomography import exact_probabilities, random_density_matrix, random_pure_state

from conftest import (expand_orbits, family, field, label_table, orbit_table, per_slope_exponents,
                      per_slope_invariant, reconstruct_identity_check, stabilizer_points)
from reference_data import SLOPE_ANCHOR_EXPONENTS, SLOPE_ANCHOR_SHA256, TWO_QUBIT_BASES


# ----------------------------------------------------------------------
# Labels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 5))
def test_family_has_all_labels(n):
    labels = family_labels(field(n))
    assert len(labels) == 2**n + 1
    assert len(set(labels)) == 2**n + 1
    assert labels[-1].is_vertical


def test_labels_keep_the_hash_of_their_slope():
    # the hash is stored at construction, equal to the generated one, so sets and
    # dicts of labels keep their order and a copy hashes alike
    f = field(3)
    for label in family_labels(f):
        assert hash(label) == hash((label.slope,))
        assert hash(copy.deepcopy(label)) == hash(label) and copy.deepcopy(label) == label
        assert hash(dataclasses.replace(label)) == hash(label)


def test_label_json_round_trip():
    f = field(3)
    for label in family_labels(f):
        assert label_from_json(f, label.to_json()) == label


@pytest.mark.parametrize("slope", (2.7, 1.0, "1", True, -1, 8))
def test_label_json_accepts_only_integer_slopes_in_range(slope):
    with pytest.raises(SchemaError, match="malformed basis label"):
        label_from_json(field(3), {"slope": slope})


# ----------------------------------------------------------------------
# Vertical basis
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_vertical_basis_is_fourier_with_uniform_anchor(n):
    f = field(n)
    basis = build_vertical(f)
    assert np.array_equal(basis, fourier(f))
    assert np.allclose(np.abs(basis), 2 ** (-n / 2))
    assert np.allclose(basis[:, 0], np.full(f.size, 2 ** (-n / 2)))
    gram = basis.conj().T @ basis
    assert np.abs(gram - np.eye(f.size)).max() < 1e-12


def test_vertical_two_qubits_matches_reference():
    basis = build_vertical(field(2))
    expected = np.array(TWO_QUBIT_BASES["vertical"], dtype=complex).T / 2.0
    assert np.allclose(basis, expected)


def test_vertical_vectors_are_shift_eigenvectors():
    f = field(3)
    basis = build_vertical(f)
    for beta in f.elements():
        xb = build_x(beta)
        for j in range(f.size):
            v = basis[:, j]
            lam = np.vdot(v, xb @ v)
            assert abs(abs(lam) - 1.0) < 1e-12
            assert np.allclose(xb @ v, lam * v)


# ----------------------------------------------------------------------
# Slope bases
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 5))
def test_zero_slope_is_computational_basis_exactly(n):
    f = field(n)
    assert np.array_equal(build_slope_basis(f, f.zero()), np.eye(f.size))


@pytest.mark.parametrize("n", range(1, 6))
def test_slope_vectors_are_joint_eigenvectors(n):
    # oracle: dense monomials built as tensor products, on every family basis
    f = field(n)
    fam = family(n)
    for label in fam.labels():
        basis = fam.basis(label)
        for alpha, beta in stabilizer_points(f, label):
            w = build_z(alpha) @ build_x(beta)
            transformed = w @ basis
            lams = np.einsum("ij,ij->j", basis.conj(), transformed)
            assert np.allclose(np.abs(lams), 1.0, atol=1e-10)
            assert np.abs(transformed - basis * lams).max() < 1e-10


@pytest.mark.parametrize("n", range(1, 5))
def test_shift_covariance_is_exact(n):
    f = field(n)
    for mu in f.elements():
        basis = build_slope_basis(f, mu)
        for beta in f.elements():
            xb = build_x(beta)
            for nu in f.elements():
                assert np.array_equal(xb @ basis[:, nu.index], basis[:, (nu + beta).index])


def test_two_qubit_slope_bases_match_reference_projectively():
    fam = family(2)
    expected_sets = {
        name: [np.array(v, dtype=complex) / np.linalg.norm(v) for v in vecs]
        for name, vecs in TWO_QUBIT_BASES.items()
    }
    matched_names = set()
    for label in fam.labels():
        basis = fam.basis(label)
        hits = [
            name
            for name, vecs in expected_sets.items()
            if all(
                sum(abs(np.vdot(v, basis[:, j])) > 1 - 1e-9 for v in vecs) == 1
                for j in range(4)
            )
        ]
        assert len(hits) == 1, f"basis {label} matched {hits}"
        matched_names.add(hits[0])
    assert matched_names == set(expected_sets)


def test_family_build_is_deterministic():
    fam1 = build_family(make_field(3))
    fam2 = build_family(make_field(3))
    for label in fam1.labels():
        assert np.array_equal(fam1.basis(label), fam2.basis(label))
    assert family_to_json(fam1) == family_to_json(fam2)


def test_family_matrices_are_frozen():
    fam = family(3)
    for label in fam.labels():
        with pytest.raises(ValueError):
            fam.basis(label)[0, 0] = 0.0


def _anchor_exponents(fam):
    """Rows k with anchor = i^k / sqrt(2^n) for the proper slopes, checked entrywise."""
    dim = fam.field.size
    rows = []
    for label in fam.labels()[1:dim]:
        anchor = fam.anchor(label)
        k = np.round(np.angle(anchor) / (np.pi / 2)).astype(int) % 4
        assert np.abs(anchor - 1j**k / np.sqrt(dim)).max() < 1e-12
        rows.append(k)
    return np.array(rows, dtype=np.uint8)


@pytest.mark.parametrize("n", range(1, 11))
def test_slope_labelling_matches_frozen_reference(n):
    # the anchor, and so the nu labelling of every slope basis, is the one
    # the earlier eigensolver construction chose (n <= 6), the per-slope
    # gauge chose (n = 7, 8) and the two-pass batched gauge chose (n = 9, 10)
    rows = _anchor_exponents(family(n))
    if n in SLOPE_ANCHOR_EXPONENTS:
        assert rows.tolist() == SLOPE_ANCHOR_EXPONENTS[n]
    else:
        assert hashlib.sha256(rows.tobytes()).hexdigest() == SLOPE_ANCHOR_SHA256[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_walsh_rows_match_the_walsh_product(n):
    rng = np.random.default_rng(n)
    rows = rng.integers(-1, 2, size=(5, 2**n)).astype(np.int16)
    assert np.array_equal(_walsh_rows(rows.copy()), rows @ walsh(2**n).astype(int))


def test_integer_walsh_rows_reach_the_score_bounds_at_twelve_qubits():
    # rule 2's scores lie in [-2^n, 2^n]; int16 holds both ends at n = 12
    rows = np.ones((2, 4096), dtype=np.int16)
    rows[1] = -1
    scores = _walsh_rows(rows)
    assert scores.dtype == np.int16
    assert scores[:, 0].tolist() == [4096, -4096] and not scores[:, 1:].any()


@pytest.mark.parametrize("n", (7, 8))
@pytest.mark.parametrize("mode", ("representative", "average"))
def test_family_operator_trace_is_the_pairwise_total(n, mode):
    # the identity coefficient, the trace, is the total of the expanded
    # distributions less 2^n, within an ulp; a sum of the 2^n + 1 Walsh
    # totals missed it by up to 11 ulps on these states
    labels = minimal_bases(field(n))
    table = orbit_table(n)
    for seed in (1, 2, n):
        rho = random_density_matrix(2**n, seed=seed)
        probs = np.array([r.data for r in exact_probabilities(rho, family(n), labels)])
        expanded = expand_orbits(table, labels, probs, mode)
        trace = np.trace(family_operator(family(n), table.labels, expanded)).real
        exact = math.fsum(expanded.ravel().tolist()) - 2**n
        assert abs(trace - exact) <= np.spacing(2.0**n + 1)


# every proper slope up to n = 8, the minimal-basis slopes at n = 9 and 10, and
# at n = 11 and 12 the slopes of weight 1, of alternating bits and of all ones,
# and slopes fixed by the swaps among the last qubits, which a mask of 64 swaps
# would drop at n = 12
_ORACLE_SLOPES = {
    **{n: range(1, 1 << n) for n in range(1, 9)},
    **{n: [(1 << m) - 1 for m in range(1, n + 1)] for n in (9, 10)},
    11: [0b1, 0b10101010101, 0b11000000000, 0b00111111111, 0b11111111111],
    12: [0b1, 0b101010101010, 0b111000000000, 0b000111111111, 0b111111111111],
}


@pytest.mark.parametrize("n", sorted(_ORACLE_SLOPES))
def test_batched_gauge_matches_the_per_slope_oracle(n):
    f = field(n)
    slopes = [f.element(bits) for bits in _ORACLE_SLOPES[n]]
    rows = _slope_exponents(f, slopes)
    assert rows.shape == (len(slopes), f.size)
    for mu, row in zip(slopes, rows):
        assert np.array_equal(row, per_slope_exponents(f, mu)), mu


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 11, 12])
def test_rule_one_keeps_only_indices_that_the_swaps_fix(n):
    # a swap fixes X_j c iff it fixes j and c, so the candidates that rule 1
    # finds by comparing all 2^n components are none, or the j on which every
    # swap fixing mu acts trivially: 0, m, its complement and 2^n - 1 for m the
    # index of mu.  From n = 3 on only the slope mu = 1 keeps any
    f = field(n)
    for bits in range(1, f.size) if n <= 6 else _ORACLE_SLOPES[n]:
        mu = f.element(bits)
        kept = set(np.flatnonzero(per_slope_invariant(f, mu)).tolist())
        assert bool(kept) == (n <= 2 or mu == f.one())
        assert kept in (set(), {0, mu.index, mu.index ^ (f.size - 1), f.size - 1})


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("pick", ["empty", "slope 0 and vertical", "shuffled"])
def test_family_anchors_do_not_depend_on_the_label_list(n, pick):
    f = field(n)
    full = family(n)
    everything = full.labels()
    labels = {
        "empty": [],
        "slope 0 and vertical": [BasisLabel(f.zero()), vertical_label()],
        "shuffled": [everything[i] for i in np.random.default_rng(n).permutation(len(everything))],
    }[pick]
    partial = build_family(f, labels)
    assert partial.labels() == labels
    for label in labels:
        assert np.array_equal(partial.anchor(label), full.anchor(label))
        assert not partial.anchor(label).flags.writeable
    assert _slope_exponents(f, []).shape == (0, f.size)


def test_family_stores_column_zero_of_the_built_bases():
    f = field(3)
    fam = family(3)
    for label in fam.labels():
        built = build_vertical(f) if label.is_vertical else build_slope_basis(f, label.slope)
        assert np.array_equal(fam.basis(label), built)
        assert np.array_equal(fam.anchor(label), built[:, 0])


# ----------------------------------------------------------------------
# Family-level structure
# ----------------------------------------------------------------------

def test_single_qubit_family_is_the_mub_triple():
    fam = family(1)
    labels = fam.labels()
    assert len(labels) == 3
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            ov = np.abs(fam.basis(la).conj().T @ fam.basis(lb)) ** 2
            assert np.allclose(ov, 0.5, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 5))
def test_unbiasedness_and_completeness(n):
    fam = family(n)
    dev = unbiasedness_deviation(fam)
    assert dev["max_gram_dev"] < 1e-10
    assert dev["max_cross_dev"] < 1e-10
    assert completeness_deviation(fam) < 1e-10


@pytest.mark.parametrize("n", range(1, 4))
def test_overlap_law_including_within_basis(n):
    # | <nu,k | nu',k'> |^2 = delta_kk' delta_nunu' + (1 - delta_kk') / 2^n
    fam = family(n)
    dim = field(n).size
    labels = fam.labels()
    for la in labels:
        for lb in labels:
            ov2 = np.abs(fam.basis(la).conj().T @ fam.basis(lb)) ** 2
            expected = np.eye(dim) if la == lb else np.full((dim, dim), 1.0 / dim)
            assert np.abs(ov2 - expected).max() < 1e-10


def _anchor_moments(fam, label):
    """Oracle: <anchor|P_alpha|anchor> on the basis's ``stabilizer_masks`` row, in O(4^n)."""
    (z,), (x,) = stabilizer_masks(fam.field, [label])
    anchor = fam.anchor(label)
    dim = anchor.shape[0]
    shifted = anchor[np.bitwise_xor.outer(x, np.arange(dim))]  # row alpha: X_x applied
    moments = (walsh(dim)[z] * shifted) @ anchor.conj()
    return (pauli_phase(fam.field.n, z, x) * moments).real


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_tables_match_the_point_and_moment_oracles(n):
    # every label of the full family's plan: the masks are the indices of the
    # ray's points, and the eigenvalues are the signs of the anchor's moments
    f = field(n)
    fam = family(n)
    plan = fam.plan(fam.labels())
    for label, index, eigenvalues in zip(fam.labels(), plan.index, plan.eigenvalues):
        # the plan reads the eigenvalues at index 0 of the anchor
        assert fam.anchor(label)[0] != 0
        x, z = np.divmod(index, f.size)
        points = stabilizer_points(f, label)
        assert z.tolist() == [a.index for a, _ in points]
        assert x.tolist() == [b.index for _, b in points]
        moments = _anchor_moments(fam, label)
        assert np.array_equal(np.abs(eigenvalues), np.ones(f.size))
        assert np.array_equal(eigenvalues, np.sign(moments))
        if n % 2 == 0:
            assert np.array_equal(eigenvalues, moments)
        else:
            # 2^(-n/2) is inexact at odd n, so the moments miss +-1 by roundoff
            assert np.abs(eigenvalues - moments).max() <= np.finfo(float).eps


@pytest.mark.parametrize("n", range(1, 9))
def test_stabilizer_masks_are_the_points_of_each_ray(n):
    # one pass over a label tuple in any order, vertical rows included: row k
    # holds the indices of the points of labels[k]'s ray, in field order
    f = field(n)
    labels = family_labels(f)
    for key in (labels, minimal_bases(f), labels[::-1], [vertical_label()], []):
        z, x = stabilizer_masks(f, key)
        assert z.shape == x.shape == (len(key), f.size)
        assert z.dtype == x.dtype == np.intp
        for label, z_row, x_row in zip(key, z, x):
            points = stabilizer_points(f, label)
            assert z_row.tolist() == [a.index for a, _ in points]
            assert x_row.tolist() == [b.index for _, b in points]


def test_anchor_eigenvalues_belong_to_their_family():
    # a hand-built family anchored on another column of the same basis must
    # get its own eigenvalues, equal to <anchor|P|anchor> computed densely
    f = field(3)
    fam = family(3)
    label = BasisLabel(f.element(0b011))
    other = MubFamily(f, {**fam.bases, label: fam.basis(label)[:, 5]})
    first, second = fam.plan([label]).eigenvalues[0], other.plan([label]).eigenvalues[0]
    assert not np.array_equal(first, second)
    for fam_, values in ((fam, first), (other, second)):
        anchor = fam_.anchor(label)
        for (alpha, beta), value in zip(stabilizer_points(f, label), values):
            pauli = (-1j) ** (alpha.index & beta.index).bit_count() * build_z(alpha) @ build_x(beta)
            assert abs(value - (anchor.conj() @ pauli @ anchor).real) < 1e-12
    assert fam.plan([label]).eigenvalues[0].tobytes() == first.tobytes()
    assert not first.flags.writeable


@pytest.mark.parametrize("n", range(1, 9))
def test_partial_family_holds_the_full_family_anchors(n):
    f = field(n)
    labels = minimal_bases(f)
    partial = build_family(f, labels)
    assert partial.labels() == labels
    for label in labels:
        assert np.array_equal(partial.anchor(label), family(n).anchor(label))
    # families compare by identity, never by their anchor arrays
    assert partial != family(n)
    assert partial != build_family(f, labels)


def test_partial_family_names_a_basis_it_lacks():
    f = field(3)
    partial = build_family(f, minimal_bases(f))
    absent = BasisLabel(f.element(0b010))
    for read in (partial.anchor, partial.basis, lambda label: partial.plan([label])):
        with pytest.raises(MissingBasisError, match=re.escape(repr(absent))):
            read(absent)
    assert partial.plans == {}


def test_a_label_of_another_field_is_named_with_both_sizes():
    # its repr shows only the slope's bits, which the family may hold at its own n
    fam = build_family(field(2))
    foreign = BasisLabel(field(3).element(2))
    assert BasisLabel(field(2).element(2)) in fam.bases
    message = re.escape("basis BasisLabel(slope=2) is a slope of n=3, not of the family's n=2")
    expect = pauli_table(np.eye(4, dtype=complex) / 4.0).real
    reads = (fam.anchor, fam.basis, lambda label: fam.plan([label]),
             lambda label: born_probabilities(fam, [label], expect),
             lambda label: pauli_expectations(fam, [label], np.full((1, 4), 0.25)))
    for read in reads:
        with pytest.raises(MissingBasisError, match=message):
            read(foreign)
    assert fam.plans == {}
    # a label of the family's n that it lacks keeps the short message
    partial = build_family(field(2), [vertical_label()])
    with pytest.raises(MissingBasisError, match=r"BasisLabel\(slope=2\) is not in the family$"):
        partial.plan([BasisLabel(field(2).element(2))])


@pytest.mark.parametrize("n", range(1, 9))
def test_plan_stacks_the_table_rows_of_its_labels(n):
    fam = family(n)
    dim = fam.field.size
    minimal = minimal_bases(fam.field)
    extra = [label for label in fam.labels() if label not in minimal][:3]
    shuffled = [minimal[i] for i in np.random.default_rng(n).permutation(len(minimal))]
    for labels in (minimal, shuffled, minimal + extra, fam.labels(), []):
        plan = fam.plan(labels)
        assert plan.index.shape == plan.eigenvalues.shape == (len(labels), dim)
        assert plan.index.dtype == plan.types.dtype == np.intp
        assert plan.types.shape == (len(labels) * dim,)
        for k, label in enumerate(labels):
            z, x, types, eigenvalues = label_table(fam, label)
            assert np.array_equal(plan.index[k], x * dim + z)
            assert plan.eigenvalues[k].tobytes() == eigenvalues.tobytes()
            assert np.array_equal(plan.types[k * dim:(k + 1) * dim], types)
        assert not any(arr.flags.writeable for arr in plan)
        assert fam.plan(tuple(labels)) is plan


def test_families_built_from_the_same_labels_keep_their_own_plans():
    f = field(3)
    labels = minimal_bases(f)
    first, second = build_family(f, labels), build_family(f, labels)
    plan = first.plan(labels)
    assert second.plans == {}
    other = second.plan(labels)
    assert other is not plan and first.plan(labels) is plan
    assert all(np.array_equal(a, b) for a, b in zip(plan, other))
    with pytest.raises(TypeError):
        MubFamily(f, first.bases, plans={})


def test_plan_cache_keeps_a_bounded_number_of_label_tuples():
    fam = build_family(field(3))
    for labels in itertools.combinations(fam.labels(), 3):  # 84 label tuples
        plan = fam.plan(labels)
        assert len(fam.plans) <= mub._PLAN_CACHE_SIZE
        assert fam.plan(list(labels)) is plan
    assert len(fam.plans) == mub._PLAN_CACHE_SIZE


def test_family_constructor_takes_no_eigenvalues():
    # the plan cache, eigenvalues included, is filled only by reads, never passed in
    fam = family(2)
    with pytest.raises(TypeError):
        MubFamily(fam.field, fam.bases, plans={})
    assert MubFamily(fam.field, fam.bases).plans == {}


# Performance guards: they count work, so no timing threshold can flake.

def test_a_field_costs_order_n_squared_field_products(monkeypatch):
    # the Gram check and the basis products, one log-table product each; the
    # traces of the powers t^i come from the exp table, and the trace table and
    # the coordinate tables from bit masks
    calls = []
    multiply = Field._mul_poly

    def counted(self, a, b):
        calls.append(1)
        return multiply(self, a, b)

    monkeypatch.setattr(Field, "_mul_poly", counted)
    for n in (1, 6, 12):
        calls.clear()
        Field(n)  # what make_field(n) builds
        assert len(calls) <= 2 * n * n  # not 2^n (n - 1)


def test_a_family_build_makes_no_field_product(monkeypatch):
    # the multiplication matrices are XORs of the field's basis products
    def refuse(a, b):
        raise AssertionError("field product while building a family")

    monkeypatch.setattr(FieldElement, "__mul__", refuse)
    for n in (1, 4, 6):
        build_family(field(n))
        stabilizer_masks(field(n), family_labels(field(n)))


def test_no_family_content_outlives_its_field(monkeypatch):
    # a set-up timed with the field cache cleared builds everything again: a
    # new field, its own element table and a gauge pass of its own
    fields = []
    gauge = mub._slope_exponents

    def counted(f, slopes):
        fields.append(f)
        return gauge(f, slopes)

    monkeypatch.setattr(mub, "_slope_exponents", counted)
    for _ in range(2):
        make_field.cache_clear()
        build_family(make_field(3))
    assert len(fields) == 2 and fields[0] is not fields[1]
    assert fields[0].zero() is not fields[1].zero()


def test_family_labels_are_built_once_per_field(monkeypatch):
    # a set-up builds the family and the orbit table, and both read the field's one label list
    built = []
    post_init = BasisLabel.__post_init__

    def counted(label):
        built.append(label)
        post_init(label)

    monkeypatch.setattr(BasisLabel, "__post_init__", counted)
    make_field.cache_clear()
    f = make_field(6)
    build_family(f)
    enumerate_orbits(f)
    assert len(built) == f.size + 1
    first, again = family_labels(f), family_labels(f)
    assert first == again and first is not again  # a new list, the same labels
    assert all(a is b for a, b in zip(first, again))
    first.pop()
    assert len(family_labels(f)) == f.size + 1
    make_field.cache_clear()
    assert family_labels(make_field(6))[1] is not again[1]  # no label outlives its field


# ----------------------------------------------------------------------
# Reconstruction identity
# ----------------------------------------------------------------------

def test_identity_check_on_maximally_mixed():
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    assert np.abs(reconstruct_identity_check(fam, rho) - rho).max() < 1e-12


def test_identity_check_on_random_pure_state():
    fam = family(2)
    rho = random_pure_state(4, seed=3)
    assert np.abs(reconstruct_identity_check(fam, rho) - rho).max() < 1e-10


def test_identity_check_on_random_mixed_state():
    fam = family(3)
    rho = random_density_matrix(8, seed=4)
    assert np.abs(reconstruct_identity_check(fam, rho) - rho).max() < 1e-10


@pytest.mark.parametrize("n", range(1, 7))
def test_identity_check_matches_dense_projector_sum(n):
    # oracle: sum_(k,nu) Tr(rho P) P - identity with every dense projector,
    # on a Ginibre state that is not PI
    f = field(n)
    fam = family(n)
    rho = random_density_matrix(f.size, seed=90 + n)
    dense = -np.eye(f.size, dtype=complex)
    for label in fam.labels():
        v = fam.basis(label)
        probs = np.einsum("ik,ij,jk->k", v.conj(), rho, v).real
        dense += (v * probs) @ v.conj().T
    out = reconstruct_identity_check(fam, rho)
    assert np.abs(out - dense).max() <= 1e-12
    assert np.abs(out - rho).max() <= 1e-12


# ----------------------------------------------------------------------
# Swap covariance
# ----------------------------------------------------------------------

def test_two_qubit_covariance_verifies_the_trace_factor_rule():
    """The swap closes the n=2 family and fixes the index rule.

    Both labels move through their own trace factor (the change-of-variables
    rule); the variant that shifts the slope by the state-label trace factor
    is refuted by direct projector matching.
    """
    report = swap_covariance_report(family(2))
    assert report["closed"]
    assert report["both_swap_rule_holds"]
    assert not report["display_rule_holds"]


def test_three_qubit_covariance_failure_is_exactly_the_proper_slopes():
    """For n >= 3 coordinate swaps are not field semilinear, so conjugating a
    proper slope basis lands outside the family; only slope 0, the
    full-support slope, and the vertical basis close.  This pins the measured
    ground truth that the acceptance criterion for swap covariance tests
    against its stated (stronger) requirement.
    """
    f = field(3)
    report = swap_covariance_report(family(3))
    assert not report["closed"]
    full_support = BasisLabel(f.element(0b111))
    closed_labels = {BasisLabel(f.zero()), full_support, vertical_label()}
    escaped = {fail for (_, _, fail) in report["failures"]}
    expected_escaped = {
        repr(BasisLabel(f.element(b))) for b in range(1, 7)
    }  # weights 1 and 2
    assert escaped == expected_escaped
    assert repr(full_support) not in escaped
    # wherever the conjugated basis does land in the family, the rule holds
    assert report["both_swap_rule_holds"]
    assert report["bases_checked"] == 3 * len(closed_labels)


@pytest.mark.parametrize("n", range(2, 5))
def test_predicted_escapes_are_the_report_failures(n):
    # brute force over every target slope, against the alpha = 1 shortcut
    f = field(n)
    elems = f.elements()
    brute = set()
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            for mu in elems:
                images = [(permute_label(a, p, q), permute_label(mu * a, p, q)) for a in elems]
                if not any(all(t * pa == pma for pa, pma in images) for t in elems):
                    brute.add((p, q, repr(BasisLabel(mu))))
    predicted = predicted_swap_escapes(f)
    assert predicted == brute
    report = swap_covariance_report(family(n))
    assert sorted(report["failures"]) == sorted(predicted)
    assert report["both_swap_rule_holds"]


@pytest.mark.parametrize("n, checked, escapes", ((4, 18, 84), (5, 30, 300)))
def test_covariance_report_counts_past_three_qubits(n, checked, escapes):
    report = swap_covariance_report(family(n))
    assert report["bases_checked"] == checked
    assert len(report["failures"]) == escapes
    assert report["both_swap_rule_holds"]
    assert not report["display_rule_holds"]


@pytest.mark.parametrize("n, checked", ((2, 5), (3, 9)))
def test_covariance_report_refutes_a_misanchored_family(n, checked):
    # slope 0 anchored on |1> instead of |0>: the basis is the same set of
    # vectors, so every conjugation still lands, but the nu labels shift
    f = field(n)
    fam = family(n)
    zero = BasisLabel(f.zero())
    report = swap_covariance_report(MubFamily(f, {**fam.bases, zero: fam.basis(zero)[:, 1]}))
    assert report["bases_checked"] == checked
    assert not report["both_swap_rule_holds"]
    assert not report["display_rule_holds"]


def test_covariance_report_refutes_a_landing_that_misses_by_5e_6():
    # slope 0 anchored on sqrt(1 + 5e-6) |00>: the (1, 2) swap maps the basis
    # onto itself with overlaps 1 + 5e-6, outside the 1e-9 landing gate
    f = field(2)
    fam = family(2)
    zero = BasisLabel(f.zero())
    scaled = fam.anchor(zero) * np.sqrt(1 + 5e-6)
    report = swap_covariance_report(MubFamily(f, {**fam.bases, zero: scaled}))
    assert report["failures"] == [(1, 2, repr(zero))]
    assert report["bases_checked"] == 4
    assert not report["closed"]


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------

def test_basis_json_schema():
    f = field(2)
    fam = family(2)
    label = fam.labels()[1]
    obj = basis_to_json(f, label, fam.basis(label))
    assert obj["n"] == 2
    assert obj["label"] == {"slope": 1}
    assert len(obj["vectors"]) == 4
    assert all(len(vec) == 4 and len(vec[0]) == 2 for vec in obj["vectors"])
