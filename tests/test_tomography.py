"""PI states, measurement simulation, inversion, physicality projection."""

import collections
import inspect
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pimub import mub, operators, orbits, tomography
from pimub.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidSpinError,
    MissingBasisError,
    NotNormalizedError,
    PimubError,
    SchemaError,
    UnsupportedFieldSizeError,
)
from pimub.mub import (
    BasisLabel,
    MubFamily,
    build_family,
    family_labels,
    pauli_expectations,
)
from pimub.operators import (build_x, build_z, is_density_matrix, pauli_operator, pauli_table,
                             pauli_types, qubit_count, swap_index, type_grid)
from pimub.orbits import LabelPoint, minimal_bases
from pimub.tomography import (
    MeasurementRecord,
    PIState,
    PIStateSpec,
    dicke_state,
    exact_probabilities,
    fidelity,
    independent_parameter_count,
    is_permutation_invariant,
    multiplicity,
    pi_types,
    project_physical,
    random_density_matrix,
    random_pi_state,
    random_pure_state,
    reconstruct,
    record_from_json,
    record_to_json,
    sample_counts,
    spin_values,
    trace_distance,
    twirl,
    unmeasured_pi_types,
)
from pimub.tomography import (_class_sums, _classes, _distributions, _from_entries, _mean_stack,
                              _project_to_simplex, _type_map)
from reference_data import PI_STATE_SHA256

from conftest import (ESTIMATES, _representatives, coupled_basis, coupled_from_blocks,
                      coupled_mean_blocks, coupled_units, dense_digest, dense_fidelity,
                      dense_trace_distance, pinned_outputs,
                      estimate, expand_orbits, family, field, ginibre_twirl_state,
                      looped_born_probabilities, looped_projection, looped_record_gate,
                      orbit_estimate, orbit_table, permutation_matrix, phase_sum_type_map,
                      reconstruct_identity_check, stabilizer_points, swap_invariant)


def projector(fam, label, nu):
    """Oracle: the dense projector onto |nu, label>, column nu.index of the basis."""
    v = fam.basis(label)[:, nu.index]
    return np.outer(v, v.conj())


# ----------------------------------------------------------------------
# Spin sector bookkeeping
# ----------------------------------------------------------------------

def test_spin_values():
    assert spin_values(2) == [1.0, 0.0]
    assert spin_values(3) == [1.5, 0.5]
    assert spin_values(5) == [2.5, 1.5, 0.5]


def test_multiplicity_worked_cases():
    assert multiplicity(2, 1) == 1
    assert multiplicity(2, 0) == 1
    assert multiplicity(3, 1.5) == 1
    assert multiplicity(3, 0.5) == 2
    for n in range(1, 9):
        assert multiplicity(n, n / 2) == 1


@pytest.mark.parametrize("n", range(1, 11))
def test_multiplicities_tile_the_hilbert_space(n):
    total = sum((int(2 * j) + 1) * multiplicity(n, j) for j in spin_values(n))
    assert total == 2**n


def test_multiplicity_rejects_bad_spins():
    for n, j in ((3, 1), (2, 0.5), (2, 2), (4, -1)):
        with pytest.raises(InvalidSpinError):
            multiplicity(n, j)


def test_independent_parameter_count_examples():
    assert independent_parameter_count(2) == 9
    assert independent_parameter_count(3) == 19
    assert independent_parameter_count(4) == 34


# ----------------------------------------------------------------------
# Coupled spin basis
# ----------------------------------------------------------------------

def hand_coupled_copies(n):
    """Oracle: the coupled copies of n <= 3 qubits written out by hand, keyed by 2j."""
    s2, s3, s6, s23 = map(math.sqrt, (2.0, 3.0, 6.0, 2.0 / 3.0))
    if n == 1:
        return {1: [np.eye(2)]}
    if n == 2:
        triplet = np.zeros((4, 3))
        triplet[0b00, 0] = triplet[0b11, 2] = 1.0
        triplet[0b01, 1] = triplet[0b10, 1] = 1.0 / s2
        singlet = np.zeros((4, 1))
        singlet[0b01, 0], singlet[0b10, 0] = 1.0 / s2, -1.0 / s2
        return {2: [triplet], 0: [singlet]}
    quartet = np.zeros((8, 4))
    quartet[0b000, 0] = quartet[0b111, 3] = 1.0
    quartet[[0b001, 0b010, 0b100], 1] = 1.0 / s3
    quartet[[0b011, 0b101, 0b110], 2] = 1.0 / s3
    # qubits 1, 2 coupled to a singlet
    via_singlet = np.zeros((8, 2))
    via_singlet[0b010, 0], via_singlet[0b100, 0] = 1.0 / s2, -1.0 / s2
    via_singlet[0b011, 1], via_singlet[0b101, 1] = 1.0 / s2, -1.0 / s2
    # qubits 1, 2 coupled to a triplet, then down to j = 1/2
    via_triplet = np.zeros((8, 2))
    via_triplet[0b001, 0] = s23
    via_triplet[0b010, 0] = via_triplet[0b100, 0] = -1.0 / s6
    via_triplet[0b011, 1] = via_triplet[0b101, 1] = 1.0 / s6
    via_triplet[0b110, 1] = -s23
    return {3: [quartet], 1: [via_singlet, via_triplet]}


def collective_spin(n):
    """Oracle: the collective J_z and J^2 of n qubits, |0> as spin up."""
    half = [np.array(m) / 2.0 for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
    total = [
        sum(np.kron(np.kron(np.eye(2**k), s), np.eye(2 ** (n - k - 1))) for k in range(n))
        for s in half
    ]
    return total[2], sum(j @ j for j in total)


@pytest.mark.parametrize("n", range(1, 9))
def test_coupled_basis_is_orthogonal_and_tiles_the_sectors(n):
    u, sizes, counts = coupled_basis(n)
    assert u.dtype == float and u.shape == (2**n, 2**n)
    assert np.abs(u.T @ u - np.eye(2**n)).max() < 1e-13
    assert sizes == tuple(int(2 * j) + 1 for j in spin_values(n))
    assert counts == tuple(multiplicity(n, j) for j in spin_values(n))
    assert sum(m * d for d, m in zip(sizes, counts)) == 2**n
    with pytest.raises(ValueError):
        u[0, 0] = 1.0


@pytest.mark.parametrize("n", range(1, 7))
def test_coupled_columns_are_collective_spin_eigenvectors(n):
    jz, j2 = collective_spin(n)
    u, sizes, counts = coupled_basis(n)
    two_j = np.concatenate([np.full(d * m, d - 1) for d, m in zip(sizes, counts)])
    two_m = np.concatenate([np.tile(np.arange(d - 1, -d, -2), m) for d, m in zip(sizes, counts)])
    assert np.abs(jz @ u - u * (two_m / 2.0)).max() < 1e-12
    assert np.abs(j2 @ u - u * (two_j / 2.0 * (two_j / 2.0 + 1.0))).max() < 1e-12


@pytest.mark.parametrize("n", (1, 2, 3))
def test_coupled_basis_reproduces_the_hand_coupled_copies(n):
    u, sizes, counts = coupled_basis(n)
    expected = [iso for d in sizes for iso in hand_coupled_copies(n)[d - 1]]
    assert np.abs(u - np.hstack(expected)).max() < 1e-15


@pytest.mark.parametrize("n", (2, 4, 6))
def test_twirled_states_are_copy_block_diagonal_in_the_coupled_basis(n):
    u, sizes, counts = coupled_basis(n)
    y = u.T @ random_pi_state(PIStateSpec.twirl(n, seed=70 + n)) @ u
    expected = np.zeros_like(y)
    start = 0
    for d, m in zip(sizes, counts):
        first = y[start:start + d, start:start + d]
        for c in range(m):
            at = start + c * d
            assert np.abs(y[at:at + d, at:at + d] - first).max() < 1e-12
            expected[at:at + d, at:at + d] = first
        start += d * m
    assert np.abs(y - expected).max() < 1e-12


def test_coupled_basis_caps_n():
    with pytest.raises(DimensionOverflowError):
        coupled_basis(9)


@pytest.mark.parametrize("n", (0, -1))
def test_coupled_basis_needs_a_qubit(n):
    with pytest.raises(UnsupportedFieldSizeError, match=f"got n={n}"):
        coupled_basis(n)


# ----------------------------------------------------------------------
# Twirl
# ----------------------------------------------------------------------

def literal_twirl(rho, n):
    """Oracle: the full n! average, permutation by permutation."""
    f = field(n)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for perm in itertools.permutations(range(n)):
        u = permutation_matrix(f, perm)
        out += u @ rho @ u.conj().T
    return out / math.factorial(n)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_twirl_matches_the_literal_group_average(n):
    rho = random_density_matrix(2**n, seed=n)
    assert np.abs(twirl(rho) - literal_twirl(rho, n)).max() < 1e-13


def coset_twirl(rho, n):
    """Oracle: the S_n average by the coset recursion S_k = union_i (i k) S_(k-1).

    After the step at level k the matrix equals the exact S_k average, so
    n - 1 levels of at most n swaps replace the n! term sum.
    """
    out = np.array(rho, dtype=complex)
    for k in range(2, n + 1):
        acc = out.copy()
        for i in range(1, k):
            perm = swap_index(n, i, k)
            acc += out[np.ix_(perm, perm)]
        out = acc / k
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_twirl_matches_the_coset_recursion(n):
    dim = 2**n
    rng = np.random.default_rng(60 + n)
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert ginibre.T.flags.f_contiguous and not ginibre.T.flags.c_contiguous
    for mat in (random_density_matrix(dim, seed=n), ginibre, ginibre.real, ginibre.T):
        assert np.abs(twirl(mat) - coset_twirl(mat, n)).max() < 1e-12


@pytest.mark.parametrize("n", (2, 3, 5))
def test_twirl_output_is_permutation_invariant(n):
    rho = twirl(random_density_matrix(2**n, seed=10 + n))
    assert is_permutation_invariant(rho, tol=1e-12)
    assert is_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-12)


def test_twirl_is_idempotent_and_caps_n():
    rho = twirl(random_density_matrix(8, seed=1))
    assert np.abs(twirl(rho) - rho).max() < 1e-13
    with pytest.raises(DimensionOverflowError):
        twirl(np.eye(2**9) / 2**9)


@pytest.mark.parametrize("n", range(1, 9))
def test_entry_classes_are_the_orbits_and_count_the_pi_parameters(n):
    classes = _classes(n)
    count = independent_parameter_count(n) + 1
    assert count == math.comb(n + 3, 3) == len(classes.sizes)
    assert classes.units.shape == classes.reads.shape == _type_map(n).shape == (count, count)
    assert classes.sizes.sum() == 4**n
    # the class of (r, s) is invariant under every transposition and fixed by (|r & s|, |r|, |s|)
    for p, q in itertools.combinations(range(1, n + 1), 2):
        perm = swap_index(n, p, q)
        assert np.array_equal(classes.keys[np.ix_(perm, perm)], classes.keys)
    index = np.arange(2**n)
    ones = np.array([i.bit_count() for i in index])
    both = np.array([[(r & s).bit_count() for s in index] for r in index])
    triples = np.stack(np.broadcast_arrays(both, ones[:, None], ones), axis=-1).reshape(-1, 3)
    assert len(np.unique(triples, axis=0)) == count
    assert len(np.unique(np.column_stack([triples, classes.keys.ravel()]), axis=0)) == count


@pytest.mark.parametrize("n", range(1, 9))
def test_type_grid_is_the_s_n_key_and_the_representatives_read_it(n):
    grid = type_grid(n)
    assert grid.dtype == np.intp and not grid.flags.writeable and type_grid(n) is grid
    for p, q in itertools.combinations(range(1, n + 1), 2):
        perm = swap_index(n, p, q)
        assert np.array_equal(grid[np.ix_(perm, perm)], grid)
    r, s = _representatives(n)
    assert np.array_equal(grid[r, s], np.arange(len(pi_types(n))))
    # class k is the Pauli type (|r & ~s|, |r & s|, |s & ~r|) of its entries
    for k, (kx, ky, kz) in enumerate(pi_types(n)):
        a, b = (int(v) for v in np.argwhere(grid == k)[-1])
        assert ((a & ~b).bit_count(), (a & b).bit_count(), (b & ~a).bit_count()) == (kx, ky, kz)


@pytest.mark.parametrize("n", range(1, 11))
def test_type_map_matches_the_pauli_assembly(n):
    V = _type_map(n)
    coords = np.random.default_rng(130 + n).uniform(-1.0, 1.0, size=len(pi_types(n)))
    values = V @ coords
    # every entry of V is a sum of phases over 2^n, so exact, and the rational sums are exact
    assert np.array_equal(np.round(V * 2**n), V * 2**n)
    terms = [Fraction(c) for c in coords]
    exact = [complex(*(float(sum(Fraction(a) * c for a, c in zip(part, terms)))
                       for part in (row.real, row.imag)))
             for row in V]
    assert np.abs(values - exact).max() <= 2e-16
    # the Walsh assembly's own rounding reaches 1.3e-15 at n = 8
    assembled = values[type_grid(n)]
    assert np.abs(assembled - pauli_operator(n, coords[type_grid(n)])).max() <= 2e-15
    if n > 8:
        return
    # T_n = reads diag(sizes) V maps type coordinates to the spin blocks
    classes = _classes(n)
    entries = classes.reads @ (classes.sizes * V) @ coords
    sizes = coupled_basis(n).sizes
    spans = np.split(entries, np.cumsum(np.square(sizes))[:-1])
    for span, size, block in zip(spans, sizes, coupled_mean_blocks(assembled), strict=True):
        assert np.abs(span.reshape(size, size) - block).max() <= 1e-14


@pytest.mark.parametrize("n", range(1, 11))
def test_closed_form_type_map_is_the_phase_sum(n):
    assert np.array_equal(_type_map(n), phase_sum_type_map(n))


def _type_counts(n):
    # N_t = n! / (t_X! t_Y! t_Z! t_I!), the strings of type t and the entries of class t
    return np.array([math.factorial(n) // math.prod(map(math.factorial, (*t, n - sum(t))))
                     for t in pi_types(n)])


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_type_map_is_orthogonal_with_norms_n_t(n):
    # Tr((2^-n S_t)^dag 2^-n S_t') = N_t delta_(t, t') / 2^n, a sum over the N_k entries of class k
    V = _type_map(n)
    sizes = _type_counts(n)
    assert V.shape == (len(sizes), len(sizes)) and not V.flags.writeable and _type_map(n) is V
    gram = V.conj().T @ (sizes[:, None] * V)
    assert np.abs(gram - np.diag(sizes / 2**n)).max() <= 1e-15 * sizes.max() / 2**n


@pytest.mark.parametrize("n", range(1, 9))
def test_class_sizes_count_the_entries_of_each_class(n):
    sizes = _classes(n).sizes
    assert np.array_equal(sizes, np.bincount(type_grid(n).ravel())[:, None])
    assert np.array_equal(sizes.ravel(), _type_counts(n))


def test_cold_type_map_builds_no_2_to_the_n_sided_table():
    # the phase sum held a 455 x 4096 phase table and walsh(4096), a 285 MiB peak at n = 12
    operators.walsh.cache_clear()
    _type_map.cache_clear()
    tracemalloc.start()
    try:
        _type_map(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_units_are_orthogonal_with_norms_m_j(n):
    # Tr(B_b^T B_b') over the 2^n-sided units is m_j delta_(b, b'): class k holds N_k entries
    units = tomography._units(n)
    entries = _type_counts(n)
    m_j = np.concatenate([np.full((int(2 * j) + 1) ** 2, multiplicity(n, j))
                          for j in spin_values(n)])
    assert units.shape == (math.comb(n + 3, 3), len(m_j))
    gram = units.T @ (entries[:, None] * units)
    assert np.abs(gram - np.diag(m_j)).max() <= 1e-15 * m_j.max()


@pytest.mark.parametrize("n", range(1, 9))
def test_class_twirl_matches_the_coupled_basis_products(n):
    ginibre = random_density_matrix(2**n, seed=100 + n)
    classes = _classes(n)
    assert np.abs(classes.units - coupled_units(n)).max() <= 1e-15
    for mat in (ginibre, twirl(ginibre)):
        blocks = coupled_mean_blocks(mat)
        stack = _mean_stack(classes, _class_sums(classes, mat))
        assert stack.shape == (len(blocks), n + 1, n + 1)
        for padded, expected in zip(stack, blocks, strict=True):
            side = len(expected)
            assert np.abs(padded[:side, :side] - expected).max() <= 1e-15
            assert not padded[side:].any() and not padded[:, side:].any()
        rebuilt = coupled_from_blocks(n, blocks)
        entries = np.concatenate([block.ravel() for block in blocks])
        assert np.abs(_from_entries(classes, entries) - rebuilt).max() <= 1e-15
        assert np.abs(twirl(mat) - rebuilt).max() <= 1e-15
        assert swap_invariant(twirl(mat), 1e-15)
    assert swap_invariant(ginibre, 1e-3) == (n == 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_class_twirl_is_idempotent(n):
    rho = twirl(random_density_matrix(2**n, seed=110 + n))
    assert np.abs(twirl(rho) - rho).max() <= 1e-15


@pytest.mark.parametrize("n", (2, 5, 8))
def test_twirl_keeps_a_nan_entry_within_its_class(n):
    rho = random_density_matrix(2**n, seed=120 + n)
    rho[1, 2**n - 2] = np.nan
    keys = _classes(n).keys
    assert np.array_equal(np.isnan(twirl(rho)), keys == keys[1, 2**n - 2])
    assert not is_permutation_invariant(rho)
    for metric in (fidelity, trace_distance):
        with pytest.raises(ValueError, match="finite"):
            metric(rho, twirl(random_density_matrix(2**n, seed=n)))


def _pi_test_inputs(n):
    """PI and non-PI operators of n qubits, far from the margins of tolerances 1e-12 and 1e-10."""
    dim = 2**n
    rng = np.random.default_rng(70 + n)
    pure_dicke = random_pi_state(PIStateSpec.dicke(n, np.eye(n + 1)[n // 2]))
    pi = [
        random_pi_state(PIStateSpec.twirl(n, seed=70 + n)),
        random_pi_state(PIStateSpec.dicke(n, rng.dirichlet(np.ones(n + 1)))),
        random_pi_state(_random_spin_block_spec(n, seed=70 + n)),
        pure_dicke,
        project_physical(_sampled_estimate(pure_dicke, seed=70 + n)),
    ]
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    others = [random_density_matrix(dim, seed=70 + n), random_pure_state(dim, seed=71 + n),
              pi[0] + 1e-6 * (g + g.conj().T)]
    return pi, others


@pytest.mark.parametrize("n", range(1, 9))
def test_pi_test_agrees_with_the_swap_oracle(n):
    pi, others = _pi_test_inputs(n)
    for tol in (1e-12, 1e-10):
        for mat in pi:
            assert is_permutation_invariant(mat, tol) and swap_invariant(mat, tol)
        for mat in others:  # every one-qubit operator is PI
            assert is_permutation_invariant(mat, tol) == swap_invariant(mat, tol) == (n == 1)


def test_pi_test_rejects_nan_entries():
    rho = twirl(random_density_matrix(8, seed=3))
    rho[2, 5] = np.nan
    assert not is_permutation_invariant(rho)
    assert not is_permutation_invariant(np.full((4, 4), np.nan))


def test_pi_test_caps_n():
    with pytest.raises(DimensionOverflowError):
        is_permutation_invariant(np.eye(2**9) / 2**9)


@pytest.mark.parametrize("n", range(2, 9))
def test_pi_test_makes_no_swap_gathers(monkeypatch, n):
    # count-based guard: the PI test reads the twirl, not n(n - 1)/2 swapped copies
    calls = []

    def counted(*args, _swap_index=swap_index):
        calls.append(args)
        return _swap_index(*args)

    for module in (operators, tomography):
        monkeypatch.setattr(module, "swap_index", counted, raising=False)
    assert is_permutation_invariant(twirl(random_density_matrix(2**n, seed=n)))
    assert calls == []


@pytest.mark.parametrize("shape", ((4,), (2, 2, 2), (3, 3), (8, 4), (1, 1)))
@pytest.mark.parametrize("operation", (twirl, project_physical, is_permutation_invariant))
def test_state_operations_need_a_square_matrix_of_side_2_to_the_n(operation, shape):
    with pytest.raises(DimensionMismatchError):
        operation(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("n", range(1, 9))
def test_twirl_reads_no_pauli_coordinates(monkeypatch, n):
    # count-based guard: the S_n average runs on spin blocks alone
    calls = []

    def counted(name):
        return lambda *args, **kwargs: calls.append(name)

    for module in (operators, tomography):
        for name in ("pauli_table", "pauli_operator"):
            monkeypatch.setattr(module, name, counted(name), raising=False)
    twirl(random_density_matrix(2**n, seed=n))
    assert calls == []


# ----------------------------------------------------------------------
# PI state generation
# ----------------------------------------------------------------------

def test_twirl_spec_requires_seed_and_cap():
    with pytest.raises(ValueError):
        random_pi_state(PIStateSpec(n=2, method="twirl"))
    with pytest.raises(DimensionOverflowError):
        random_pi_state(PIStateSpec.twirl(9, seed=0))


def test_twirl_spec_cap_fires_before_the_state_is_drawn():
    # a 2^30 x 2^30 draw cannot be allocated, so only the early cap raises this
    with pytest.raises(DimensionOverflowError):
        random_pi_state(PIStateSpec.twirl(30, seed=0))


@pytest.mark.parametrize("spec", (
    PIStateSpec.twirl(0, seed=0),
    PIStateSpec.dicke(0, [1.0]),
    PIStateSpec.spin_blocks(0, [1.0], [np.eye(1)]),
    PIStateSpec.dicke(-1, []),
    PIStateSpec.dicke(13, [1.0] + [0.0] * 13),  # 1 GiB if it were built
    PIStateSpec.twirl("6", seed=1),
    PIStateSpec.twirl(None, seed=1),
    PIStateSpec.dicke("6", [1.0] + [0.0] * 6),
    PIStateSpec.dicke(None, [1.0]),
    PIStateSpec.spin_blocks("6", [1.0], [np.eye(1)]),
    PIStateSpec.spin_blocks(None, [1.0], [np.eye(1)]),
), ids=("twirl-0", "dicke-0", "blocks-0", "dicke-neg", "dicke-13", "twirl-str", "twirl-none",
        "dicke-str", "dicke-none", "blocks-str", "blocks-none"))
def test_state_generators_reject_unsupported_n(monkeypatch, spec):
    def refuse(*args, **kwargs):
        raise AssertionError("state allocated")

    monkeypatch.setattr(tomography, "random_density_matrix", refuse)
    monkeypatch.setattr(tomography, "dicke_state", refuse)
    with pytest.raises(UnsupportedFieldSizeError, match=re.escape(f"got {spec.n!r}")):
        random_pi_state(spec)


@pytest.mark.parametrize("n", (9, 10))
def test_dicke_states_run_past_the_spin_block_cap(n):
    rho = random_pi_state(PIStateSpec.dicke(n, np.eye(n + 1)[2]))
    vec = dicke_state(n, 2)
    assert np.abs(rho - np.outer(vec, vec.conj())).max() < 1e-15
    assert abs(np.trace(rho) - 1.0) < 1e-12


@pytest.mark.parametrize("rank", (0, -1))
def test_random_density_matrix_needs_a_positive_rank(rank):
    with pytest.raises(ValueError, match="rank must be >= 1"):
        random_density_matrix(4, seed=1, rank=rank)


def test_twirl_state_is_reproducible():
    a = random_pi_state(PIStateSpec.twirl(3, seed=5))
    b = random_pi_state(PIStateSpec.twirl(3, seed=5))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("n", range(1, 9))
def test_twirl_states_are_seeded_pi_densities(n):
    seeds = (0, 1, 7, 2**40)
    states = [random_pi_state(PIStateSpec.twirl(n, seed)) for seed in seeds]
    for seed, rho in zip(seeds, states):
        assert is_density_matrix(rho)
        assert is_permutation_invariant(rho, tol=1e-15)
        assert (np.asarray(random_pi_state(PIStateSpec.twirl(n, seed))).tobytes()
                == np.asarray(rho).tobytes())
    for a, b in itertools.combinations(states, 2):
        assert np.abs(np.asarray(a) - b).max() > 1e-6


def _sector_probabilities_and_purity(n, rho):
    """tr(P_j rho) for each spin sector, in ``spin_values`` order, then tr(rho^2)."""
    u, sizes, counts = coupled_basis(n)
    diagonal = (u * (rho @ u)).sum(axis=0).real
    starts = np.cumsum([0, *(size * count for size, count in zip(sizes, counts))])[:-1]
    return [*np.add.reduceat(diagonal, starts), np.vdot(rho, rho).real]


@pytest.mark.parametrize("n, draws", ((4, 4000), (6, 2000)))
def test_twirl_states_follow_the_ginibre_twirl_law(n, draws):
    # the mean and the variance of each sector probability and of the purity, against the
    # dense oracle at other seeds, within 4 standard errors read from the oracle's own sample
    oracle = np.array([_sector_probabilities_and_purity(n, ginibre_twirl_state(n, 10**6 + k))
                       for k in range(draws)])
    drawn = np.array([_sector_probabilities_and_purity(n, random_pi_state(PIStateSpec.twirl(n, k)))
                      for k in range(draws)])
    mean, var = oracle.mean(axis=0), oracle.var(axis=0)
    fourth = ((oracle - mean) ** 4).mean(axis=0)
    assert np.all(np.abs(drawn.mean(axis=0) - mean) <= 4 * np.sqrt(2 * var / draws))
    assert np.all(np.abs(drawn.var(axis=0) - var) <= 4 * np.sqrt(2 * (fourth - var**2) / draws))


def test_twirl_states_draw_no_dense_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense draw")

    monkeypatch.setattr(tomography, "random_density_matrix", refuse)
    monkeypatch.setattr(tomography, "twirl", refuse)
    for n in (1, 6, 8):
        assert is_density_matrix(random_pi_state(PIStateSpec.twirl(n, seed=n)))


@pytest.mark.parametrize("seed", (1.5, "3", True, -1, None),
                         ids=("float", "str", "bool", "negative", "none"))
def test_state_and_sampling_seeds_must_be_nonnegative_integers(monkeypatch, seed):
    def refuse(*args, **kwargs):
        raise AssertionError("generator made")

    record = _exact_record()
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValueError, match=re.escape(f"seed must be a nonnegative integer, "
                                                   f"got {seed!r}")):
        random_pi_state(PIStateSpec.twirl(3, seed))
    with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
        sample_counts(record, 10, seed)


def test_numpy_integer_seeds_draw_as_python_ints():
    for seed in (np.int64(5), np.uint32(5), np.int8(5)):
        assert np.array_equal(random_pi_state(PIStateSpec.twirl(3, seed)),
                              random_pi_state(PIStateSpec.twirl(3, 5)))
        assert np.array_equal(sample_counts(_exact_record(), 100, seed).data,
                              sample_counts(_exact_record(), 100, 5).data)


def test_dicke_point_mass_is_the_ground_projector():
    rho = random_pi_state(PIStateSpec.dicke(3, [1, 0, 0, 0]))
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() == 0.0


def test_dicke_states_are_symmetric_unit_vectors():
    for n in (2, 3, 4):
        for k in range(n + 1):
            vec = dicke_state(n, k)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-14
            rho = np.outer(vec, vec.conj())
            assert is_permutation_invariant(rho, tol=1e-14)


def test_dicke_mixture_validation():
    with pytest.raises(ValueError):
        random_pi_state(PIStateSpec.dicke(2, [0.5, 0.5]))  # needs n+1 weights
    with pytest.raises(ValueError):
        random_pi_state(PIStateSpec.dicke(2, [0.9, 0.2, -0.1]))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_state_specs_reject_non_finite_probabilities(bad):
    with pytest.raises(ValueError, match="dicke weights"):
        random_pi_state(PIStateSpec.dicke(3, [bad, 0, 0, 1]))
    blocks = [np.eye(3) / 3, np.eye(1)]
    with pytest.raises(ValueError, match="sector probabilities"):
        random_pi_state(PIStateSpec.spin_blocks(2, [bad, 1.0], blocks))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_spin_block_states_are_pi_densities(n):
    rng = np.random.default_rng(17)
    sectors = spin_values(n)
    probs = rng.dirichlet(np.ones(len(sectors)))
    blocks = [random_density_matrix(int(2 * j) + 1, seed=int(10 * j) + n) for j in sectors]
    rho = random_pi_state(PIStateSpec.spin_blocks(n, probs, blocks))
    assert is_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-12)
    assert is_permutation_invariant(rho, tol=1e-12)


@pytest.mark.parametrize("blocks, two_j", [
    ([np.full((3, 3), np.nan), np.eye(1)], 2),
    ([np.diag([2.0, 0.0, -1.0]), np.eye(1)], 2),  # unit trace, lowest eigenvalue -1
    ([np.eye(3) / 3 + np.triu(np.full((3, 3), 0.1), 1), np.eye(1)], 2),  # not Hermitian
    ([np.eye(3) / 3, 2 * np.eye(1)], 0),
])
def test_spin_block_states_need_density_matrix_blocks(blocks, two_j):
    with pytest.raises(ValueError, match=f"sector 2j={two_j} block must be a density matrix"):
        random_pi_state(PIStateSpec.spin_blocks(2, [0.5, 0.5], blocks))


def test_symmetric_sector_point_mass_has_bounded_rank():
    for n in (2, 3):
        sectors = spin_values(n)
        blocks = [random_density_matrix(int(2 * j) + 1, seed=3) for j in sectors]
        probs = [1.0] + [0.0] * (len(sectors) - 1)
        rho = random_pi_state(PIStateSpec.spin_blocks(n, probs, blocks))
        rank = int((np.linalg.eigvalsh(rho) > 1e-12).sum())
        assert rank <= n + 1


@pytest.mark.parametrize("n", (2, 3))
def test_purity_respects_the_block_decomposition(n):
    # Tr(rho^2) = sum_j p_j^2 Tr(rho_j^2) / multiplicity(n, j)
    rng = np.random.default_rng(23 + n)
    sectors = spin_values(n)
    probs = rng.dirichlet(np.ones(len(sectors)))
    blocks = [random_density_matrix(int(2 * j) + 1, seed=int(2 * j) + 7) for j in sectors]
    rho = np.asarray(random_pi_state(PIStateSpec.spin_blocks(n, probs, blocks)))
    direct = np.trace(rho @ rho).real
    predicted = sum(
        p**2 * np.trace(b @ b).real / multiplicity(n, j)
        for p, b, j in zip(probs, blocks, sectors)
    )
    assert abs(direct - predicted) < 1e-12


def test_spin_block_method_capped_at_the_twirl_limit():
    blocks = [np.eye(d) / d for d in (10, 8, 6, 4, 2)]
    with pytest.raises(DimensionOverflowError):
        random_pi_state(PIStateSpec.spin_blocks(9, [1, 0, 0, 0, 0], blocks))


def _random_spin_block_spec(n, seed):
    rng = np.random.default_rng(seed)
    sectors = spin_values(n)
    probs = rng.dirichlet(np.ones(len(sectors)))
    blocks = [random_density_matrix(int(2 * j) + 1, seed=seed + int(2 * j)) for j in sectors]
    return PIStateSpec.spin_blocks(n, probs, blocks)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_spin_block_states_past_three_qubits_are_pi_densities(n):
    rho = random_pi_state(_random_spin_block_spec(n, seed=40 + n))
    assert is_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-12)
    assert is_permutation_invariant(rho, tol=1e-12)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_purity_respects_the_block_decomposition_past_three_qubits(n):
    spec = _random_spin_block_spec(n, seed=50 + n)
    rho = np.asarray(random_pi_state(spec))
    predicted = sum(
        p**2 * np.trace(b @ b).real / multiplicity(n, j)
        for p, b, j in zip(spec.block_probs, spec.blocks, spin_values(n))
    )
    assert abs(np.trace(rho @ rho).real - predicted) < 1e-12


def test_spin_block_method_checks_block_shapes():
    with pytest.raises(ValueError, match="2j=2 block must be 3x3"):
        random_pi_state(PIStateSpec.spin_blocks(4, [1, 0, 0], [np.eye(5) / 5, np.eye(2) / 2, 1]))


# ----------------------------------------------------------------------
# Exact probabilities
# ----------------------------------------------------------------------

def test_maximally_mixed_gives_uniform_outcomes():
    f = field(3)
    fam = family(3)
    records = exact_probabilities(np.eye(8, dtype=complex) / 8.0, fam, fam.labels())
    assert len(records) == 9
    for rec in records:
        assert all(abs(p - 0.125) < 1e-12 for p in rec.data)


def test_projector_input_reproduces_the_overlap_law():
    f = field(2)
    fam = family(2)
    label = BasisLabel(f.element(0b01))
    nu0 = f.element(0b10)
    rho = projector(fam, label, nu0)
    for rec in exact_probabilities(rho, fam, fam.labels()):
        if rec.basis == label:
            assert abs(rec.data[nu0.bits] - 1.0) < 1e-12
            assert all(abs(p) < 1e-12 for b, p in enumerate(rec.data) if b != nu0.bits)
        else:
            assert all(abs(p - 0.25) < 1e-12 for p in rec.data)


def test_two_qubit_pi_state_has_equal_diagonal_slope_probabilities():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=21))
    theta1, theta2 = f.element(0b01), f.element(0b10)
    recs = {r.basis: r for r in exact_probabilities(rho, fam, fam.labels())}
    p11 = recs[BasisLabel(theta1)].data[theta1.bits]
    p22 = recs[BasisLabel(theta2)].data[theta2.bits]
    assert abs(p11 - p22) < 1e-12


def test_record_probabilities_sum_to_one():
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=2))
    for rec in exact_probabilities(rho, fam, fam.labels()):
        assert abs(rec.data.sum() - 1.0) < 1e-12


# ----------------------------------------------------------------------
# Shot sampling
# ----------------------------------------------------------------------

def _exact_record():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=31))
    return exact_probabilities(rho, fam, [fam.labels()[1]])[0]


def test_single_shot_yields_a_single_count():
    rec = sample_counts(_exact_record(), shots=1, seed=0)
    assert rec.shots == 1
    assert sorted(rec.data, reverse=True)[0] == 1
    assert rec.data.sum() == 1


def test_sampling_is_deterministic_for_fixed_seed():
    a = sample_counts(_exact_record(), shots=500, seed=77)
    b = sample_counts(_exact_record(), shots=500, seed=77)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(sample_counts(_exact_record(), shots=500, seed=78).data, a.data)


def test_counts_sum_to_shots_and_frequencies_normalize():
    rec = sample_counts(_exact_record(), shots=1234, seed=5)
    assert rec.data.sum() == 1234
    assert abs(rec.frequencies().sum() - 1.0) < 1e-12


def test_empirical_frequencies_converge_in_expectation():
    exact = _exact_record()
    p = exact.data

    def mean_l1(shots):
        devs = []
        for seed in range(10):
            rec = sample_counts(exact, shots=shots, seed=seed)
            freq = rec.frequencies()
            devs.append(np.abs(freq - p).sum())
        return np.mean(devs)

    errs = [mean_l1(s) for s in (1000, 10000, 100000)]
    assert errs[0] > errs[1] > errs[2]


def test_sampling_rejects_invalid_input():
    with pytest.raises(ValueError):
        sample_counts(_exact_record(), shots=0, seed=1)
    sampled = sample_counts(_exact_record(), shots=10, seed=1)
    with pytest.raises(ValueError):
        sample_counts(sampled, shots=10, seed=1)
    # a fractional shot count would record frequencies that do not sum to 1
    for shots in (10.5, 10.0, True, "10"):
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample_counts(_exact_record(), shots=shots, seed=1)


@pytest.mark.parametrize("kind", (np.int64, np.int32))
def test_sampling_takes_numpy_integer_shots(kind):
    # a shot split across bases yields numpy integers; the record holds an int
    expected = sample_counts(_exact_record(), shots=100, seed=3)
    sampled = sample_counts(_exact_record(), shots=kind(100), seed=3)
    assert type(sampled.shots) is int and sampled.shots == 100
    assert np.array_equal(sampled.data, expected.data)
    assert json.dumps(record_to_json(sampled)) == json.dumps(record_to_json(expected))
    with pytest.raises(ValueError, match="shots must be >= 1"):
        sample_counts(_exact_record(), shots=kind(0), seed=3)
    for shots in (np.bool_(True), np.float64(100.0)):
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample_counts(_exact_record(), shots=shots, seed=3)


@pytest.mark.parametrize("value", (0.0, np.nan, np.inf))
def test_sampling_needs_a_finite_positive_mass(value):
    record = _exact_record()
    data = np.zeros_like(record.data)
    data[1] = value
    empty = MeasurementRecord(n=record.n, basis=record.basis, data=data)
    # the suite turns warnings into errors, so numpy's RuntimeWarning of 0 / 0 would fail this
    with pytest.raises(NotNormalizedError, match="no finite positive mass"):
        sample_counts(empty, shots=10, seed=1)


def test_record_json_round_trip():
    f = field(2)
    exact = _exact_record()
    assert np.array_equal(record_from_json(f, record_to_json(exact)).data, exact.data)
    sampled = sample_counts(exact, shots=100, seed=9)
    again = record_from_json(f, record_to_json(sampled))
    assert again.shots == 100
    assert np.array_equal(again.data, sampled.data)


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------

def test_reconstruct_uniform_probabilities_gives_maximally_mixed():
    f = field(2)
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    records = exact_probabilities(rho, fam, minimal_bases(f))
    rho_hat = reconstruct(records, orbit_table(2), fam)
    assert np.abs(rho_hat - rho).max() < 1e-12


def test_two_qubit_exact_round_trip():
    f = field(2)
    fam = family(2)
    for seed in range(10):
        rho = random_pi_state(PIStateSpec.twirl(2, seed=seed))
        records = exact_probabilities(rho, fam, minimal_bases(f))
        rho_hat = reconstruct(records, orbit_table(2), fam)
        assert trace_distance(rho, rho_hat) < 1e-9


def test_reconstruct_requires_the_minimal_bases():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=3))
    records = exact_probabilities(rho, fam, minimal_bases(f)[:-1])
    with pytest.raises(MissingBasisError):
        reconstruct(records, orbit_table(2), fam)


@pytest.mark.parametrize("mode", ESTIMATES)
def test_every_mode_rejects_a_slope_of_another_field(mode, monkeypatch):
    # bits 2 of an n = 3 slope would read as the n = 2 slope 2, which the family holds
    f = field(2)
    records = exact_probabilities(random_pi_state(PIStateSpec.twirl(2, 1)), family(2),
                                  minimal_bases(f))
    alien = MeasurementRecord(n=2, basis=BasisLabel(field(3).element(2)), data=records[0].data)

    def refuse(*args, **kwargs):
        raise AssertionError("table read")

    monkeypatch.setattr(orbits, "expand_probabilities", refuse)
    with pytest.raises(SchemaError, match=re.escape("is a slope of n=3, not of the family's n=2")):
        estimate([*records, alien], orbit_table(2), family(2), mode)
    with pytest.raises(MissingBasisError):
        estimate(records[1:], orbit_table(2), family(2), mode)


@pytest.mark.parametrize("mode", ("representative", "average"))
def test_orbit_modes_need_the_full_family(mode):
    # the expansion reaches every basis, so a partial family names the first one it lacks
    f = field(3)
    partial = build_family(f, minimal_bases(f))
    records = exact_probabilities(random_pi_state(PIStateSpec.twirl(3, seed=36)), partial,
                                  minimal_bases(f))
    outside = next(label for label in family_labels(f) if label not in minimal_bases(f))
    with pytest.raises(MissingBasisError, match=re.escape(f"{outside!r} is not in the family")):
        estimate(records, orbit_table(3), partial, mode)


def test_default_mode_needs_only_the_recorded_bases():
    f = field(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=8))
    records = exact_probabilities(rho, family(3), minimal_bases(f))
    partial = build_family(f, minimal_bases(f))
    assert np.array_equal(reconstruct(records, None, partial),
                          reconstruct(records, orbit_table(3), family(3)))
    with pytest.raises(MissingBasisError, match="not in the family"):
        reconstruct(records, None, build_family(f, minimal_bases(f)[:-1]))


def test_reconstruct_accepts_extra_bases():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=4))
    records = exact_probabilities(rho, fam, fam.labels())
    rho_hat = reconstruct(records, orbit_table(2), fam)
    assert trace_distance(rho, rho_hat) < 1e-9


def test_non_pi_state_is_not_recovered():
    # the scheme is complete only on the PI subspace
    f = field(2)
    fam = family(2)
    rho = random_pure_state(4, seed=8)
    records = exact_probabilities(rho, fam, minimal_bases(f))
    rho_hat = reconstruct(records, orbit_table(2), fam)
    assert trace_distance(rho, rho_hat) > 1e-3


@pytest.mark.parametrize("n", (1, 2, 3))
def test_stabilizer_expectations_match_direct_traces(n):
    # oracle: Tr(rho P) with P = (-i)^|alpha & beta| Z_alpha X_beta built from
    # the tensor-product operators; any state will do, PI or not
    f = field(n)
    fam = family(n)
    rho = random_density_matrix(f.size, seed=50 + n)
    for rec in exact_probabilities(rho, fam, fam.labels()):
        probs = np.array([rec.data[bits] for bits in range(f.size)])
        values = pauli_expectations(fam, [rec.basis], probs[None])[0]
        for (alpha, beta), value in zip(stabilizer_points(f, rec.basis), values):
            phase = (-1j) ** (alpha.bits & beta.bits).bit_count()
            direct = (phase * np.trace(rho @ build_z(alpha) @ build_x(beta))).real
            assert abs(value - direct) < 1e-12


@pytest.mark.parametrize("n", range(1, 8))
def test_exact_probabilities_match_dense_projectors(n):
    # oracle: Tr(rho P) with the dense projector of every vector of every
    # family basis, on a state that is not PI
    f = field(n)
    fam = family(n)
    rho = random_density_matrix(f.size, seed=70 + n)
    for rec in exact_probabilities(rho, fam, fam.labels()):
        assert rec.data.shape == (f.size,)
        for nu in f.elements():
            direct = np.sum(rho * projector(fam, rec.basis, nu).T).real  # Tr(rho P)
            assert abs(rec.data[nu.bits] - direct) <= 1e-12


@pytest.mark.parametrize("dim", (4, 16))
def test_exact_probabilities_reject_a_state_of_another_n(dim):
    # a 16-sided state used to give n = 3 records that sum to 1 and are wrong,
    # and a 4-sided one a bare IndexError
    f = field(3)
    with pytest.raises(DimensionMismatchError, match="n=3"):
        exact_probabilities(random_density_matrix(dim, seed=dim), family(3), minimal_bases(f))


def test_out_of_range_record_key_is_rejected():
    # an outcome key exists only in JSON; past it, a record of another
    # length (or of another n) is the same fault
    f = field(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=9))
    obj = record_to_json(exact_probabilities(rho, family(2), minimal_bases(f))[0])
    for bad in (-1, 4):
        obj["data"][3]["nu_bitmask"] = bad
        with pytest.raises(SchemaError, match="out of range"):
            record_from_json(f, obj)
    records, _, _ = _three_qubit_records()
    other_n = exact_probabilities(rho, family(2), minimal_bases(f)[1:2])[0]
    short = MeasurementRecord(n=3, basis=records[1].basis, data=records[1].data[:-1])
    for mode in ESTIMATES:
        for wrong in (other_n, short):
            records[1] = wrong
            with pytest.raises(SchemaError, match="outcome shape"):
                estimate(records, orbit_table(3), family(3), mode)


def test_record_json_rejects_bad_shots_n_and_duplicate_outcomes():
    f = field(3)
    exact, = exact_probabilities(np.eye(8, dtype=complex) / 8.0, family(3), [minimal_bases(f)[1]])
    for shots in (0, -5, "x", 2.5, True):
        obj = record_to_json(sample_counts(exact, shots=100, seed=1))
        obj["shots"] = shots
        with pytest.raises(SchemaError, match="shots"):
            record_from_json(f, obj)
    obj = record_to_json(exact)
    with pytest.raises(SchemaError, match="n=3"):
        record_from_json(field(2), obj)
    del obj["n"]  # a record without its own n takes the file's
    assert np.array_equal(record_from_json(f, obj).data, exact.data)
    obj["data"].append(dict(obj["data"][0]))
    with pytest.raises(SchemaError, match="listed twice"):
        record_from_json(f, obj)


@pytest.mark.parametrize("key, value", (
    ("nu_bitmask", 1.5), ("nu_bitmask", "1"), ("nu_bitmask", True),
    ("count", 2.7), ("count", "3"), ("count", False), ("n", 1.0), ("n", True),
))
def test_record_json_accepts_only_integer_fields(key, value):
    f = field(1)
    exact, = exact_probabilities(np.eye(2, dtype=complex) / 2.0, family(1), [minimal_bases(f)[1]])
    obj = record_to_json(sample_counts(exact, shots=10, seed=1))
    assert record_from_json(f, obj).data.tolist() == [item["count"] for item in obj["data"]]
    if key == "n":
        obj["n"] = value
    else:
        obj["data"][1][key] = value
    with pytest.raises(SchemaError, match=f"{key} must be an integer"):
        record_from_json(f, obj)


@pytest.mark.parametrize("value", ("0.25", True, False))
def test_record_json_accepts_only_numbers_for_p(value):
    f = field(1)
    exact, = exact_probabilities(np.eye(2, dtype=complex) / 2.0, family(1), [minimal_bases(f)[1]])
    obj = record_to_json(exact)
    obj["data"][0]["p"], obj["data"][1]["p"] = 1, 0.0  # an int is a JSON number too
    assert record_from_json(f, obj).data.tolist() == [1.0, 0.0]
    obj["data"][1]["p"] = value
    with pytest.raises(SchemaError, match="p must be a number"):
        record_from_json(f, obj)


def test_record_json_rejects_fractional_outcomes_and_counts():
    # truncated by int(), this record would read as counts [0 2 7 0]
    f = field(2)
    obj = {"n": 2, "basis": {"slope": 0}, "shots": 9,
           "data": [{"nu_bitmask": 1.5, "count": 2.7}, {"nu_bitmask": 2, "count": 7.9}]}
    with pytest.raises(SchemaError, match="nu_bitmask must be an integer"):
        record_from_json(f, obj)
    obj["data"][0]["nu_bitmask"] = 1
    with pytest.raises(SchemaError, match="count must be an integer"):
        record_from_json(f, obj)


def test_pi_type_counts():
    for n in range(1, 7):
        assert len(pi_types(n)) == math.comb(n + 3, 3)
    assert pi_types(1) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_unmeasured_pi_types_of_the_minimal_bases():
    for n in (1, 2, 3, 4):
        assert unmeasured_pi_types(field(n), minimal_bases(field(n))) == []
    assert unmeasured_pi_types(field(5), minimal_bases(field(5))) == [(1, 4, 0), (4, 1, 0)]
    assert unmeasured_pi_types(field(5), family(5).labels()) == []


def looped_pi_subspace_fit(records, fam):
    """Oracle: the per-type mean, accumulated basis by basis."""
    f = fam.field
    count = len(pi_types(f.n))
    sums, hits = np.zeros(count), np.zeros(count)
    for record in records:
        types = pauli_types(f.n, *mub.stabilizer_masks(f, [record.basis]))[0]
        np.add.at(sums, types,
                  pauli_expectations(fam, [record.basis], record.frequencies()[None])[0])
        np.add.at(hits, types, 1)
    coords = np.divide(sums, hits, out=np.zeros(count), where=hits > 0)
    return pauli_operator(f.n, coords[type_grid(f.n)])


@pytest.mark.parametrize("n", range(1, 7))
def test_pi_subspace_fit_matches_the_per_basis_loop(n):
    f = field(n)
    fam = family(n)
    rho = random_density_matrix(f.size, seed=90 + n)  # not PI, so every type is exercised
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=500, seed=i) for i, r in enumerate(exact)]
    for records in (exact, sampled):
        estimate = reconstruct(records, orbit_table(n), fam)
        assert np.abs(estimate - looped_pi_subspace_fit(records, fam)).max() < 1e-14


def test_pi_subspace_fit_past_the_class_table():
    # n = 9 has no spin-block table, but the type map covers it
    f = field(9)
    fam = build_family(f, minimal_bases(f))
    rho = random_pi_state(PIStateSpec.dicke(9, np.eye(10)[3]))
    records = exact_probabilities(rho, fam, minimal_bases(f))
    assert np.abs(reconstruct(records, None, fam) - looped_pi_subspace_fit(records, fam)).max() \
        < 1e-14


@pytest.mark.parametrize("n", range(1, 11))
def test_pi_subspace_reconstruct_reads_no_pauli_coordinates(monkeypatch, n):
    # count-based guard: the estimate is the type map times the coordinates, so no 4^n table
    f = field(n)
    if n <= 8:
        fam = family(n)
        rho = random_pi_state(PIStateSpec.twirl(n, seed=n))
    else:  # past the twirl cap, a Dicke mixture on the minimal bases
        fam = build_family(f, minimal_bases(f))
        rho = random_pi_state(PIStateSpec.dicke(n, np.random.default_rng(n).dirichlet(
            np.ones(n + 1))))
    records = exact_probabilities(rho, fam, minimal_bases(f))
    expected = looped_pi_subspace_fit(records, fam)
    calls = []

    def counted(name):
        return lambda *args, **kwargs: calls.append(name)

    for module in (operators, mub, tomography):
        for name in ("pauli_table", "pauli_operator", "pauli_grid"):
            monkeypatch.setattr(module, name, counted(name), raising=False)
    estimate = reconstruct(records, None, fam)
    assert calls == []
    assert np.abs(estimate - expected).max() < 1e-14


@pytest.mark.parametrize("n", (1, 4, 6))
def test_stacked_record_gate_matches_the_row_loop(n):
    f = field(n)
    fam = family(n)
    exact = exact_probabilities(random_density_matrix(f.size, seed=170 + n), fam, fam.labels())
    shots = (7, 1000, 10**6 + 3)
    records = [sample_counts(r, shots=shots[i % 3], seed=i) if i % 2 else r
               for i, r in enumerate(exact)]
    labels, probs = _distributions(records, f)
    assert labels == [r.basis for r in records]
    assert np.array_equal(probs, np.array([r.frequencies() for r in records]))


def test_unmeasured_types_get_zero_coordinates():
    f = field(5)
    rho = random_pi_state(PIStateSpec.twirl(5, seed=3))
    estimate = reconstruct(exact_probabilities(rho, family(5), minimal_bases(f)), orbit_table(5),
                           family(5))
    table = pauli_table(estimate)
    grid = type_grid(5)
    for t in unmeasured_pi_types(f, minimal_bases(f)):
        assert np.abs(table[grid == pi_types(5).index(t)]).max() < 1e-14
        assert np.abs(pauli_table(rho)[grid == pi_types(5).index(t)]).max() > 1e-6


def test_full_family_recovers_five_qubit_pi_states():
    # the minimal bases miss two types at n = 5; the whole family misses none
    fam = family(5)
    for seed in range(3):
        rho = random_pi_state(PIStateSpec.twirl(5, seed=seed))
        rho_hat = reconstruct(exact_probabilities(rho, fam, fam.labels()), orbit_table(5), fam)
        assert trace_distance(rho, rho_hat) < 1e-9


def test_pi_subspace_estimate_is_permutation_invariant():
    f = field(3)
    fam = family(3)
    rho = random_pure_state(8, seed=12)
    rho_hat = reconstruct(exact_probabilities(rho, fam, minimal_bases(f)), orbit_table(3), fam)
    assert is_permutation_invariant(rho_hat, tol=1e-12)
    assert abs(np.trace(rho_hat) - 1.0) < 1e-12


def test_orbit_expansion_modes_remain_biased_for_three_qubits():
    f = field(3)
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=6))
    records = exact_probabilities(rho, fam, minimal_bases(f))
    assert trace_distance(rho, reconstruct(records, orbit_table(3), fam)) < 1e-9
    for mode in ("representative", "average"):
        rho_hat = estimate(records, orbit_table(3), fam, mode)
        assert trace_distance(rho, rho_hat) > 1e-3


def _dense_orbit_sum(records, table, fam, mode):
    """Oracle: sum_(k,nu) p_(nu,k) P_(nu,k) - identity over the expanded
    orbit values, with every family basis expanded to a dense matrix."""
    f = fam.field
    measured = np.array([[rec.frequencies()[bits] for bits in range(f.size)] for rec in records])
    expanded = expand_orbits(table, [rec.basis for rec in records], measured, mode)
    rho = -np.eye(f.size, dtype=complex)
    for label in fam.labels():
        v = fam.basis(label)
        probs = expanded[table.labels.index(label)][[f.bits_from_index(i) for i in range(f.size)]]
        rho += (v * probs) @ v.conj().T
    return rho, expanded


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("mode", ("representative", "average"))
def test_orbit_modes_match_dense_projector_sum(n, mode):
    f = field(n)
    fam = family(n)
    table = orbit_table(n)
    rho = random_pi_state(PIStateSpec.twirl(n, seed=20 + n))
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=1000, seed=i) for i, r in enumerate(exact)]
    worst_total = 0.0
    for records in (exact, sampled):
        dense, expanded = _dense_orbit_sum(records, table, fam, mode)
        assert np.abs(estimate(records, table, fam, mode) - dense).max() <= 1e-12
        totals = [probs.sum() for probs in expanded]
        worst_total = max(worst_total, max(abs(t - 1.0) for t in totals))
    # the representative expansion need not sum to one on unmeasured bases,
    # so the identity coefficient is not a fixed 2^n + 1 - 2^n
    if mode == "representative" and n >= 3:
        assert worst_total > 1e-3


def test_estimators_never_expand_a_basis(monkeypatch):
    def refuse(self, label):
        raise AssertionError(f"basis {label!r} expanded")

    monkeypatch.setattr(MubFamily, "basis", refuse)
    f = field(3)
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=31))
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=1000, seed=i) for i, r in enumerate(exact)]
    for mode in ESTIMATES:
        project_physical(estimate(sampled, orbit_table(3), fam, mode))
    assert np.abs(reconstruct_identity_check(fam, rho) - rho).max() < 1e-12


# Performance guards: they count work, so no timing threshold can flake.

def test_anchor_eigenvalues_are_computed_once_per_label(monkeypatch):
    # a family builds the plan of a label tuple, eigenvalues included, on the
    # first read: one mask pass for the tuple, and 50 trials build one plan
    calls = collections.Counter()
    build = mub.stabilizer_masks

    def counted(f, labels):
        calls[tuple(labels)] += 1
        return build(f, labels)

    monkeypatch.setattr(mub, "stabilizer_masks", counted)
    f = field(3)
    fam = build_family(f)  # a fresh family, so no label is cached yet
    for seed in range(50):
        rho = random_pi_state(PIStateSpec.twirl(3, seed=seed))
        exact = exact_probabilities(rho, fam, minimal_bases(f))
        sampled = [sample_counts(r, shots=1000, seed=seed * 10 + i) for i, r in enumerate(exact)]
        reconstruct(sampled, orbit_table(3), fam)
    assert calls == {tuple(minimal_bases(f)): 1}
    assert list(fam.plans) == [tuple(minimal_bases(f))]
    values = fam.plan(minimal_bases(f)).eigenvalues
    with pytest.raises(ValueError):
        values[0] = 0.0


def test_exact_probabilities_build_one_pauli_table_per_state(monkeypatch):
    # and one Walsh product for all bases
    calls, walshes = [], []
    table, walsh = tomography.pauli_table, mub.walsh

    def counted(rho):
        calls.append(rho.shape)
        return table(rho)

    def counted_walsh(dim):
        walshes.append(dim)
        return walsh(dim)

    monkeypatch.setattr(tomography, "pauli_table", counted)
    monkeypatch.setattr(mub, "walsh", counted_walsh)
    f = field(6)
    records = exact_probabilities(random_density_matrix(f.size, seed=6), family(6), minimal_bases(f))
    assert [record.basis for record in records] == minimal_bases(f)
    assert calls == [(64, 64)]
    assert walshes == [64]


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_born_probabilities_match_the_per_label_products(n):
    fam = family(n)
    labels = fam.labels()
    expect = pauli_table(random_density_matrix(2**n, seed=140 + n)).real
    stacked = mub.born_probabilities(fam, labels, expect)
    assert stacked.shape == (len(labels), 2**n)
    assert np.array_equal(stacked, looped_born_probabilities(fam, labels, expect))
    assert mub.born_probabilities(fam, [], expect).shape == (0, 2**n)


def test_reconstruct_rejects_unknown_mode_and_unnormalized_records():
    # there is one estimator, so a mode is an unknown argument
    f = field(2)
    fam = family(2)
    records = exact_probabilities(np.eye(4, dtype=complex) / 4.0, fam, minimal_bases(f))
    with pytest.raises(TypeError, match="mode"):
        reconstruct(records, orbit_table(2), fam, mode="median")
    records[1].data[0] += 0.1
    with pytest.raises(NotNormalizedError):
        reconstruct(records, orbit_table(2), fam)


def test_reconstruct_takes_records_table_and_family_only():
    assert list(inspect.signature(reconstruct).parameters) == ["records", "table", "family"]
    assert not hasattr(tomography, "RECONSTRUCT_MODES")
    assert "mode" not in inspect.signature(orbits.expand_probabilities).parameters


def test_estimators_never_hash_label_points(monkeypatch):
    def refuse(self):
        raise AssertionError(f"label point {self!r} hashed")

    f = field(3)
    fam = family(3)
    table = orbit_table(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=33))
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=1000, seed=i) for i, r in enumerate(exact)]
    monkeypatch.setattr(LabelPoint, "__hash__", refuse)
    for mode in ESTIMATES:
        estimate(sampled, table, fam, mode)


def _three_qubit_records(seed=35):
    """Exact minimal-basis records of a PI state, and the smallest outcome
    of record 1 with another outcome of the same record."""
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=seed))
    records = exact_probabilities(rho, fam, minimal_bases(field(3)))
    low = int(np.argmin(records[1].data))
    return records, low, (low + 1) % 8


@pytest.mark.parametrize("mode", ESTIMATES)
@pytest.mark.parametrize("bad", ("nan", "inf", "-inf", "pair"))
def test_reconstruct_rejects_non_finite_and_negative_entries(mode, bad):
    records, low, other = _three_qubit_records()
    data = records[1].data
    if bad == "pair":
        data[other] += 0.5
        data[low] -= 0.5
    else:
        data[low] = float(bad)
    with pytest.raises(NotNormalizedError) as info:
        estimate(records, orbit_table(3), family(3), mode)
    assert "np.float64" not in str(info.value)


@pytest.mark.parametrize("mode", ESTIMATES)
def test_reconstruct_rejects_a_duplicated_basis(mode):
    records, _, _ = _three_qubit_records()
    with pytest.raises(SchemaError, match="more than once"):
        estimate(records + records[1:2], orbit_table(3), family(3), mode)


@pytest.mark.parametrize("mode", ESTIMATES)
def test_roundoff_below_zero_is_accepted(mode):
    # exact records of pure and Dicke states hold entries down to about -3e-17
    records, low, other = _three_qubit_records()
    data = records[1].data
    data[other] += data[low] + 1e-17
    data[low] = -1e-17
    assert np.isfinite(estimate(records, orbit_table(3), family(3), mode)).all()


@pytest.mark.parametrize("mode", ESTIMATES)
def test_omitted_outcome_reads_as_zero(mode):
    records, low, other = _three_qubit_records()
    data = records[1].data
    data[other] += data[low]
    data[low] = 0.0
    explicit = estimate(records, orbit_table(3), family(3), mode)
    obj = record_to_json(records[1])
    del obj["data"][low]
    records[1] = record_from_json(field(3), obj)
    assert records[1].data[low] == 0.0
    omitted = estimate(records, orbit_table(3), family(3), mode)
    assert np.array_equal(omitted, explicit)


_FAULTS = ("shape", "foreign", "twice", "missing", "nan", "negative", "sum")


def _with_fault(records, fault, i):
    """A copy of ``records`` with one fault at record i; no record is changed in place."""
    records = list(records)
    record = records[i]
    scale = record.shots or 1
    data = np.array(record.data, dtype=float)
    if fault == "shape":
        data = data[:-1]
    elif fault == "nan":
        data[0] = np.nan
    elif fault == "negative":
        data[0] -= 0.5 * scale
        data[1] += 0.5 * scale
    elif fault == "sum":
        data[0] += 0.1 * scale
    basis = BasisLabel(field(2).element(2)) if fault == "foreign" else record.basis
    records[i] = MeasurementRecord(record.n, basis, data, record.shots)
    if fault == "twice":
        records.append(records[i])
    elif fault == "missing":
        del records[i]
    return records


def _raised(call):
    """(type, message) of the package error ``call`` raises, None if it returns."""
    try:
        call()
    except PimubError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("sampled", (False, True))
def test_record_gate_raises_the_fault_a_record_scan_meets_first(sampled):
    # every single fault at every record, and every pair of faults at records 1 and 3, in
    # both orders; each call twice, as a failed label verdict never becomes a pass
    records, _, _ = _three_qubit_records()
    if sampled:
        records = [sample_counts(r, shots=1000, seed=i) for i, r in enumerate(records)]
    f, fam, table = field(3), family(3), orbit_table(3)
    cases = [[(fault, i)] for fault in _FAULTS for i in range(len(records))]
    cases += [[(a, i), (b, j)] for a in _FAULTS for b in _FAULTS for i, j in ((1, 3), (3, 1))]
    for faults in cases:
        faulty = records
        for fault, i in faults:
            faulty = _with_fault(faulty, fault, i)
        expected = _raised(lambda: looped_record_gate(faulty, f))
        assert expected is not None, faults
        for mode in ESTIMATES:
            for _ in range(2):
                assert _raised(lambda: estimate(faulty, table, fam, mode)) == expected


def test_reconstruct_reads_an_iterator_of_records_once():
    fam = family(3)
    records, _, _ = _three_qubit_records()
    expected = reconstruct(records, None, fam)
    assert np.array_equal(reconstruct(iter(records), None, fam), expected)
    assert np.array_equal(reconstruct((record for record in records), None, fam), expected)
    for fault in _FAULTS:
        faulty = _with_fault(records, fault, 1)
        raised = _raised(lambda: reconstruct(faulty, None, fam))
        assert raised is not None
        assert _raised(lambda: reconstruct((record for record in faulty), None, fam)) == raised


def test_a_warm_label_tuple_reads_no_basis_table(monkeypatch):
    # the plan of a label tuple serves every later trial on the same labels
    f = field(6)
    fam = build_family(f, minimal_bases(f))
    rho = random_pi_state(PIStateSpec.twirl(6, seed=41))

    def trial(bases):
        exact = exact_probabilities(rho, fam, bases)
        sampled = [sample_counts(r, shots=1000, seed=i) for i, r in enumerate(exact)]
        return reconstruct(sampled, None, fam)

    warm = trial(minimal_bases(f))
    reads = []
    read = mub.stabilizer_masks

    def counted(f, labels):
        reads.append(labels)
        return read(f, labels)

    monkeypatch.setattr(mub, "stabilizer_masks", counted)
    assert np.array_equal(trial(minimal_bases(f)), warm)  # equal labels, new objects
    assert reads == []
    assert len(fam.plans) == 1


# ----------------------------------------------------------------------
# Physicality projection
# ----------------------------------------------------------------------

def test_projection_is_idempotent_on_valid_pi_states():
    rho = np.asarray(random_pi_state(PIStateSpec.twirl(2, seed=13)))
    assert np.abs(project_physical(rho) - rho).max() < 1e-10


def test_projection_solves_the_hand_case():
    out = project_physical(np.diag([1.1, -0.1]).astype(complex))
    assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12


def test_projection_clips_and_renormalizes():
    out = project_physical(np.diag([0.8, 0.7, -0.3, -0.2]).astype(complex))
    evals = np.linalg.eigvalsh(out)
    assert evals.min() >= -1e-14
    assert abs(evals.sum() - 1.0) < 1e-12


def test_projection_is_the_nearest_pi_state_for_non_pi_input():
    # twirl-then-clip is the Frobenius-nearest PI state; clip-then-twirl is
    # PI and physical too, but farther away when the input is not PI
    rng = np.random.default_rng(17)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    herm = random_density_matrix(8, seed=17) + 0.2 * (g + g.conj().T)
    assert not is_permutation_invariant(herm)
    out = project_physical(herm)
    assert is_density_matrix(out, herm_tol=1e-12, trace_tol=1e-12)
    assert is_permutation_invariant(out, tol=1e-12)
    evals, evecs = np.linalg.eigh(herm)
    clip_then_twirl = twirl((evecs * _project_to_simplex(evals)) @ evecs.conj().T)
    assert np.linalg.norm(out - herm) < np.linalg.norm(clip_then_twirl - herm) - 1e-6


def dense_projection(rho_hat):
    """Oracle: Hermitian part, twirl, then the simplex step on the full 2^n spectrum."""
    rho_hat = np.asarray(rho_hat)
    evals, evecs = np.linalg.eigh(twirl((rho_hat + rho_hat.conj().T) / 2.0))
    return (evecs * _project_to_simplex(evals)) @ evecs.conj().T


@pytest.mark.parametrize("n", range(1, 8))
def test_block_projection_matches_the_dense_projection(n):
    dim = 2**n
    rng = np.random.default_rng(80 + n)
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    pi_state = random_pi_state(PIStateSpec.twirl(n, seed=80 + n))
    noisy = random_density_matrix(dim, seed=n) + 0.1 * (ginibre + ginibre.conj().T)
    for mat in (pi_state, pi_state + 0.05 * twirl(ginibre + ginibre.conj().T), noisy, ginibre,
                ginibre.T, ginibre.real):
        assert np.abs(project_physical(mat) - dense_projection(mat)).max() < 1e-12


@pytest.mark.parametrize("n", (3, 6, 8))
def test_projection_diagonalizes_only_spin_blocks(monkeypatch, n):
    # count-based guard: no 2^n-sided eigensolve and no twirl.  The blocks are solved in one
    # eigh call on a (sectors, n + 1, n + 1) stack, each block of side 2j + 1 followed by a
    # diagonal pad above its eigenvalues, so the solved blocks are the spin blocks.
    stacks = []
    eigh = np.linalg.eigh

    def counted(mat, *args, **kwargs):
        stacks.append(np.array(mat))
        return eigh(mat, *args, **kwargs)

    def refuse(rho):
        raise AssertionError("twirl called")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(tomography, "twirl", refuse)
    rng = np.random.default_rng(n)
    project_physical(rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n)))
    sizes = [int(2 * j) + 1 for j in spin_values(n)]
    assert len(stacks) == 1 and stacks[0].shape == (len(sizes), n + 1, n + 1)
    for mat, size in zip(stacks[0], sizes):
        pad = np.diag(mat)[size:]
        assert not mat[:size, size:].any() and not mat[size:, :size].any()
        assert np.array_equal(mat[size:, size:], np.diag(pad))
        assert (pad.imag == 0).all() and np.isfinite(pad).all()
        assert (pad.real > np.linalg.eigvalsh(mat[:size, :size]).max()).all()


def _projection_inputs(n):
    """Inputs for the stacked projection: general, rank-deficient and degenerate, by name."""
    dim = 2**n
    rng = np.random.default_rng(150 + n)
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis = coupled_basis(n)
    # per sector, a block with eigenvalues 0, a negative one and a repeated pair
    blocks = []
    for size in basis.sizes:
        g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        unitary = np.linalg.qr(g)[0]
        evals = np.resize([0.0, -0.3, 0.4, 0.4, 0.1], size)
        blocks.append((unitary * evals) @ unitary.conj().T)
    singlet = [np.zeros((size, size)) for size in basis.sizes]
    singlet[-1] = np.eye(basis.sizes[-1]) / basis.sizes[-1] / basis.counts[-1]
    return {
        "ginibre": ginibre,
        "rank-1": random_pure_state(dim, seed=150 + n),
        "rank-2 twirled": twirl(random_density_matrix(dim, seed=150 + n, rank=2)),
        "degenerate blocks": coupled_from_blocks(n, blocks),
        "lowest sector only": coupled_from_blocks(n, singlet),
        "scaled by 1e300": 1e300 * (ginibre + ginibre.conj().T),
        "zero": np.zeros((dim, dim)),
    }


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_projection_matches_the_per_sector_loop(n):
    for name, mat in _projection_inputs(n).items():
        out = project_physical(mat)
        assert np.abs(out - looped_projection(mat)).max() <= 1e-14, name
        assert is_density_matrix(out, herm_tol=1e-14, trace_tol=1e-13), name


@pytest.mark.parametrize("n", (2, 3))
def test_projection_pad_stays_finite_for_huge_entries(n):
    # A Dicke mixture's symmetric block is diag(weights).  Scaled so that the Hermitized block
    # reaches 0.8 of the largest float, twice its Gershgorin bound overflows, so the pad is
    # capped; past n = 3 the class sums of such an input overflow first.  The projection is
    # the Dicke projector of the top weight.
    weights = np.arange(1.0, n + 2) / np.arange(1.0, n + 2).sum()
    scale = 0.4 * np.finfo(float).max / weights.max()
    out = project_physical(scale * random_pi_state(PIStateSpec.dicke(n, weights)))
    top = dicke_state(n, n)
    assert np.abs(out - np.outer(top, top.conj())).max() <= 1e-14


@pytest.mark.parametrize("n", (3, 6))
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_projection_rejects_non_finite_input(n, bad):
    rho = twirl(random_density_matrix(2**n, seed=n))
    rho[1, 2] = bad
    with pytest.raises(ValueError, match="must be finite"):
        project_physical(rho)


def test_projection_caps_n_and_rejects_non_square_input():
    with pytest.raises(DimensionOverflowError):
        project_physical(np.eye(2**9) / 2**9)
    with pytest.raises(DimensionMismatchError):
        project_physical(np.eye(8)[:, :4])
    with pytest.raises(DimensionMismatchError):
        project_physical(np.eye(6) / 6)


def test_noisy_reconstruction_projects_to_a_physical_pi_state():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=41))
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=10000, seed=i) for i, r in enumerate(exact)]
    rho_hat = project_physical(reconstruct(sampled, orbit_table(2), fam))
    assert is_density_matrix(rho_hat, herm_tol=1e-12, trace_tol=1e-10)
    assert is_permutation_invariant(rho_hat, tol=1e-10)
    assert fidelity(rho, rho_hat) > 0.98


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def test_metrics_on_identical_and_orthogonal_states():
    rho = random_density_matrix(4, seed=2)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12
    assert trace_distance(rho, rho) < 1e-12
    a = np.zeros((2, 2), dtype=complex)
    a[0, 0] = 1.0
    b = np.zeros((2, 2), dtype=complex)
    b[1, 1] = 1.0
    assert fidelity(a, b) < 1e-12
    assert abs(trace_distance(a, b) - 1.0) < 1e-12


def test_fidelity_mixed_vs_pure_against_direct_oracle():
    # for pure sigma the Uhlmann value collapses to sqrt(<psi|rho|psi>)
    rng = np.random.default_rng(6)
    rho = random_density_matrix(4, seed=6)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    sigma = np.outer(psi, psi.conj())
    expected = math.sqrt(float(np.vdot(psi, rho @ psi).real))
    assert abs(fidelity(rho, sigma) - expected) < 1e-12
    uniform = np.eye(4, dtype=complex) / 4.0
    assert abs(fidelity(uniform, sigma) ** 2 - 0.25) < 1e-12


def test_metrics_reject_mismatched_dimensions():
    # a 1-d pair and a stack of square matrices are no pair of square matrices either
    for shapes in (((2, 2), (4, 4)), ((4,), (4,)), ((2, 2, 2), (2, 2, 2)), ((2, 1), (2, 1))):
        rho, sigma = (np.ones(shape) for shape in shapes)
        for metric in (fidelity, trace_distance):
            with pytest.raises(DimensionMismatchError):
                metric(rho, sigma)
    # one non-finite entry: LAPACK would return zeros or fail without a reason
    for n, bad in ((3, np.nan), (6, np.nan), (6, np.inf)):
        rho = random_pi_state(PIStateSpec.twirl(n, seed=n))
        broken = np.array(rho)
        broken[0, 1] = bad
        for metric in (fidelity, trace_distance):
            for pair in ((broken, rho), (rho, broken)):
                with pytest.raises(ValueError, match="finite"):
                    metric(*pair)


def _sampled_estimate(rho, seed):
    """Unprojected default-mode estimate of ``rho`` from 1000 shots per minimal basis."""
    f = field(qubit_count(rho))
    bases = minimal_bases(f)
    fam = build_family(f, bases)
    exact = exact_probabilities(rho, fam, bases)
    records = [sample_counts(r, shots=1000, seed=seed + i) for i, r in enumerate(exact)]
    return reconstruct(records, None, fam)


@pytest.mark.parametrize("n", range(1, 9))
def test_metrics_of_pi_states_match_the_dense_formulas(n):
    # dense inputs: from n = 5 on the metrics read spin blocks; below they are the dense
    # formulas to the bit (``PIState`` pairs: test_metrics_of_state_pairs_match_their_dense_forms)
    rng = np.random.default_rng(90 + n)
    pure = np.asarray(random_pi_state(PIStateSpec.dicke(n, np.eye(n + 1)[n // 2])))  # rank 1
    estimate = np.asarray(_sampled_estimate(pure, seed=90 + n))
    assert np.linalg.eigvalsh(estimate).min() < -1e-3
    states = [np.asarray(state) for state in (
        random_pi_state(PIStateSpec.twirl(n, seed=90 + n)),
        random_pi_state(PIStateSpec.dicke(n, rng.dirichlet(np.ones(n + 1)))),
        pure,
        random_pi_state(_random_spin_block_spec(n, seed=90 + n)),
        project_physical(estimate),
        random_pi_state(PIStateSpec.dicke(n, np.eye(n + 1)[0])),
    )]
    tol = 0.0 if n <= 4 else 1e-12
    pairs = list(zip(states, states[1:] + states[:1]))
    for a, b in pairs + [(b, a) for a, b in pairs]:
        assert abs(fidelity(a, b) - dense_fidelity(a, b)) <= tol
        assert abs(trace_distance(a, b) - dense_trace_distance(a, b)) <= tol
    for state in states:
        for a, b in ((state, estimate), (estimate, state)):
            assert abs(trace_distance(a, b) - dense_trace_distance(a, b)) <= tol


@pytest.mark.parametrize("n", range(1, 9))
def test_metrics_of_non_pi_inputs_are_the_dense_formulas(n):
    dim = 2**n
    pi_state = random_pi_state(PIStateSpec.twirl(n, seed=95 + n))
    for other in (random_density_matrix(dim, seed=95 + n), random_pure_state(dim, seed=96 + n)):
        for a, b in ((pi_state, other), (other, pi_state)):
            assert fidelity(a, b) == dense_fidelity(a, b)
            assert trace_distance(a, b) == dense_trace_distance(a, b)


@pytest.mark.parametrize("n, pi, dense", [(3, True, True), (6, True, False), (8, True, False),
                                          (6, False, True)])
def test_metrics_diagonalize_spin_blocks_only_for_pi_pairs_past_four_qubits(monkeypatch, n, pi,
                                                                           dense):
    # count-based guard: a dense PI pair at n >= 5 makes no 2^n-sided eigensolve
    rho = np.asarray(random_pi_state(PIStateSpec.twirl(n, seed=n)))
    sigma = (np.asarray(project_physical(rho + 0.05 * np.diag(np.linspace(-1, 1, 2**n)))) if pi
             else random_density_matrix(2**n, seed=n))
    assert is_permutation_invariant(sigma, tol=1e-12) == pi
    sides = []
    for name in ("eigh", "eigvalsh"):
        def counted(mat, *args, _solve=getattr(np.linalg, name), **kwargs):
            sides.append(mat.shape[-1])
            return _solve(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for metric in (fidelity, trace_distance):
        sides.clear()
        metric(rho, sigma)
        if dense:
            assert 2**n in sides
        else:
            assert sides and max(sides) <= n + 1


def test_symmetry_of_metrics():
    a = random_density_matrix(8, seed=14)
    b = twirl(random_density_matrix(8, seed=15))
    assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12


# ----------------------------------------------------------------------
# PI states as class values
# ----------------------------------------------------------------------

def test_producers_keep_the_dense_bytes_of_their_outputs():
    # twirl, Dicke and spin-block states and reconstructions, digests of the dense producers
    outputs = dict(pinned_outputs())
    assert outputs.keys() == PI_STATE_SHA256.keys()
    for key, out in outputs.items():
        assert isinstance(out, PIState), key
        assert dense_digest(out) == PI_STATE_SHA256[key], key


def test_pi_state_is_read_only_and_densifies_afresh():
    state = random_pi_state(PIStateSpec.twirl(3, seed=1))
    assert state.n == 3 and state.shape == (8, 8) and np.shape(state) == (8, 8)
    assert qubit_count(state) == 3 and state.means.shape == (math.comb(6, 3),)
    with pytest.raises(ValueError):
        state.means[0] = 0.0
    first, second = np.asarray(state), np.asarray(state)
    assert first is not second and np.array_equal(first, second)
    assert np.array_equal(first, state.means[type_grid(3)])
    first[0, 0] = 7.0  # the dense matrix is the caller's own
    assert np.asarray(state)[0, 0] == state.means[0]
    means = np.array(state.means)
    copied = PIState(3, means)
    means[0] = 7.0  # the state keeps its own copy
    assert np.array_equal(copied.means, state.means)
    assert np.asarray(state, dtype=complex).dtype == complex
    # numpy's operators take it as its dense matrix
    assert np.abs(first - state).max() == 7.0 - state.means[0].real
    assert np.array_equal(np.eye(8) @ state, np.asarray(state))
    for n, values in ((3, np.zeros(19)), (3, np.zeros((20, 1))), (0, np.zeros(1))):
        with pytest.raises(DimensionMismatchError):
            PIState(n, values)


def _class_value_states(n):
    """PI states of every producer, and an unprojected estimate with negative eigenvalues."""
    rng = np.random.default_rng(300 + n)
    pure = random_pi_state(PIStateSpec.dicke(n, np.eye(n + 1)[n // 2]))
    estimate = _sampled_estimate(pure, seed=300 + n)
    return [random_pi_state(PIStateSpec.twirl(n, seed=300 + n)),
            random_pi_state(PIStateSpec.dicke(n, rng.dirichlet(np.ones(n + 1)))),
            random_pi_state(_random_spin_block_spec(n, seed=300 + n)),
            pure, estimate, project_physical(estimate)]


@pytest.mark.parametrize("n", range(1, 9))
def test_state_born_probabilities_match_the_dense_path(n):
    fam = family(n)
    labels = fam.labels()
    for state in _class_value_states(n):
        got = exact_probabilities(state, fam, labels)
        want = exact_probabilities(np.asarray(state), fam, labels)
        assert [r.basis for r in got] == labels
        assert np.abs(np.array([r.data for r in got]) - [r.data for r in want]).max() <= 1e-15


@pytest.mark.parametrize("n, shots", [(3, 10**5), (6, 10**4)])
def test_state_born_probabilities_sample_the_same_counts(n, shots):
    fam = family(n)
    bases = minimal_bases(field(n))
    for seed in range(100):
        state = random_pi_state(PIStateSpec.twirl(n, seed))
        for i, (a, b) in enumerate(zip(exact_probabilities(state, fam, bases),
                                       exact_probabilities(np.asarray(state), fam, bases))):
            counts = [sample_counts(r, shots, seed=seed * 1000 + i).data for r in (a, b)]
            assert np.array_equal(*counts), (seed, i)


@pytest.mark.parametrize("n", range(1, 9))
def test_state_projection_matches_the_dense_input(n):
    # the dense input's class sums add up to 2520 equal entries one by one at n = 8,
    # and from n = 7 on their rounding (1.4e-12 at n = 8) moves the projection past 1e-15
    tol = 1e-15 if n <= 6 else 1e-14
    for state in _class_value_states(n):
        got = project_physical(state)
        assert isinstance(got, PIState)
        assert np.abs(np.asarray(got) - project_physical(np.asarray(state))).max() <= tol


@pytest.mark.parametrize("n", range(1, 9))
def test_metrics_of_state_pairs_match_their_dense_forms(n):
    dim = 2**n
    states = _class_value_states(n)
    physical = [state for k, state in enumerate(states) if k != 4]  # not the raw estimate
    others = [random_density_matrix(dim, seed=310 + n), random_pure_state(dim, seed=311 + n)]
    for a, b in itertools.permutations(physical, 2):
        for pair in ((a, b), (np.asarray(a), b), (a, np.asarray(b))):
            assert abs(fidelity(*pair) - dense_fidelity(a, b)) <= 1e-12
            assert abs(trace_distance(*pair) - dense_trace_distance(a, b)) <= 1e-12
    for a in states:
        for b in others:  # a dense partner that is not PI (below n = 2 every operator is)
            for pair in ((a, b), (b, a)):
                assert abs(trace_distance(*pair) - dense_trace_distance(*pair)) <= 1e-12
                if a is not states[4]:
                    assert abs(fidelity(*pair) - dense_fidelity(*pair)) <= 1e-12


@pytest.mark.parametrize("n, blocks", [(3, False), (4, True), (6, True), (8, True)])
def test_metrics_of_state_pairs_diagonalize_spin_blocks_from_four_qubits(monkeypatch, n, blocks):
    # count-based guard: two class-value states make no 2^n-sided eigensolve for 4 <= n <= 8
    rho = random_pi_state(PIStateSpec.twirl(n, seed=n))
    sigma = project_physical(np.asarray(rho) + 0.05 * np.diag(np.linspace(-1, 1, 2**n)))
    sides = []
    for name in ("eigh", "eigvalsh"):
        def counted(mat, *args, _solve=getattr(np.linalg, name), **kwargs):
            sides.append(mat.shape[-1])
            return _solve(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for metric in (fidelity, trace_distance):
        sides.clear()
        metric(rho, sigma)
        assert sides and max(sides) == (n + 1 if blocks else 2**n)


def test_class_value_inputs_are_checked():
    fam = family(3)
    for n in (2, 4):
        with pytest.raises(DimensionMismatchError):
            exact_probabilities(random_pi_state(PIStateSpec.twirl(n, seed=1)), fam, fam.labels())
    state = random_pi_state(PIStateSpec.twirl(3, seed=1))
    for bad in (np.nan, np.inf):
        means = np.array(state.means)
        means[5] = bad
        broken = PIState(3, means)
        with pytest.raises(ValueError, match="finite"):
            project_physical(broken)
        for metric in (fidelity, trace_distance):
            for pair in ((broken, state), (state, broken), (broken, np.asarray(state))):
                with pytest.raises(ValueError, match="finite"):
                    metric(*pair)
    for metric in (fidelity, trace_distance):
        with pytest.raises(DimensionMismatchError):
            metric(state, random_pi_state(PIStateSpec.twirl(4, seed=1)))


def test_checks_read_the_dense_matrix_of_a_state():
    # is_density_matrix and is_permutation_invariant do not trust the type, and twirl returns
    # an ndarray the caller may write into
    state = random_pi_state(PIStateSpec.twirl(3, seed=2))
    assert is_density_matrix(state) and is_permutation_invariant(state, tol=1e-15)
    out = twirl(state)
    assert isinstance(out, np.ndarray) and out.flags.writeable
    assert np.array_equal(out, twirl(np.asarray(state)))
    assert not is_density_matrix(PIState(3, 2 * state.means))


@pytest.mark.parametrize("n", (3, 4, 6))
def test_trial_builds_no_dense_matrix_after_the_draw(monkeypatch, n):
    # the benchmark's trial body on class values: densifying a PIState raises.  Below n = 4
    # the metrics score two states on their dense matrices, the cheaper path there
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("a PIState was densified")

    monkeypatch.setattr(PIState, "__array__", refuse)
    bases = minimal_bases(field(n))
    fam = build_family(field(n), bases)
    rho = random_pi_state(PIStateSpec.twirl(n, seed=n))
    records = [sample_counts(rec, 10**4, seed=n * 1000 + i)
               for i, rec in enumerate(exact_probabilities(rho, fam, bases))]
    est = project_physical(reconstruct(records, orbit_table(n), fam))
    with pytest.raises(AssertionError, match="densified"):
        np.asarray(est)
    if n < 4:
        for metric in (fidelity, trace_distance):
            with pytest.raises(AssertionError, match="densified"):
                metric(rho, est)
        monkeypatch.undo()
    assert 0.9 < fidelity(rho, est) <= 1.0 and 0.0 <= trace_distance(rho, est) < 0.2


def test_reconstruct_past_the_block_cap_builds_no_dense_matrix(monkeypatch):
    def refuse(self, dtype=None, copy=None):
        raise AssertionError("a PIState was densified")

    monkeypatch.setattr(PIState, "__array__", refuse)
    n = 9
    bases = minimal_bases(field(n))
    fam = build_family(field(n), bases)
    rho = random_pi_state(PIStateSpec.dicke(n, np.random.default_rng(n).dirichlet(np.ones(n + 1))))
    est = reconstruct(exact_probabilities(rho, fam, bases), None, fam)
    assert isinstance(est, PIState) and est.n == n
    monkeypatch.undo()
    dense = reconstruct(exact_probabilities(np.asarray(rho), fam, bases), None, fam)
    assert np.abs(np.asarray(est) - dense).max() <= 1e-15
