"""Pauli group matrices: factorization, commutation, Fourier, swaps."""

import math

import numpy as np
import pytest

from pimub.errors import DimensionMismatchError, InvalidIndexError, SchemaError
from pimub.operators import (
    build_x,
    build_z,
    fourier,
    is_density_matrix,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    pauli_grid,
    pauli_operator,
    pauli_table,
    pauli_types,
    pi_types,
    permute_label,
    swap_index,
    swap_matrix,
    type_grid,
)

from conftest import field, permutation_matrix


# ----------------------------------------------------------------------
# Independent oracles: operators straight from their defining sums
# ----------------------------------------------------------------------

def z_by_summation(alpha):
    """Z_alpha = sum_nu (-1)^tr(nu alpha) |nu><nu|."""
    f = alpha.field
    diag = np.zeros(f.size)
    for nu in f.elements():
        diag[nu.index] = -1.0 if (nu * alpha).trace() else 1.0
    return np.diag(diag).astype(complex)


def x_by_action(beta):
    """X_beta = sum_nu |nu + beta><nu|."""
    f = beta.field
    mat = np.zeros((f.size, f.size), dtype=complex)
    for nu in f.elements():
        mat[(nu + beta).index, nu.index] = 1.0
    return mat


def swap_by_bit_exchange(f, p, q):
    n = f.n
    mat = np.zeros((f.size, f.size), dtype=complex)
    for i in range(f.size):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        bits[p - 1], bits[q - 1] = bits[q - 1], bits[p - 1]
        mat[sum(b << (n - 1 - k) for k, b in enumerate(bits)), i] = 1.0
    return mat


# ----------------------------------------------------------------------
# Z and X construction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 5))
def test_identity_at_zero_label(n):
    f = field(n)
    assert np.array_equal(build_z(f.zero()), np.eye(f.size))
    assert np.array_equal(build_x(f.zero()), np.eye(f.size))


def test_single_qubit_z_is_diagonal_sign():
    # (-1)^tr(nu alpha) on GF(2) puts the minus on |1>
    z = build_z(field(1).one())
    assert np.array_equal(z, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", range(1, 5))
def test_tensor_build_matches_summation_oracle(n):
    f = field(n)
    for alpha in f.elements():
        assert np.array_equal(build_z(alpha), z_by_summation(alpha))
        assert np.array_equal(build_x(alpha), x_by_action(alpha))


def test_entries_are_exact_signs():
    f = field(3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        alpha = f.element(int(rng.integers(f.size)))
        for mat in (build_z(alpha), build_x(alpha)):
            assert set(np.unique(mat.real)) <= {-1.0, 0.0, 1.0}
            assert not mat.imag.any()
            assert np.array_equal(mat @ mat.T, np.eye(f.size))


@pytest.mark.parametrize("n", range(1, 5))
def test_commutation_signs_all_pairs(n):
    f = field(n)
    for alpha in f.elements():
        za = build_z(alpha)
        for beta in f.elements():
            xb = build_x(beta)
            sign = -1.0 if (alpha * beta).trace() else 1.0
            assert np.abs(za @ xb - sign * xb @ za).max() == 0.0


def test_group_closure_phases():
    f = field(3)
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b, a2, b2 = (f.element(int(x)) for x in rng.integers(0, f.size, size=4))
        lhs = build_z(a) @ build_x(b) @ build_z(a2) @ build_x(b2)
        sign = -1.0 if (a2 * b).trace() else 1.0
        rhs = sign * build_z(a + a2) @ build_x(b + b2)
        assert np.abs(lhs - rhs).max() < 1e-14


# ----------------------------------------------------------------------
# Fourier transform
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 5))
def test_fourier_is_real_symmetric_involution(n):
    fm = fourier(field(n))
    assert not fm.imag.any()
    assert np.array_equal(fm, fm.T)
    assert np.abs(fm @ fm - np.eye(field(n).size)).max() < 1e-14


@pytest.mark.parametrize("n", range(1, 7))
def test_fourier_matches_trace_definition(n):
    # oracle: F[nu, nu'] = 2^(-n/2) (-1)^tr(nu nu') by field multiplication
    f = field(n)
    elems = [f.from_index(i) for i in range(f.size)]
    signs = np.empty((f.size, f.size))
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            signs[i, j] = -1.0 if (a * b).trace() else 1.0
    assert np.array_equal(fourier(f), signs.astype(complex) / np.sqrt(f.size))


@pytest.mark.parametrize("n", range(1, 7))
def test_fourier_equals_hadamard_tensor_power(n):
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    expected = np.array([[1.0]])
    for _ in range(n):
        expected = np.kron(expected, hadamard)
    assert np.abs(fourier(field(n)) - expected).max() < 1e-14


@pytest.mark.parametrize("n", range(1, 5))
def test_fourier_exchanges_z_and_x(n):
    f = field(n)
    fm = fourier(f)
    for alpha in f.elements():
        assert np.abs(build_x(alpha) - fm @ build_z(alpha) @ fm).max() < 1e-12


# ----------------------------------------------------------------------
# Swaps
# ----------------------------------------------------------------------

def test_two_qubit_swap_exchanges_middle_labels():
    pi = swap_matrix(field(2), 1, 2)
    assert np.array_equal(pi @ np.eye(4)[:, 1], np.eye(4)[:, 2])
    assert np.array_equal(pi @ np.eye(4)[:, 2], np.eye(4)[:, 1])
    assert np.array_equal(pi @ np.eye(4)[:, 0], np.eye(4)[:, 0])
    assert np.array_equal(pi @ np.eye(4)[:, 3], np.eye(4)[:, 3])


@pytest.mark.parametrize("n", range(2, 5))
def test_swap_matrix_properties(n):
    f = field(n)
    fm = fourier(f)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            pi = swap_matrix(f, p, q)
            assert np.array_equal(pi, swap_matrix(f, q, p))
            assert np.array_equal(pi @ pi, np.eye(f.size))
            assert np.array_equal(pi, swap_by_bit_exchange(f, p, q))
            # field form: sum_kappa |kappa + eps tr(eps kappa)><kappa|
            eps = f.element((1 << (p - 1)) ^ (1 << (q - 1)))
            direct = np.zeros((f.size, f.size), dtype=complex)
            for kappa in f.elements():
                shift = eps if (eps * kappa).trace() else f.zero()
                direct[(kappa + shift).index, kappa.index] = 1.0
            assert np.array_equal(pi, direct)
            assert np.abs(pi @ fm - fm @ pi).max() == 0.0


@pytest.mark.parametrize("n", range(2, 5))
def test_swap_conjugation_permutes_labels(n):
    f = field(n)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            pi = swap_matrix(f, p, q)
            for alpha in f.elements():
                moved = permute_label(alpha, p, q)
                assert np.array_equal(pi @ build_z(alpha) @ pi, build_z(moved))
                assert np.array_equal(pi @ build_x(alpha) @ pi, build_x(moved))


@pytest.mark.parametrize("n", range(2, 6))
def test_swap_index_matches_swap_matrix(n):
    f = field(n)
    vec = np.arange(f.size) + 1.0j * np.arange(f.size) ** 2
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            if p == q:
                continue
            perm = swap_index(n, p, q)
            pi = swap_matrix(f, p, q)
            assert not perm.flags.writeable
            assert np.array_equal(pi @ vec, vec[perm])
            assert np.array_equal(pi, swap_by_bit_exchange(f, p, q))


def test_swap_rejects_bad_indices():
    f = field(3)
    for p, q in ((1, 1), (0, 2), (1, 4)):
        with pytest.raises(InvalidIndexError):
            swap_matrix(f, p, q)
        with pytest.raises(InvalidIndexError):
            permute_label(f.one(), p, q)
        with pytest.raises(InvalidIndexError):
            swap_index(3, p, q)


def test_permutation_matrix_identity_and_composition():
    # the twirl oracle's permutations: a transposition is swap_matrix, and
    # moving qubits by perm then by perm2 moves them by their composite
    f = field(3)
    assert np.array_equal(permutation_matrix(f, [0, 1, 2]), np.eye(8))
    assert np.array_equal(permutation_matrix(f, [2, 1, 0]), swap_matrix(f, 1, 3))
    assert np.array_equal(permutation_matrix(f, [1, 0, 2]), swap_matrix(f, 1, 2))
    perm, perm2 = [1, 2, 0], [2, 1, 0]
    composite = [perm[k] for k in perm2]
    assert np.array_equal(permutation_matrix(f, perm2) @ permutation_matrix(f, perm),
                          permutation_matrix(f, composite))


# ----------------------------------------------------------------------
# Label-level swap action
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 9))
def test_permute_label_is_coordinate_swap(n):
    f = field(n)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            for kappa in f.elements():
                moved = permute_label(kappa, p, q)
                coeffs = list(kappa.coeffs())
                coeffs[p - 1], coeffs[q - 1] = coeffs[q - 1], coeffs[p - 1]
                assert list(moved.coeffs()) == coeffs
                assert permute_label(moved, p, q) == kappa


def test_permute_label_gf4_example():
    f = field(2)
    theta1, theta2 = f.element(0b01), f.element(0b10)
    assert permute_label(theta1, 1, 2) == theta2
    assert permute_label(f.element(0b11), 1, 2) == f.element(0b11)


# ----------------------------------------------------------------------
# Pauli tables: matrix -> expectations -> matrix
# ----------------------------------------------------------------------

def _ginibre(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@pytest.mark.parametrize("n", range(1, 7))
def test_pauli_table_and_pauli_operator_invert_each_other(n):
    dim = 2**n
    for seed in (n, 10 + n):
        mat = _ginibre(dim, seed)
        hermitian = mat @ mat.conj().T
        for a in (mat, hermitian):
            assert np.abs(pauli_operator(n, pauli_table(a)) - a).max() < 1e-12 * dim
            # read as a table of expectations, the same matrix goes the other way
            assert np.abs(pauli_table(pauli_operator(n, a)) - a).max() < 1e-12 * dim
        assert np.abs(pauli_table(hermitian).imag).max() < 1e-12 * dim
    real = _ginibre(dim, 30 + n).real
    assert np.array_equal(pauli_table(real), pauli_table(real.astype(complex)))


def test_pauli_table_rejects_matrices_not_of_side_2_to_the_n():
    for shape in ((0, 0), (1, 1), (3, 3), (4, 2), (4,), (6, 6), (2, 2, 2), (8, 4)):
        with pytest.raises(DimensionMismatchError):
            pauli_table(np.ones(shape, dtype=complex))


@pytest.mark.parametrize("n", range(1, 6))
def test_pauli_grid_counts_and_phases(n):
    # a type (k_X, k_Y, k_Z) holds n! / (k_X! k_Y! k_Z! (n - k)!) strings
    grid = pauli_grid(n)
    expected = [
        math.factorial(n)
        // (math.factorial(kx) * math.factorial(ky) * math.factorial(kz)
            * math.factorial(n - kx - ky - kz))
        for kx, ky, kz in pi_types(n)
    ]
    assert np.bincount(type_grid(n).ravel()).tolist() == expected
    assert np.array_equal(grid.phase, grid.phase.T)
    assert np.array_equal(grid.conj_phase, grid.phase.conj())
    assert not any(arr.flags.writeable for arr in grid)
    assert pauli_grid(n) is grid


@pytest.mark.parametrize("n", range(1, 12))
def test_type_grid_grown_by_qubits_is_the_pauli_type_of_every_mask_pair(n):
    grid = type_grid.__wrapped__(n)  # a fresh build, kept out of the cache (32 MB at n = 11)
    assert grid.dtype == np.intp and not grid.flags.writeable
    assert grid.shape == (2**n, 2**n)
    masks = np.arange(2**n)
    for start in range(0, 2**n, 256):  # the oracle's int64 temporaries, 256 rows at a time
        rows = masks[start:start + 256]
        assert np.array_equal(grid[rows], pauli_types(n, masks[None, :], rows[:, None]))


@pytest.mark.parametrize("n", range(1, 5))
def test_pauli_table_matches_dense_traces(n):
    # oracle: Tr(A P) with P = (-i)^|z & x| Z_z X_x built from tensor products
    f = field(n)
    mat = _ginibre(f.size, 20 + n)
    table = pauli_table(mat)
    for x in range(f.size):
        for z in range(f.size):
            zx = build_z(f.from_index(z)) @ build_x(f.from_index(x))
            pauli = (-1j) ** (z & x).bit_count() * zx
            assert abs(table[x, z] - np.trace(mat @ pauli)) < 1e-12 * f.size


# ----------------------------------------------------------------------
# Validation helpers and JSON
# ----------------------------------------------------------------------

def test_density_matrix_validation():
    assert is_density_matrix(np.eye(4) / 4)
    assert not is_density_matrix(np.eye(4))          # trace 4
    assert not is_density_matrix(np.diag([1.5, -0.5]).astype(complex))
    skew = np.zeros((2, 2), dtype=complex)
    skew[0, 1] = 1.0
    assert not is_density_matrix(skew + np.eye(2) / 2)


def test_hermiticity_tolerance_is_absolute():
    # a 5e-7 asymmetry is far outside 1e-12, however large the entries
    mat = np.array([[0.5, 0.1 + 5e-7], [0.1, 0.5]], dtype=complex)
    assert np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() > 0
    assert not is_hermitian(mat, 1e-12)
    assert not is_density_matrix(mat)
    assert is_hermitian(mat, 1e-6)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(11)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    again = matrix_from_json(matrix_to_json(mat))
    assert np.array_equal(mat, again)


def test_matrix_json_rejects_malformed():
    with pytest.raises(SchemaError):
        matrix_from_json({"dim": 2, "entries": [[0.0, 0.0]]})
    with pytest.raises(SchemaError):
        matrix_from_json({"entries": []})
    with pytest.raises(SchemaError):
        matrix_from_json({"dim": -1, "entries": [[1.0, 0.0]]})
    for entries in ([[1.0]], [[1.0, 0.0, 0.0]], [1.0], "ab", [[10**400, 0.0]]):
        with pytest.raises(SchemaError):
            matrix_from_json({"dim": 1, "entries": entries})


@pytest.mark.parametrize("obj", (
    {"dim": 1.0, "entries": [[1.0, 0.0]]},
    {"dim": 2.7, "entries": [[1.0, 0.0]] * 4},
    {"dim": "2", "entries": [[1.0, 0.0]] * 4},
    {"dim": True, "entries": [[1.0, 0.0]]},
    {"dim": 1, "entries": [[True, 0.0]]},
    {"dim": 1, "entries": [[1.0, False]]},
    {"dim": 1, "entries": [["1", 0.0]]},
    {"dim": 1, "entries": [[None, 0.0]]},
))
def test_matrix_json_accepts_only_json_numbers(obj):
    assert matrix_from_json({"dim": 1, "entries": [[1, 0.0]]}).tolist() == [[1 + 0j]]
    with pytest.raises(SchemaError, match="must be an integer|must be a number"):
        matrix_from_json(obj)
