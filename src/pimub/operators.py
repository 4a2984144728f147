"""Dense realizations of the generalized Pauli group on n qubits.

Matrices are plain complex numpy arrays of shape (2^n, 2^n).  The
computational-basis index of the state labeled by a field element ``nu``
is ``nu.index``: qubit i carries the self-dual coordinate n_i, with qubit 1
as the most significant bit.  Under that convention the phase-flip and
shift operators factorize qubit by qubit,

    Z_alpha = sigma_z^(a_1) x ... x sigma_z^(a_n),  a_i = tr(alpha theta_i),
    X_beta  = sigma_x^(b_1) x ... x sigma_x^(b_n),  b_i = tr(beta theta_i),

with sigma_z |b> = (-1)^b |b>.  That sign makes the factorized Z_alpha equal
the diagonal sum over (-1)^tr(nu alpha) and keeps X_alpha = F Z_alpha F exact;
flipping it would dress Z_alpha with a stray (-1)^|alpha|.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidIndexError, SchemaError, json_int, json_number
from .gf2n import Field, FieldElement

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


def _tensor(factors) -> np.ndarray:
    out = np.array([[1.0 + 0.0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def build_z(alpha: FieldElement) -> np.ndarray:
    """Phase operator Z_alpha as a tensor product of sigma_z factors."""
    coeffs = alpha.coeffs()
    return _tensor(SIGMA_Z if a else _ID2 for a in coeffs)


def build_x(beta: FieldElement) -> np.ndarray:
    """Shift operator X_beta as a tensor product of sigma_x factors."""
    coeffs = beta.coeffs()
    return _tensor(SIGMA_X if b else _ID2 for b in coeffs)


@lru_cache(maxsize=None)
def popcounts(dim: int) -> np.ndarray:
    """Read-only array of |i|, the number of set bits, for i < dim."""
    out = np.array([i.bit_count() for i in range(dim)])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def walsh(dim: int) -> np.ndarray:
    """Read-only Sylvester-Hadamard signs (-1)^|r & c| (not normalized).

    For computational indices r and c of field elements this is
    (-1)^tr(rho gamma), so walsh(2^n) / 2^(n/2) is ``fourier``.
    """
    masks = np.arange(dim)
    out = 1.0 - 2.0 * (popcounts(dim)[np.bitwise_and.outer(masks, masks)] & 1)
    out.flags.writeable = False
    return out


# ----------------------------------------------------------------------
# Pauli strings by computational masks
# ----------------------------------------------------------------------
#
# A Pauli string is (-i)^|z & x| Z_z X_x for computational-index masks z
# (its Z part) and x (its X part); its type (k_X, k_Y, k_Z) counts the
# qubits carrying X, Y and Z.  Qubit permutations preserve the type.

_Y_PHASE = np.array([1.0, -1.0j, -1.0, 1.0j])  # (-i)^k for k mod 4


def pauli_phase(n: int, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(-i)^|z & x|, the phase that makes Z_z X_x a Hermitian Pauli string."""
    return _Y_PHASE[popcounts(1 << n)[z & x] % 4]


def pi_types(n: int) -> list[tuple[int, int, int]]:
    """All Pauli types (k_X, k_Y, k_Z) on n qubits, C(n + 3, 3) of them."""
    return [
        (kx, ky, kz)
        for kx in range(n + 1)
        for ky in range(n + 1 - kx)
        for kz in range(n + 1 - kx - ky)
    ]


@lru_cache(maxsize=None)
def _type_lookup(n: int) -> np.ndarray:
    out = np.full((n + 1,) * 3, -1)
    for i, t in enumerate(pi_types(n)):
        out[t] = i
    out.flags.writeable = False
    return out


def pauli_types(n: int, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Position in ``pi_types(n)`` of the Pauli strings with masks (z, x)."""
    pop = popcounts(1 << n)
    return _type_lookup(n)[pop[x & ~z], pop[x & z], pop[z & ~x]]


@lru_cache(maxsize=None)
def type_grid(n: int) -> np.ndarray:
    """Read-only intp [x, z] = ``pauli_types(n, z, x)``, the one S_n key of pairs of n-bit masks.

    Qubit permutations move the bit pairs (x_i, z_i) of a Pauli string and of a
    matrix entry (r, s) = (x, z) alike, so it also numbers the orbits of entries.
    The grid grows one qubit at a time as the code k_X (n+1)^2 + k_Y (n+1) + k_Z:
    a new leading qubit with bits (x, z) adds one I, Z, X or Y to the type of
    the rest, so each quadrant of the m-qubit codes is the (m - 1)-qubit codes
    plus a constant.  One gather turns the codes into positions.
    """
    side = n + 1
    step = np.array([[0, 1], [side * side, side]], dtype=np.int16)  # [x, z]: I, Z, X, Y
    codes = np.zeros((1, 1), dtype=np.int16)  # (n + 1)^3 <= 2197 codes fit int16
    for _ in range(n):
        codes = (step[:, None, :, None] + codes[None, :, None, :]).reshape(2 * len(codes), -1)
    grid = _type_lookup(n).ravel()[codes]
    grid.flags.writeable = False
    return grid


def qubit_count(mat: np.ndarray) -> int:
    """n for a 2-d square array of side 2^n with n >= 1, else ``DimensionMismatchError``."""
    shape = np.shape(mat)
    n = shape[0].bit_length() - 1 if len(shape) == 2 else 0
    if n < 1 or shape != (1 << n, 1 << n):
        raise DimensionMismatchError(f"matrix of shape {shape} is not 2^n x 2^n")
    return n


class PauliGrid(NamedTuple):
    """Every Pauli string on n qubits, entry [x, z] for X mask x and Z mask z.

    ``phase`` is (-i)^|z & x|, symmetric in x and z, and ``conj_phase`` its
    conjugate (the types are ``type_grid``).  ``index`` is the flat gather
    index r * 2^n + (r ^ x) at [r, x]: it reads diagonal x of a matrix, the
    entries rho[r, r ^ x], into column x, and reads column x back into
    diagonal x of a [r, x] array.
    """

    phase: np.ndarray
    conj_phase: np.ndarray
    index: np.ndarray


@lru_cache(maxsize=None)
def pauli_grid(n: int) -> PauliGrid:
    """Read-only ``PauliGrid`` of n qubits, built once per n."""
    dim = 1 << n
    masks = np.arange(dim)
    phase = pauli_phase(n, masks[None, :], masks[:, None])
    rows = masks[:, None]
    grid = PauliGrid(phase, phase.conj(), rows * dim + (rows ^ masks))
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _walsh_columns(table: np.ndarray) -> np.ndarray:
    """walsh @ table for a C-ordered complex table, as one real matrix product.

    Seen as floats, the table is its real and imaginary columns side by side.
    """
    return (walsh(table.shape[0]) @ table.view(float)).view(complex)


def pauli_table(rho: np.ndarray) -> np.ndarray:
    """expect[x, z] = Tr(rho (-i)^|z & x| Z_z X_x) for all 4^n masks; inverts ``pauli_operator``.

    Tr(rho Z_z X_x) = (-1)^|z & x| sum_r (-1)^|z & r| rho[r, r ^ x], and
    (-1)^k (-i)^k = i^k, so the table is one gather of the diagonals
    rho[r, r ^ x], one Walsh transform over r and the conjugate phase.
    """
    grid = pauli_grid(qubit_count(rho))
    diagonals = np.take(np.asarray(rho, dtype=complex), grid.index)
    return _walsh_columns(diagonals).T * grid.conj_phase


def pauli_operator(n: int, expect: np.ndarray) -> np.ndarray:
    """2^-n sum_(x,z) expect[x, z] (-i)^|z & x| Z_z X_x, from Pauli-string expectations.

    No Pauli matrix is formed: entry (r, r ^ x) collects
    sum_z expect[x, z] (-i)^|z & x| (-1)^|z & r|, one Walsh transform over
    the Z mask z for every X mask x, the inverse of ``pauli_table``.
    """
    dim = 1 << n
    grid = pauli_grid(n)
    weighted = np.empty((dim, dim), dtype=complex)
    np.multiply(expect.T, grid.phase, out=weighted)
    weighted *= 1.0 / dim
    return np.take(_walsh_columns(weighted), grid.index)


def fourier(field: Field) -> np.ndarray:
    """Finite Fourier transform F[nu, nu'] = 2^(-n/2) (-1)^tr(nu nu') (see ``walsh``)."""
    return walsh(field.size).astype(complex) / np.sqrt(field.size)


def _check_qubits(n: int, p: int, q: int) -> None:
    if p == q or not (1 <= p <= n) or not (1 <= q <= n):
        raise InvalidIndexError(f"need distinct qubit indices in 1..{n}, got ({p}, {q})")


@lru_cache(maxsize=None)
def swap_index(n: int, p: int, q: int) -> np.ndarray:
    """Read-only index map of the (p, q) qubit swap (1-based) on n qubits.

    Entry i is i with its bits for qubits p and q exchanged (qubit 1 is the
    most significant bit), so (Pi v)[i] = v[perm[i]] and the swap is
    rho[np.ix_(perm, perm)] on a matrix; the map is its own inverse.
    """
    _check_qubits(n, p, q)
    idx = np.arange(1 << n)
    flip = 1 << (n - p) | 1 << (n - q)
    differ = (idx >> (n - p) ^ idx >> (n - q)) & 1
    out = np.where(differ, idx ^ flip, idx)
    out.flags.writeable = False
    return out


def swap_matrix(field: Field, p: int, q: int) -> np.ndarray:
    """Permutation matrix exchanging qubits p and q (1-based)."""
    dim = field.size
    mat = np.zeros((dim, dim), dtype=complex)
    mat[swap_index(field.n, p, q), np.arange(dim)] = 1.0
    return mat


def permute_label(kappa: FieldElement, p: int, q: int) -> FieldElement:
    """Field-level swap action: kappa + eps * tr(eps * kappa), eps = theta_p + theta_q.

    Equals exchanging coordinates p and q of the self-dual bit vector.
    """
    field = kappa.field
    _check_qubits(field.n, p, q)
    eps = field.element((1 << (p - 1)) ^ (1 << (q - 1)))
    if (eps * kappa).trace():
        return kappa + eps
    return kappa


# ----------------------------------------------------------------------
# Structural checks shared by tests and the verification command
# ----------------------------------------------------------------------

def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.allclose(mat, mat.conj().T, rtol=0, atol=tol))


def is_density_matrix(mat, herm_tol: float = 1e-12, trace_tol: float = 1e-12) -> bool:
    """Hermitian, unit trace, and no eigenvalue below -1e-10, checked on ``np.asarray(mat)``."""
    mat = np.asarray(mat)
    if not is_hermitian(mat, herm_tol):
        return False
    if abs(np.trace(mat).real - 1.0) > trace_tol or abs(np.trace(mat).imag) > trace_tol:
        return False
    return bool(np.linalg.eigvalsh(mat).min() >= -1e-10)


# ----------------------------------------------------------------------
# JSON interchange for dense matrices
# ----------------------------------------------------------------------

def matrix_to_json(mat: np.ndarray) -> dict:
    """{dim, entries: row-major [re, im] pairs}."""
    entries = np.ascontiguousarray(mat, dtype=complex).view(float).reshape(-1, 2).tolist()
    return {"dim": mat.shape[0], "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    """The matrix of ``matrix_to_json``, else ``SchemaError``.

    Every entry must be an [re, im] pair of JSON numbers: no bool, string or
    null, which numpy would convert.  The types are scanned once and the
    values read by one array conversion.
    """
    try:
        dim = json_int(obj["dim"], "dim")
        entries = obj["entries"]
        if type(entries) is not list or dim < 1 or len(entries) != dim * dim:
            raise ValueError(f"expected a list of dim^2 entries for dim={dim}")
        if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
            raise ValueError("every entry must be an [re, im] pair")
        values = list(chain.from_iterable(entries))
        if not set(map(type, values)) <= {int, float}:
            for value in values:
                json_number(value, "entry")  # raises on the first non-number
        flat = np.array(values, dtype=float).view(complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed matrix JSON: {exc}") from exc
    return flat.reshape(dim, dim)
