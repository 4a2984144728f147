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

import numpy as np

from .errors import InvalidIndexError, SchemaError
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


def pauli_monomial(alpha: FieldElement, beta: FieldElement) -> np.ndarray:
    """The group monomial Z_alpha X_beta."""
    return build_z(alpha) @ build_x(beta)


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


def pauli_operator(n: int, expect: np.ndarray) -> np.ndarray:
    """2^-n sum_(x,z) expect[x, z] (-i)^|z & x| Z_z X_x, from Pauli-string expectations.

    No Pauli matrix is formed: entry (r, r ^ x) collects
    sum_z expect[x, z] (-i)^|z & x| (-1)^|z & r|, one Walsh transform over
    the Z mask z for every X mask x.
    """
    dim = 1 << n
    masks = np.arange(dim)
    z, x = masks[None, :], masks[:, None]
    rho = np.empty((dim, dim), dtype=complex)
    rho[z, z ^ x] = expect * pauli_phase(n, z, x) @ walsh(dim) / dim
    return rho


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


def permutation_matrix(field: Field, perm) -> np.ndarray:
    """Unitary representation of a qubit permutation.

    ``perm[i]`` is the (0-based) source qubit moved to position i, so the
    matrix maps |b_perm[0] ... b_perm[n-1]> labels onto |b_0 ... b_(n-1)>.
    """
    n, dim = field.n, field.size
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise InvalidIndexError(f"not a permutation of 0..{n - 1}: {perm}")
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        j = sum(bits[perm[k]] << (n - 1 - k) for k in range(n))
        mat[j, i] = 1.0
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

def is_unitary(mat: np.ndarray, tol: float = 1e-12) -> bool:
    dim = mat.shape[0]
    return bool(np.allclose(mat @ mat.conj().T, np.eye(dim), atol=tol))

def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.allclose(mat, mat.conj().T, atol=tol))


def is_density_matrix(mat: np.ndarray, herm_tol: float = 1e-12,
                      trace_tol: float = 1e-12, eig_floor: float = -1e-10) -> bool:
    """Hermitian, unit trace, and spectrum bounded below by ``eig_floor``."""
    if not is_hermitian(mat, herm_tol):
        return False
    if abs(np.trace(mat).real - 1.0) > trace_tol or abs(np.trace(mat).imag) > trace_tol:
        return False
    return bool(np.linalg.eigvalsh(mat).min() >= eig_floor)


# ----------------------------------------------------------------------
# JSON interchange for dense matrices
# ----------------------------------------------------------------------

def matrix_to_json(mat: np.ndarray) -> dict:
    """{dim, entries: row-major [re, im] pairs}."""
    dim = mat.shape[0]
    entries = [[float(z.real), float(z.imag)] for z in mat.reshape(-1)]
    return {"dim": dim, "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        entries = obj["entries"]
        if dim < 1 or len(entries) != dim * dim:
            raise ValueError(f"{len(entries)} entries for dim={dim}")
        flat = np.array([complex(re, im) for re, im in entries])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix JSON: {exc}") from exc
    return flat.reshape(dim, dim)
