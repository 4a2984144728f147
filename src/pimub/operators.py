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


def apply_shift(beta: FieldElement, vec: np.ndarray) -> np.ndarray:
    """X_beta |v> computed as an index permutation (no matrix build)."""
    dim = 1 << beta.field.n
    idx = np.arange(dim) ^ beta.index
    return vec[idx]


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


def fourier(field: Field) -> np.ndarray:
    """Finite Fourier transform F[nu, nu'] = 2^(-n/2) (-1)^tr(nu nu')."""
    dim = field.size
    elems = [field.from_index(i) for i in range(dim)]
    signs = np.empty((dim, dim))
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            signs[i, j] = -1.0 if (a * b).trace() else 1.0
    return signs.astype(complex) / np.sqrt(dim)


def _check_qubits(field: Field, p: int, q: int) -> None:
    if p == q or not (1 <= p <= field.n) or not (1 <= q <= field.n):
        raise InvalidIndexError(f"need distinct qubit indices in 1..{field.n}, got ({p}, {q})")


def swap_matrix(field: Field, p: int, q: int) -> np.ndarray:
    """Permutation matrix exchanging qubits p and q (1-based)."""
    _check_qubits(field, p, q)
    n, dim = field.n, field.size
    bp, bq = n - p, n - q  # bit positions, qubit 1 = MSB
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        a, b = i >> bp & 1, i >> bq & 1
        j = i & ~(1 << bp) & ~(1 << bq) | (b << bp) | (a << bq)
        mat[j, i] = 1.0
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
    _check_qubits(field, p, q)
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
        if len(entries) != dim * dim:
            raise ValueError
        flat = np.array([complex(re, im) for re, im in entries])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed matrix JSON: {exc}") from exc
    return flat.reshape(dim, dim)
