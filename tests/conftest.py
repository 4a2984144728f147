"""Shared cached constructions (building a MUB family is the slow step), and
the oracles that several test files share: the permutation matrix of the
operator and twirl tests, the transposition test for PI operators, the
phase-space points of a basis, the frame identity over a whole family, and
the quality metrics computed on 2^n-sided matrices.

``src`` goes on ``sys.path`` and on ``PYTHONPATH``, so a bare ``pytest``
finds the package without an install, and so do the CLI subprocesses the
tests start.
"""

import os
import sys
from functools import lru_cache
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

import numpy as np  # noqa: E402

from pimub import build_family, enumerate_orbits, make_field  # noqa: E402
from pimub.mub import born_probabilities, family_operator  # noqa: E402
from pimub.operators import pauli_table, swap_index  # noqa: E402


@lru_cache(maxsize=None)
def field(n):
    return make_field(n)


@lru_cache(maxsize=None)
def family(n):
    return build_family(field(n))


@lru_cache(maxsize=None)
def orbit_table(n):
    return enumerate_orbits(field(n))


def stabilizer_points(f, label):
    """Oracle: the points (a, b) whose monomials Z_a X_b the basis diagonalizes.

    Listed by ray parameter alpha, in field order: (alpha, mu alpha) on the
    slope-mu ray, (0, alpha) on the vertical ray.
    """
    if label.is_vertical:
        return [(f.zero(), a) for a in f.elements()]
    return [(a, label.slope * a) for a in f.elements()]


def reconstruct_identity_check(fam, rho):
    """Oracle: sum_(k,nu) Tr(rho P_(nu,k)) P_(nu,k) - identity over every basis of ``fam``.

    For a valid family this reproduces rho exactly (up to roundoff) for any
    density matrix: the sum over each basis is a pinching, and the 2^n + 1
    pinchings of a mutually unbiased family tile the operator space.
    """
    expect = pauli_table(rho).real
    labels = fam.labels()
    return family_operator(
        fam, labels, np.array([born_probabilities(fam, label, expect) for label in labels])
    )


def permutation_matrix(f, perm):
    """Oracle: the unitary that moves the (0-based) qubit perm[i] to position i.

    It maps |b_perm[0] ... b_perm[n-1]> onto |b_0 ... b_(n-1)>, qubit 1 the
    most significant bit.
    """
    n = f.n
    mat = np.zeros((f.size, f.size), dtype=complex)
    for i in range(f.size):
        bits = [(i >> (n - 1 - k)) & 1 for k in range(n)]
        mat[sum(bits[perm[k]] << (n - 1 - k) for k in range(n)), i] = 1.0
    return mat


def swap_invariant(rho, tol):
    """Oracle: whether no transposition of two qubits moves an entry of rho by more than tol."""
    n = rho.shape[0].bit_length() - 1
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            perm = swap_index(n, p, q)
            if np.abs(rho - rho[np.ix_(perm, perm)]).max() > tol:
                return False
    return True


def dense_fidelity(rho, sigma):
    """Oracle: Uhlmann fidelity from two 2^n-sided eigensolves, whatever the input."""
    evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = np.linalg.eigvalsh(root @ sigma @ root)
    cut = inner.max() * rho.shape[0] * np.finfo(float).eps if inner.size else 0.0
    value = np.sqrt(np.clip(inner, 0.0, None) * (inner > cut)).sum()
    return float(min(max(value, 0.0), 1.0))


def dense_trace_distance(rho, sigma):
    """Oracle: half the trace norm of the Hermitian part of rho - sigma, 2^n-sided."""
    diff = rho - sigma
    diff = (diff + diff.conj().T) / 2.0
    value = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    return float(min(max(value, 0.0), 1.0))
