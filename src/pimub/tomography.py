"""Permutationally invariant test states, measurement simulation, inversion.

A permutationally invariant (PI) n-qubit state decomposes over total-spin
sectors j = j_min .. n/2 as a direct sum of spin blocks rho_j tensored with
maximally mixed multiplicity factors; its free real parameter count is
sum_j (2j+1)^2 - 1.  This module generates such states (the S_n twirl of a
seeded Ginibre state, drawn as one Bartlett factor per spin sector from
C(n + 3, 3) random numbers, chi-square diagonals then normals; Dicke
mixtures; explicit spin blocks), simulates von Neumann measurements in the
MUB family exactly or with multinomial shot noise, inverts measured
probabilities back to a density matrix, and projects noisy estimates to the
physical PI set.

A PI operator is constant on each of the C(n + 3, 3) classes of entries
below, so the pipeline hands PI operators from stage to stage as a
``PIState``, those class values alone: ``random_pi_state``,
``reconstruct`` and ``project_physical`` return one, and
``exact_probabilities``, ``project_physical``, ``fidelity`` and
``trace_distance`` read its values with no 2^n-sided matrix, no PI gate
and no finiteness scan of 4^n entries.  ``np.asarray`` gives its dense
matrix, built afresh on each call, and every function here also takes a
dense ndarray, which keeps its dense path and its checks.  The checks
(``is_permutation_invariant``, ``operators.is_density_matrix``) and
``twirl`` read a ``PIState`` through its dense matrix, so they test it
rather than trust its type.

The spin blocks rho_j are read in one convention: |0> is spin up, each
spin-j copy |j, c, m> runs over m = j .. -j, and its phases are the
standard ones (J_+ and J_- have nonnegative entries), so a PI operator is
sum_j sum_c rho_j on the m_j copies, whichever orthonormal copies are
taken.  No S_n operation builds a basis of copies, though.
A qubit permutation moves the entry (r, s) of a 2^n-sided matrix to
(pi r, pi s), so the orbits of entries are the C(n + 3, 3) classes of
(|r & ~s|, |r & s|, |s & ~r|), the Pauli types (``operators.type_grid``),
as many as the entries of the spin blocks, and every S_n operation runs on
that one key per n, with the spin-block maps on it held in ``_classes``.
``twirl``, the S_n average, replaces each entry by the mean of its class,
and an operator is PI when its twirl moves no entry by more than a
tolerance (``is_permutation_invariant``, and the metrics' gate at 1e-12).
Each unit sum_c |j, c, m><j, c, m'| is PI, so constant on every class,
and its values there, in closed form from one Dicke copy followed by
singlets (``_units``), form one real square map between the class sums
and the mean rho_j of the m_j diagonal copy blocks of each sector.  The
"blocks" states are built through it, and ``project_physical``
diagonalizes only the (2j+1)-sided mean blocks, all in one stacked
eigensolve.  So do ``fidelity`` and ``trace_distance`` on two
``PIState``s for 4 <= n <= 8, and with a dense input for 5 <= n <= 8 when
it (for the trace distance, the difference) passes that gate.  Anything
else is scored on the dense matrices; below those n the 2^n-sided
eigensolves are the cheaper path.

A measurement record holds its outcomes as one array indexed by the
self-dual bits of nu, from simulation (``exact_probabilities``,
``sample_counts``) to inversion; ``record_from_json`` is the one place an
outcome key is read and range-checked.  The inversion reads records
through one gate, ``_distributions``, which returns their labels and one
array whose row k is the distribution of label k; the estimate reads that
format.  The gate's checks on the labels alone (a slope of
another n, a basis recorded twice, a minimal basis missing) are decided
once per label tuple (``_label_gate``), and raised in the order of a scan
of the records.
Both directions of the measurement map read each basis through the 2^n
Pauli strings, identity included, that it diagonalizes
(``mub.stabilizer_masks``), and the anchor's eigenvalue on each.  A label
tuple's rows are stacked once per family, ``MubFamily.plan``, which every
trial on the same bases reuses.  Simulation takes a ``PIState``'s one
expectation per Pauli type from its class values in one C(n + 3, 3)-sided
product (``_expectation_map``), or builds a dense state's table of all
4^n Pauli expectations once (``operators.pauli_table``), reads every
basis's rows from it in one gather and Walsh transforms them into Born
probabilities in one stacked product (``mub.born_probabilities``).  The
inversion Walsh transforms them back into the same expectations in one
product (``mub.pauli_expectations``); no basis is expanded.  The
PI-subspace fit below bins them by the plan's types, leaving one
coordinate per Pauli type, and a type sum S_t is PI, so constant on each
entry class:
``_type_map`` holds 2^-n S_t on every class at every n, in closed form
from the types alone, and the estimate is the ``PIState`` of that map
times the coordinates, with no 4^n array.

The inversion is least squares on the PI operator subspace.  Each
measured basis is the joint eigenbasis of 2^n - 1 Pauli monomials, so its
distribution gives their expectations, and for a PI state the expectation
of a Pauli string depends only on its type (k_X, k_Y, k_Z).  The fit is the
mean of the measured expectations per type, over all bases at once: one
Walsh product and one ``np.bincount`` per sum.  With the n + 2 minimal
bases it is exact for n <= 4.  At n = 5 the bases carry no monomial of the types
(1, 4, 0) and (4, 1, 0), so the measurement is not informationally complete
for PI states in this field presentation, and those two coordinates are set
to zero (see ``unmeasured_pi_types``).  It is the one estimator: the
paper's orbit expansion (``orbits.expand_probabilities``) is exact only for
n <= 2, and ``pimub verify`` runs it as a check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidSpinError,
    MissingBasisError,
    NotNormalizedError,
    SchemaError,
    UnsupportedFieldSizeError,
    json_int,
    json_number,
)
from .gf2n import MAX_N, Field
from .mub import (
    BasisLabel,
    MubFamily,
    born_probabilities,
    check_distributions,
    foreign_slope,
    label_from_json,
    pauli_expectations,
    stabilizer_masks,
)
from .operators import (is_density_matrix, pauli_table, pauli_types, pi_types, qubit_count,
                        type_grid)
from .orbits import OrbitTable, minimal_bases

_TWIRL_MAX_N = 8


# ----------------------------------------------------------------------
# Spin sector bookkeeping
# ----------------------------------------------------------------------

def spin_values(n: int) -> list[float]:
    """Total spins n/2, n/2 - 1, ..., down to 0 (n even) or 1/2 (n odd)."""
    return [two_j / 2.0 for two_j in range(n, -1, -2)][: n // 2 + 1]


def _two_j(n: int, j) -> int:
    two_j = int(round(2 * j))
    if abs(2 * j - two_j) > 1e-9 or two_j % 2 != n % 2 or not 0 <= two_j <= n:
        raise InvalidSpinError(f"j={j} is not a valid total spin for n={n}")
    return two_j


def multiplicity(n: int, j) -> int:
    """Number of spin-j copies: C(n, n/2 - j) - C(n, n/2 - j - 1)."""
    two_j = _two_j(n, j)
    k = (n - two_j) // 2
    return math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)


def independent_parameter_count(n: int) -> int:
    """Free real parameters of a PI density matrix: sum_j (2j+1)^2 - 1."""
    return sum((int(2 * j) + 1) ** 2 for j in spin_values(n)) - 1


def _sectors(n: int) -> tuple[tuple, tuple]:
    """The sides 2j + 1 and the multiplicities m_j of the spin sectors, in ``spin_values`` order."""
    return (tuple(int(2 * j) + 1 for j in spin_values(n)),
            tuple(multiplicity(n, j) for j in spin_values(n)))


class _Classes(NamedTuple):
    """The orbits of S_n on the entries (r, s) of a 2^n-sided matrix, and the spin blocks on them.

    A qubit permutation permutes the bit pairs (r_i, s_i), so the orbit of
    (r, s) is fixed by its Pauli type: C(n + 3, 3) classes, as many as
    spin-block entries.  ``keys`` is ``operators.type_grid(n)``, the class
    of each entry, ``pairs`` the class of each float of a complex matrix's
    real view (2 key + 0 for the real part, + 1 for the imaginary part), and
    ``sizes`` the number of entries of each class, as a column.

    Block entry b is (j, m, m') in sector order, row by row within a block,
    in the block convention of the module docstring.  Its unit
    sum_c |j, c, m><j, c, m'| is real and PI, so constant on each class:
    ``units[k, b]`` is its value there (``_units``).  The mean copy blocks
    of a matrix are then ``reads`` (the transpose of ``units`` over m_j)
    times its class sums, and a block list becomes a matrix as ``units``
    times its entries, gathered by ``keys``.

    ``shape`` is that of the blocks zero padded to a (sectors, n + 1, n + 1)
    stack, and ``padded`` the place of each b in it.  In that stack
    ``spare`` is the place of each diagonal entry past its block, and
    ``kept`` the place of each block eigenvalue in the (sectors, n + 1)
    eigenvalues of the stack once the spare diagonal is padded above every
    block eigenvalue.  ``spread`` lists those places with block j's repeated
    m_j times, the 2^n eigenvalues of the operator, and ``firsts`` where
    each block eigenvalue's repeats start in it.  ``counts`` holds m_j for
    each sector as a column.

    The "twirl" state draws a lower-triangular factor per sector into that
    stack.  ``factor`` holds the places, in the stack's real view, of the
    real diagonal entries and then of the (real, imaginary) pairs of the
    strictly-lower entries, sector after sector and row by row; ``dof`` the
    chi-square degrees of freedom 2 (m_j 2^n - i) of diagonal entry i, and
    ``weights`` 1 / m_j for each block entry b.
    """

    keys: np.ndarray
    pairs: np.ndarray
    sizes: np.ndarray
    units: np.ndarray
    reads: np.ndarray
    shape: tuple
    padded: np.ndarray
    spare: np.ndarray
    kept: np.ndarray
    spread: np.ndarray
    firsts: np.ndarray
    counts: np.ndarray
    factor: np.ndarray
    dof: np.ndarray
    weights: np.ndarray


def _multinomial(*parts) -> np.ndarray:
    """(sum of parts)! / prod(part!) elementwise, 0 where a part is negative (int64, exact)."""
    parts = np.array(np.broadcast_arrays(*parts))
    ok = (parts >= 0).all(axis=0)
    parts = np.where(ok, parts, 0)
    factorials = np.cumprod([1, *range(1, parts.sum(axis=0).max() + 1)])
    return np.where(ok, factorials[parts.sum(axis=0)] // factorials[parts].prod(axis=0), 0)


def _type_parts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (k_X, k_Y, k_Z, k_I) rows, a column per type of ``pi_types(n)``, and the class sizes
    N_k = n! / (k_X! k_Y! k_Z! k_I!), the number of entries (or strings) of each type."""
    parts = np.array([(*t, n - sum(t)) for t in pi_types(n)]).T
    return parts, _multinomial(*parts)


def _units(n: int) -> np.ndarray:
    """``units[k, b]``, the value on class k of the spin-block unit b, in closed form.

    The unit of block entry (j, m, m') is sum_c |j, c, m><j, c, m'| over the
    m_j copies, which is m_j times the twirl of |v_m><v_m'| for any one
    spin-j copy v in the standard phases.  Take v as the Dicke states on 2j
    qubits, w = j - m of them |1>, followed by P = n/2 - j singlets
    (|01> - |10>) / sqrt 2.  A singlet's bit pairs carry the types {I, Y}
    (entry 1/2) or {X, Z} (entry -1/2), so class k = (k_X, k_Y, k_Z, k_I),
    of N_k = n! / (k_X! k_Y! k_Z! k_I!) entries, meets only w = k_X + k_Y - P
    and w' = k_Y + k_Z - P, where the unit reads

        m_j / (N_k sqrt(C(2j, w) C(2j, w'))) sum_q (-1)^(P - q) C(P, q)
            (2j)! / ((k_X - P + q)! (k_Y - q)! (k_Z - P + q)! (k_I - q)!)

    over the q of the singlets of types {I, Y}.  The multinomials are exact
    in int64 for every n <= ``gf2n.MAX_N``, and no 2^n-sided array is built.
    """
    (kx, ky, kz, ki), entries = _type_parts(n)
    units = []
    for size, count in zip(*_sectors(n)):
        two_j, p = size - 1, (n + 1 - size) // 2
        sums = sum((-1) ** (p - q) * math.comb(p, q)
                   * _multinomial(kx - p + q, ky - q, kz - p + q, ki - q) for q in range(p + 1))
        # a nonzero sum has a term with every part >= 0, so 0 <= w, w' <= 2j there
        k = np.nonzero(sums)[0]
        w, w2 = kx[k] + ky[k] - p, ky[k] + kz[k] - p
        block = np.zeros((len(kx), size, size))
        block[k, w, w2] = count * sums[k] / (entries[k] * np.sqrt(
            _multinomial(w, two_j - w) * _multinomial(w2, two_j - w2)))
        units.append(block.reshape(len(kx), -1))
    return np.concatenate(units, axis=1)


@lru_cache(maxsize=None)
def _classes(n: int) -> _Classes:
    if n > _TWIRL_MAX_N:
        raise DimensionOverflowError(f"spin blocks support n <= {_TWIRL_MAX_N}, got n={n}")
    block_sizes, block_counts = _sectors(n)
    side = n + 1
    keys = type_grid(n)
    pairs = (2 * keys[..., None] + np.arange(2)).ravel()
    units = _units(n)
    copies = np.repeat(block_counts, np.square(block_sizes))
    reads = units.T / copies[:, None]
    weights = 1.0 / copies
    padded = np.concatenate([(t * side + np.arange(size)[:, None]) * side + np.arange(size)
                             for t, size in enumerate(block_sizes)], axis=None)
    spare = np.concatenate([t * side * side + np.arange(size, side) * (side + 1)
                            for t, size in enumerate(block_sizes)])
    kept = np.concatenate([t * side + np.arange(size) for t, size in enumerate(block_sizes)])
    row, col = padded // side % side, padded % side
    factor = np.concatenate([2 * padded[row == col],
                             (2 * padded[row > col, None] + [0, 1]).ravel()])
    dof = 2.0 * ((np.array(block_counts) << n)[padded // (side * side)] - row)[row == col]
    counts = np.array(block_counts, dtype=float)[:, None]
    sizes = _type_parts(n)[1][:, None].astype(float)
    reps = np.repeat(block_counts, block_sizes)
    spread = kept.repeat(reps)
    firsts = np.cumsum(reps) - reps
    for arr in (pairs, sizes, units, reads, padded, spare, kept, spread, firsts, counts, factor,
                dof, weights):
        arr.flags.writeable = False
    return _Classes(keys, pairs, sizes, units, reads, (len(block_sizes), side, side), padded,
                    spare, kept, spread, firsts, counts, factor, dof, weights)


@lru_cache(maxsize=None)
def _type_map(n: int) -> np.ndarray:
    """Read-only V[k, t], the entry of the PI operator 2^-n S_t on class k, for every n.

    A string (-i)^|z & x| Z_z X_x meets entry (r, s) only at x = r ^ s, where it
    reads (-i)^|z & x| (-1)^|z & r|: a Y factor gives i on the k_X bits and -i on
    the k_Z bits, a Z factor -1 on the k_Y bits and 1 on the k_I bits.  So V[k, t]
    is 2^-n i^t_Y K(k_X, k_Z; t_Y) K(k_I, k_Y; t_Z) if t_X + t_Y = k_X + k_Z, else
    0, with K(p, q; m) = [y^m] (1 + y)^p (1 - y)^q exact in int64.
    """
    kx, ky, kz, ki = _type_parts(n)[0]
    p, q, m, b = np.ogrid[:n + 1, :n + 1, :n + 1, :n + 1]
    krawtchouk = ((-1) ** b * _multinomial(b, q - b) * _multinomial(m - b, p - m + b)).sum(axis=-1)
    counts = krawtchouk[kx[:, None], kz[:, None], ky] * krawtchouk[ki[:, None], ky[:, None], kz]
    # i^t_Y from a table of its integer (real, imaginary) parts, so no zero of V is signed
    real, imag = np.array([[1, 0, -1, 0], [0, 1, 0, -1]])[:, None, ky % 4] * np.where(
        kx[:, None] + kz[:, None] == kx + ky, counts, 0)
    V = (real + 1j * imag) / (1 << n)
    V.flags.writeable = False
    return V


@lru_cache(maxsize=None)
def _expectation_map(n: int) -> np.ndarray:
    """Read-only E[k, t] = 2^n N_k conj(V[k, t]) / N_t, with V the ``_type_map``.

    A PI operator with class values ``means`` has Tr(rho S_t) =
    2^n sum_k N_k means[k] conj(V[k, t]), and each of the N_t strings of type
    t has the same expectation, so ``means @ E`` is that expectation per type.
    """
    sizes = _type_parts(n)[1]
    E = (1 << n) * sizes[:, None] * _type_map(n).conj() / sizes
    E.flags.writeable = False
    return E


class PIState:
    """A PI operator on n qubits, held by its C(n + 3, 3) class values.

    ``means`` is a read-only complex vector: entry k is the value of the
    operator on every entry (r, s) of class k, the Pauli type ``pi_types(n)[k]``,
    so the dense matrix is ``means[operators.type_grid(n)]`` (see the module
    docstring for who returns and reads it).  ``shape`` is that of the dense
    matrix, and ``np.asarray`` builds the dense matrix afresh on each call,
    so numpy functions and operators with an ndarray partner
    (``np.abs(mat - state)``) take it as that matrix.  It has no arithmetic
    of its own.
    """

    __slots__ = ("n", "means")

    def __init__(self, n: int, means) -> None:
        means = np.array(means, dtype=complex)
        if not n >= 1 or means.shape != (math.comb(n + 3, 3),):
            raise DimensionMismatchError(f"a PI state needs n >= 1 and C(n + 3, 3) class values, "
                                         f"got n={n!r} and shape {means.shape}")
        means.flags.writeable = False
        self.n = n
        self.means = means

    @property
    def shape(self) -> tuple[int, int]:
        return (1 << self.n, 1 << self.n)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.means[type_grid(self.n)], dtype=dtype)

    def __repr__(self) -> str:
        return f"PIState(n={self.n}, means={self.means!r})"


def _class_sums(classes: _Classes, mat) -> np.ndarray:
    """The sum of ``mat`` over each class, as (real, imaginary) rows (a ``PIState``'s means
    times the class sizes)."""
    if isinstance(mat, PIState):
        return mat.means.view(float).reshape(-1, 2) * classes.sizes
    flat = np.ascontiguousarray(mat, dtype=complex).view(float).ravel()
    return np.bincount(classes.pairs, flat, minlength=2 * len(classes.sizes)).reshape(-1, 2)


def _class_means(classes: _Classes, sums: np.ndarray) -> np.ndarray:
    """The complex mean of each class from its ``_class_sums``."""
    return (sums / classes.sizes).view(complex).ravel()


def _mean_stack(classes: _Classes, sums: np.ndarray) -> np.ndarray:
    """The mean copy blocks rho_j of a matrix with ``_class_sums`` ``sums``, zero padded to a
    (sectors, n + 1, n + 1) stack."""
    stack = np.zeros(classes.shape, dtype=complex)
    stack.ravel()[classes.padded] = (classes.reads @ sums).view(complex).ravel()
    return stack


def _from_entries(classes: _Classes, entries: np.ndarray) -> PIState:
    """The ``PIState`` sum_j sum_c rho_j from the complex entries of the rho_j, block after block."""
    values = (classes.units @ entries.view(float).reshape(-1, 2)).view(complex).ravel()
    return PIState(classes.shape[-1] - 1, values)  # the stack's side is n + 1


def _adjoint(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _finite(mat) -> bool:
    """Whether every entry of ``mat`` is finite, read on a ``PIState``'s class values."""
    return bool(np.isfinite(mat.means if isinstance(mat, PIState) else mat).all())


def _pi_means(classes: _Classes, mat: np.ndarray, tol: float) -> np.ndarray | None:
    """The mean copy blocks of ``mat`` zero padded to a (sectors, n + 1, n + 1) stack.

    None if its twirl moves an entry past ``tol`` (or NaN).
    """
    sums = _class_sums(classes, mat)
    moved = _class_means(classes, sums)[classes.keys]
    if not np.abs(np.subtract(mat, moved, out=moved)).max() <= tol:
        return None
    return _mean_stack(classes, sums)


# ----------------------------------------------------------------------
# Permutation twirl
# ----------------------------------------------------------------------

def twirl(rho) -> np.ndarray:
    """Exact average of U_pi rho U_pi^dag over the full symmetric group (n <= 8).

    A permutation moves entry (r, s) to (pi r, pi s), so the group average
    replaces each entry by the mean of its orbit, its class in
    ``type_grid``: one sum per class and one gather.
    Any square matrix of side 2^n is accepted, Hermitian or not, and no
    4^n Pauli table or basis of spin copies is formed.  A NaN entry stays
    within its own class.  A ``PIState`` is read as its dense matrix, and the
    result is always a new writable ndarray.
    """
    rho = np.asarray(rho)
    classes = _classes(qubit_count(rho))
    return _class_means(classes, _class_sums(classes, rho))[classes.keys]


def is_permutation_invariant(rho, tol: float = 1e-10) -> bool:
    """Whether ``twirl`` moves no entry of ``rho`` by more than ``tol`` (n <= 8; NaN fails).

    So ``tol`` bounds the distance to the S_n average, as the metrics' gate
    does.  A transposition moves an entry by at most twice that distance,
    and the distance is at most n - 1 times the largest such move.  A
    ``PIState`` is checked on its dense matrix, not trusted to be PI.
    """
    rho = np.asarray(rho)
    return _pi_means(_classes(qubit_count(rho)), rho, tol) is not None


# ----------------------------------------------------------------------
# PI state generation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PIStateSpec:
    """Recipe for a PI test state.

    method "twirl":  seeded random full-rank state averaged over S_n, of
                     the law of twirl(G G^dag) / tr(G G^dag) for a complex
                     Ginibre G, drawn on its spin blocks (``random_pi_state``;
                     n <= 8).
    method "dicke":  mixture of Dicke projectors with given weights
                     (one weight per excitation number 0..n).
    method "blocks": explicit spin-block densities rho_j with sector
                     probabilities p_j, each spread evenly over the m_j
                     copies of its sector, in the block convention of the
                     module docstring (n <= 8).
    """

    n: int
    method: str
    seed: int | None = None
    weights: tuple | None = None
    block_probs: tuple | None = None
    blocks: tuple | None = None

    @classmethod
    def twirl(cls, n: int, seed: int) -> "PIStateSpec":
        return cls(n=n, method="twirl", seed=seed)

    @classmethod
    def dicke(cls, n: int, weights) -> "PIStateSpec":
        return cls(n=n, method="dicke", weights=tuple(float(w) for w in weights))

    @classmethod
    def spin_blocks(cls, n: int, probs, blocks) -> "PIStateSpec":
        return cls(
            n=n,
            method="blocks",
            block_probs=tuple(float(p) for p in probs),
            blocks=tuple(np.asarray(b, dtype=complex) for b in blocks),
        )


def random_density_matrix(dim: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Seeded Ginibre density matrix (full rank unless ``rank`` given)."""
    rank = dim if rank is None else rank
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(dim: int, seed: int) -> np.ndarray:
    """Seeded Haar-like random pure state density matrix."""
    return random_density_matrix(dim, seed, rank=1)


def dicke_state(n: int, excitations: int) -> np.ndarray:
    """Symmetric equal superposition of all strings with a fixed excitation count."""
    if not 0 <= excitations <= n:
        raise ValueError(f"excitation number must lie in 0..{n}")
    dim = 1 << n
    vec = np.zeros(dim, dtype=complex)
    hits = [i for i in range(dim) if i.bit_count() == excitations]
    vec[hits] = 1.0 / math.sqrt(len(hits))
    return vec


def _check_simplex(values, what: str) -> None:
    # written as "not <=" so that NaN and inf fail the tests too
    if not all(-1e-12 <= v for v in values) or not abs(sum(values) - 1.0) <= 1e-12:
        raise ValueError(f"{what} must be nonnegative and sum to 1, got {values}")


def _check_seed(seed) -> None:
    """``ValueError`` unless ``seed`` is a nonnegative int or numpy integer (a bool is neither)."""
    if not (type(seed) is int or isinstance(seed, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def random_pi_state(spec: PIStateSpec) -> PIState:
    """Build the ``PIState`` described by ``spec`` (1 <= n <= ``gf2n.MAX_N``).

    No method builds a 2^n-sided matrix: the class values come from the spin
    blocks ("twirl", "blocks") or, for a Dicke mixture, from the weights, as
    w_k / C(n, k) on the classes with |r| = |s| = k, the products of the outer
    products of ``dicke_state``.

    The "twirl" state has the law of the S_n twirl of a Ginibre state,
    twirl(G G^dag) / tr(G G^dag) for a 2^n-sided complex Gaussian G, but it
    is drawn on the spin blocks.  The twirl keeps the mean of the m_j diagonal
    copy blocks of each sector, and those blocks of G G^dag are independent
    complex Wishart(2j + 1, 2^n), so the sum is Wishart(2j + 1, m_j 2^n):
    by the Bartlett decomposition (Goodman, Ann. Math. Stat. 34, 152
    (1963)) it is L_j L_j^dag, with L_j lower triangular, its diagonal
    entry i the root of a chi-square of 2 (m_j 2^n - i) degrees of freedom,
    and each strictly-lower entry a + ib with a, b standard normal.  Every
    copy block of the state is L_j L_j^dag / m_j over sum_t ||L_t||_F^2.
    One ``default_rng(seed)`` makes one ``chisquare`` call for every
    diagonal entry and then one ``standard_normal`` call for every (a, b)
    pair, sector after sector and row by row, so C(n + 3, 3) random numbers
    make the state.  The seed must be a nonnegative integer (``ValueError``
    otherwise), and n > 8 raises ``DimensionOverflowError``, the cap of
    ``_classes``.
    """
    n = spec.n
    # the other methods stop here; an int n > 8 of the twirl method meets the cap of
    # ``_classes`` (DimensionOverflowError)
    if not isinstance(n, int) or n < 1 or (n > MAX_N and spec.method != "twirl"):
        raise UnsupportedFieldSizeError(f"n must be an integer in 1..{MAX_N}, got {n!r}")
    if spec.method == "twirl":
        _check_seed(spec.seed)
        classes = _classes(n)
        rng = np.random.default_rng(spec.seed)
        values = np.concatenate([np.sqrt(rng.chisquare(classes.dof)),
                                 rng.standard_normal(len(classes.factor) - len(classes.dof))])
        factors = np.zeros(classes.shape, dtype=complex)
        factors.view(float).ravel()[classes.factor] = values
        sums = (factors @ _adjoint(factors)).ravel()[classes.padded]
        # values @ values is sum_t ||L_t||_F^2, the trace of the twirled Wishart matrix
        return _from_entries(classes, sums * (classes.weights / (values @ values)))
    if spec.method == "dicke":
        weights = spec.weights
        if weights is None or len(weights) != n + 1:
            raise ValueError(f"dicke method needs {n + 1} weights")
        _check_simplex(weights, "dicke weights")
        # entry (r, s) of |D_k><D_k| is amp * amp with amp = 1 / sqrt C(n, k), where
        # |r| = |s| = k, i.e. k_X = k_Z and k_X + k_Y = k
        kx, ky, kz, _ = _type_parts(n)[0]
        means = np.zeros(len(kx), dtype=complex)
        for k, w in enumerate(weights):
            if w:
                amp = 1.0 / math.sqrt(math.comb(n, k))
                means[(kx == kz) & (kx + ky == k)] = w * (amp * amp)
        return PIState(n, means)
    if spec.method == "blocks":
        classes = _classes(n)
        sides, copies = _sectors(n)
        two_js = [size - 1 for size in sides]
        probs, blocks = spec.block_probs, spec.blocks
        if probs is None or blocks is None or len(probs) != len(two_js) or len(blocks) != len(two_js):
            raise ValueError(
                f"blocks method needs {len(two_js)} sector probabilities and blocks "
                f"(sectors 2j = {two_js})"
            )
        _check_simplex(probs, "sector probabilities")
        for block, two_j in zip(blocks, two_js):
            if np.shape(block) != (two_j + 1, two_j + 1):
                raise ValueError(f"sector 2j={two_j} block must be {two_j + 1}x{two_j + 1}")
            if not is_density_matrix(np.asarray(block)):
                raise ValueError(f"sector 2j={two_j} block must be a density matrix")
        # each copy of a sector carries block / count, so every copy weighs the same
        entries = [p_j / count * np.ravel(block)
                   for p_j, block, count in zip(probs, blocks, copies)]
        return _from_entries(classes, np.concatenate(entries, dtype=complex))
    raise ValueError(f"unknown PI state method: {spec.method!r}")


# ----------------------------------------------------------------------
# Measurement simulation
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MeasurementRecord:
    """Outcome distribution of one von Neumann measurement basis.

    ``data`` holds one entry per outcome, indexed by the self-dual bitmask
    of nu: 2^n probabilities (exact record) or integer counts (sampled
    record with ``shots`` set).  Records compare by identity.
    """

    n: int
    basis: BasisLabel
    data: np.ndarray
    shots: int | None = None

    @property
    def is_sampled(self) -> bool:
        return self.shots is not None

    def frequencies(self) -> np.ndarray:
        return self.data if self.shots is None else self.data / self.shots


def exact_probabilities(rho, family: MubFamily, bases) -> list[MeasurementRecord]:
    """Born probabilities Tr(rho P_(nu,k)) for each requested basis.

    They come through each basis's stabilizer table (``mub.born_probabilities``):
    the expectations of the 2^n - 1 Pauli strings it diagonalizes, Walsh
    transformed over the ray, the inverse of ``mub.pauli_expectations``.
    A ``PIState`` gives one expectation per Pauli type, its class values
    times ``_expectation_map``; a dense ``rho`` its ``pauli_table``, built
    once.  One stacked Walsh product serves every basis; record k holds
    row k of it.  A ``rho`` of another n raises ``DimensionMismatchError``.
    """
    n = family.field.n
    if qubit_count(rho) != n:
        raise DimensionMismatchError(f"state of shape {np.shape(rho)} is not of n={n}")
    expect = (rho.means @ _expectation_map(n) if isinstance(rho, PIState) else pauli_table(rho)).real
    labels = list(bases)
    probs = born_probabilities(family, labels, expect)
    return [MeasurementRecord(n=family.field.n, basis=label, data=row)
            for label, row in zip(labels, probs)]


def sample_counts(record: MeasurementRecord, shots: int, seed: int) -> MeasurementRecord:
    """Multinomial shot-noise simulation of an exact record (seeded).

    The negative entries are clipped to 0, and the rest must have a finite
    positive sum (else ``NotNormalizedError``); they are scaled to sum to 1.
    The seed must be a nonnegative int or numpy integer and ``shots`` a
    positive one (else ``ValueError``), which the record holds as an int.
    """
    _check_seed(seed)
    if record.is_sampled:
        raise ValueError("record already holds sampled counts")
    if not (type(shots) is int or isinstance(shots, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    pvals = np.maximum(record.data, 0.0)
    total = pvals.sum()
    # written "not <" so that NaN fails the test too
    if not 0.0 < total < np.inf:
        raise NotNormalizedError(f"record of basis {record.basis!r} has no finite positive mass "
                                 f"to sample: its clipped entries sum to {float(total)}")
    counts = np.random.default_rng(seed).multinomial(shots, pvals / total)
    return MeasurementRecord(n=record.n, basis=record.basis, data=counts, shots=int(shots))


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------

def reconstruct(records, table: OrbitTable | None, family: MubFamily) -> PIState:
    """Invert measured records into a ``PIState`` estimate, at every n.

    The records, any iterable of them, must cover the minimal bases; extra
    bases are used too.  The measured Pauli expectations are fitted by
    least squares on the PI operator subspace: the coordinate of each Pauli
    type is the mean of its measured expectations, and types no record
    measures get 0, the minimum-norm solution.  It is exact for PI states
    whenever ``unmeasured_pi_types`` is empty, which holds for the minimal
    bases at n <= 4 but not at n = 5.  ``table`` is not read and may be
    None, and ``family`` needs only the recorded bases (``build_family``
    with their labels).  No physicality projection is applied here.
    """
    n = family.field.n
    labels, probs = _distributions(records, family.field)
    # one Walsh product for every basis, then one bincount per sum over types
    expect = pauli_expectations(family, labels, probs).ravel()
    types = family.plan(labels).types
    count = math.comb(n + 3, 3)
    sums = np.bincount(types, expect, minlength=count)
    hits = np.bincount(types, minlength=count)
    coords = np.divide(sums, hits, out=np.zeros(count), where=hits > 0)
    return PIState(n, _type_map(n) @ coords)


class _LabelGate(NamedTuple):
    """The record gate's verdict on a label tuple: the checks that read the labels alone.

    The records before ``stop`` have their shapes checked before ``schema``
    is raised, the order in which a record-by-record scan meets the faults.
    """

    stop: int  # one past the first slope of another n, else the record count
    schema: str | None  # SchemaError: a slope of another n, or a basis recorded twice
    missing: str | None  # MissingBasisError: minimal bases that no record holds


@lru_cache(maxsize=64)
def _label_gate(field: Field, labels: tuple) -> _LabelGate:
    """The ``_LabelGate`` of records of ``field`` with ``labels``, once per label tuple."""
    for i, label in enumerate(labels):
        foreign = foreign_slope(field, label)
        if foreign is not None:
            return _LabelGate(i + 1, foreign, None)
    stop = len(labels)
    present = set(labels)
    if len(present) < stop:
        twice = next(label for i, label in enumerate(labels) if label in labels[:i])
        return _LabelGate(stop, f"basis {twice!r} is recorded more than once", None)
    missing = [b for b in minimal_bases(field) if b not in present]
    return _LabelGate(stop, None, f"records missing required bases: {missing}" if missing else None)


def _distributions(records, field: Field) -> tuple[list, np.ndarray]:
    """The one record gate: the basis labels, and their probabilities by the bits of nu as rows.

    The outcome arrays are stacked in one conversion and divided by a column
    of shots (1 for an exact record), which gives the bits of
    ``MeasurementRecord.frequencies``.  A record of another size, a slope
    label of another n and a basis recorded twice raise ``SchemaError``,
    and records that miss a minimal basis ``MissingBasisError``, after every
    other check.  The checks on the labels alone are decided once per
    label tuple (``_label_gate``); a failed one raises on every call.
    ``records`` is read once, so an iterator serves as well as a list.
    """
    records = list(records)
    labels = [record.basis for record in records]
    gate = _label_gate(field, tuple(labels))
    shape = (field.size,)
    for record in islice(records, gate.stop):
        if np.shape(record.data) != shape:
            raise SchemaError(f"record of basis {record.basis!r} has outcome shape "
                              f"{np.shape(record.data)}, expected {shape} for n={field.n}")
    if gate.schema is not None:
        raise SchemaError(gate.schema)
    data = np.array([record.data for record in records], dtype=float).reshape(-1, field.size)
    shots = np.array([1 if record.shots is None else record.shots for record in records],
                     dtype=float)
    probs = data / shots[:, None]
    check_distributions(labels, probs)
    if gate.missing is not None:
        raise MissingBasisError(gate.missing)
    return labels, probs


# ----------------------------------------------------------------------
# PI operator subspace
# ----------------------------------------------------------------------
#
# Qubit permutations preserve the type (k_X, k_Y, k_Z) of a Pauli string
# (``operators.pi_types``), so the PI operators are spanned by the
# C(n + 3, 3) type sums.


def unmeasured_pi_types(field: Field, bases) -> list[tuple[int, int, int]]:
    """Pauli types that no monomial diagonal in ``bases`` carries.

    The PI-subspace estimator cannot see a PI state's coordinates along
    these types and sets them to zero.  An empty list means the bases are
    informationally complete for PI states.
    """
    seen = set(pauli_types(field.n, *stabilizer_masks(field, list(bases))).ravel().tolist())
    return [t for i, t in enumerate(pi_types(field.n)) if i not in seen]


def _project_to_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex.

    Adding a constant to every entry does not move the projection, and an
    entry more than 1 below the largest gets weight 0 and no say in the
    threshold.  So the entries are shifted to a largest of 0 and cut at -1
    first: k = 1 always qualifies and no partial sum overflows, and a vector
    of entries near 1e300 keeps its unit weight instead of losing the 1 to
    rounding.
    """
    shifted = np.maximum(values - values.max(), -1.0)
    desc = np.sort(shifted)[::-1]
    css = np.cumsum(desc)
    ks = np.arange(1, len(values) + 1)
    valid = desc - (css - 1.0) / ks > 0
    k = int(ks[valid][-1])
    theta = (css[k - 1] - 1.0) / k
    return np.maximum(shifted - theta, 0.0)


def project_physical(rho_hat) -> PIState:
    """Frobenius-nearest PI density matrix, as a ``PIState``, projected spin block by spin block.

    A PI operator is sum_j sum_c rho_j on the m_j spin-j copies, in the
    block convention of the module docstring.  The twirl, the orthogonal
    projector onto such operators, sets each rho_j to the mean of the m_j
    diagonal copy blocks of rho_hat, read from its class sums
    (``_classes``), and the nearest PI state is the nearest state to the twirled estimate.  The
    mean blocks are made Hermitian in one (sectors, n + 1, n + 1) stack,
    whose diagonal past each smaller block is padded above every block
    eigenvalue, so one ``eigh`` call diagonalizes every block and lists its
    spectrum first.  One simplex step (Smolin, Gambetta & Smith, PRL 108,
    070502 (2012)) acts on the block spectra with each eigenvalue counted
    m_j times, and one batched product rebuilds every block.  No 2^n-sided
    matrix is twirled, diagonalized or multiplied, and a ``PIState`` input
    is read by its class values, so none is built.
    """
    classes = _classes(qubit_count(rho_hat))
    if not _finite(rho_hat):
        raise ValueError("project_physical input must be finite")
    stack = _mean_stack(classes, _class_sums(classes, rho_hat))
    herm = stack + _adjoint(stack)
    # Gershgorin: no eigenvalue of a block exceeds its side times sqrt 2 times its largest
    # |re| or |im|, so the pad sorts after every block eigenvalue; min() keeps it finite
    largest = float(np.abs(herm.view(float)).max())
    herm.ravel()[classes.spare] = min(2.0 * herm.shape[-1] * largest + 1.0, sys.float_info.max)
    evals, evecs = np.linalg.eigh(herm)
    weights = np.zeros(evals.shape)
    weights.ravel()[classes.kept] = _project_to_simplex(evals.ravel()[classes.spread] / 2.0)[
        classes.firsts]
    blocks = (evecs * weights[:, None, :]) @ _adjoint(evecs)
    return _from_entries(classes, blocks.ravel()[classes.padded])


# ----------------------------------------------------------------------
# Quality metrics
# ----------------------------------------------------------------------

# The metrics score PI pairs on spin blocks up to n = _TWIRL_MAX_N (the cap of
# ``_classes``).  With a dense input, which must pass the PI gate, from n = 5:
# at n = 4 the blocks win the fidelity and lose the trace distance, and the
# dense path keeps its exact results there.  Two ``PIState``s need no gate and
# take the blocks from n = 4; at n = 3 the 2^n-sided eigensolves of their
# dense matrices still cost less (fidelity 87 against 96 us, trace distance
# 38 against 42 us).
_BLOCK_METRICS_MIN_N = 5
_STATE_BLOCKS_MIN_N = 4
# an operator counts as PI when no entry of it differs from its twirl, the
# mean of its class, by more than this
_PI_GATE_TOL = 1e-12


def _check_same_dim(rho, sigma) -> None:
    shape = np.shape(rho)
    if len(shape) != 2 or shape != np.shape(sigma) or shape[0] != shape[1]:
        raise DimensionMismatchError(f"incompatible shapes {shape} vs {np.shape(sigma)}")
    if not (_finite(rho) and _finite(sigma)):
        raise ValueError("metric inputs must be finite")


def _metric_stacks(*mats) -> tuple[list, np.ndarray | int]:
    """The matrices to score ``mats`` on, and how many times each counts.

    For PI operators of 4 <= n <= 8 qubits (5 <= n <= 8 with a dense one
    in ``mats``), each is the stack of its mean copy blocks, zero padded to
    (sectors, n + 1, n + 1), and block j counts m_j times (a column of the
    m_j).  A ``PIState`` gives its blocks from its class values; a dense
    operator is PI when ``_pi_means`` finds it so at ``_PI_GATE_TOL``.
    Otherwise, or if any dense operator is not PI, ``mats`` are returned as
    dense matrices, counted once.
    """
    dim = np.shape(mats[0])[0]
    n = dim.bit_length() - 1
    states = all(isinstance(mat, PIState) for mat in mats)
    low = _STATE_BLOCKS_MIN_N if states else _BLOCK_METRICS_MIN_N
    if low <= n <= _TWIRL_MAX_N and dim == 1 << n:
        classes = _classes(n)
        stacks = []
        for mat in mats:
            stack = (_mean_stack(classes, _class_sums(classes, mat)) if isinstance(mat, PIState)
                     else _pi_means(classes, mat, _PI_GATE_TOL))
            if stack is None:
                break
            stacks.append(stack)
        else:
            return stacks, classes.counts
    return [np.asarray(mat) for mat in mats], 1


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    For two PI states it is the sum over spin blocks,
    sum_j m_j Tr sqrt(sqrt(rho_j) sigma_j sqrt(rho_j)), with the block
    eigensolves batched in one stack (``_metric_stacks``): for two
    ``PIState``s for 4 <= n <= 8, and with a dense input for 5 <= n <= 8
    when it passes the PI gate (every entry within 1e-12 of the operator
    rebuilt from its blocks).  Other inputs are scored as 2^n-sided
    matrices.
    """
    _check_same_dim(rho, sigma)
    (rho_s, sigma_s), counts = _metric_stacks(rho, sigma)
    evals, evecs = np.linalg.eigh((rho_s + _adjoint(rho_s)) / 2.0)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]) @ _adjoint(evecs)
    inner = np.linalg.eigvalsh(root @ sigma_s @ root)
    # roundoff leaves eigenvalues of order eps whose square roots would
    # pollute the sum at sqrt(eps); cut them relative to the largest one
    cut = inner.max() * rho.shape[0] * np.finfo(float).eps if inner.size else 0.0
    value = (np.sqrt(np.clip(inner, 0.0, None) * (inner > cut)) * counts).sum()
    return float(min(max(value, 0.0), 1.0))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma, in [0, 1].

    The difference of two ``PIState``s is the ``PIState`` of the difference
    of their class values; with a dense input it is dense.  It is half of
    sum_j m_j sum |eig(rho_j - sigma_j)| over the spin blocks of that
    difference, in one batched eigensolve, where ``fidelity`` would read
    blocks, and else it is read from the 2^n-sided difference.
    """
    _check_same_dim(rho, sigma)
    if isinstance(rho, PIState) and isinstance(sigma, PIState):
        diff = PIState(rho.n, rho.means - sigma.means)
    else:
        diff = np.asarray(rho) - np.asarray(sigma)
    (diff,), counts = _metric_stacks(diff)
    diff = (diff + _adjoint(diff)) / 2.0
    value = 0.5 * (np.abs(np.linalg.eigvalsh(diff)) * counts).sum()
    return float(min(max(value, 0.0), 1.0))


# ----------------------------------------------------------------------
# JSON interchange for measurement records
# ----------------------------------------------------------------------

def record_to_json(record: MeasurementRecord) -> dict:
    key = "count" if record.is_sampled else "p"
    out = {
        "n": record.n,
        "basis": record.basis.to_json(),
        "data": [
            {"nu_bitmask": bits, key: value}
            for bits, value in enumerate(record.data.tolist())
        ],
    }
    if record.shots is not None:
        out["shots"] = record.shots
    return out


def record_from_json(field: Field, obj: dict) -> MeasurementRecord:
    """Parse one record for ``field``; an outcome it omits reads as 0.

    Raises ``SchemaError`` for a record of another n, shots that are not a
    positive integer, a nu_bitmask or count that is not an integer, a p that
    is not a number, and a nu_bitmask out of range or listed twice.
    """
    try:
        basis = label_from_json(field, obj["basis"])
        if json_int(obj.get("n", field.n), "n") != field.n:
            raise ValueError(f"record is for n={obj['n']!r}, expected n={field.n}")
        shots = obj.get("shots")
        if shots is not None and json_int(shots, "shots") < 1:
            raise ValueError(f"shots must be a positive integer, got {shots!r}")
        data = np.zeros(field.size, dtype=float if shots is None else int)
        listed = set()
        for item in obj["data"]:
            bits = json_int(item["nu_bitmask"], "nu_bitmask")
            if not 0 <= bits < field.size:
                raise ValueError(f"nu_bitmask {bits} out of range for n={field.n}")
            if bits in listed:
                raise ValueError(f"nu_bitmask {bits} is listed twice")
            listed.add(bits)
            data[bits] = (json_int(item["count"], "count") if shots is not None
                          else json_number(item["p"], "p"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed measurement record: {exc}") from exc
    return MeasurementRecord(n=field.n, basis=basis, data=data, shots=shots)
