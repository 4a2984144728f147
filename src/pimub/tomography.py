"""Permutationally invariant test states, measurement simulation, inversion.

A permutationally invariant (PI) n-qubit state decomposes over total-spin
sectors j = j_min .. n/2 as a direct sum of spin blocks rho_j tensored with
maximally mixed multiplicity factors; its free real parameter count is
sum_j (2j+1)^2 - 1.  This module generates such states (exact twirl, Dicke
mixtures, explicit spin blocks for n <= 3), simulates von Neumann
measurements in the MUB family exactly or with multinomial shot noise,
inverts measured probabilities back to a density matrix, and projects noisy
estimates to the physical PI set.

A measurement record holds its outcomes as one array indexed by the
self-dual bits of nu, from simulation (``exact_probabilities``,
``sample_counts``) to inversion; ``record_from_json`` is the one place an
outcome key is read and range-checked.  Every inversion reads records
through one gate, ``_distributions``.
Both directions of the measurement map go through one cached table per
basis, ``mub.stabilizer_table``: the 2^n Pauli strings, identity included,
that the basis diagonalizes.  Simulation reads their expectations off the
state and Walsh transforms them into Born probabilities
(``mub.born_probabilities``).  Every inversion Walsh transforms
distributions back into the same expectations (``mub.pauli_expectations``)
and assembles the estimate from them with ``operators.pauli_operator``; no
basis is expanded.

The default inversion is least squares on the PI operator subspace.  Each
measured basis is the joint eigenbasis of 2^n - 1 Pauli monomials, so its
distribution gives their expectations, and for a PI state the expectation
of a Pauli string depends only on its type (k_X, k_Y, k_Z).  The fit is the
mean of the measured expectations per type.  With the n + 2 minimal bases it
is exact for n <= 4.  At n = 5 the bases carry no monomial of the types
(1, 4, 0) and (4, 1, 0), so the measurement is not informationally complete
for PI states in this field presentation, and those two coordinates are set
to zero (see ``unmeasured_pi_types``).  The paper's orbit expansion
(``orbits.expand_probabilities``) stays available as the modes
"representative" and "average"; it is exact only for n <= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidSpinError,
    MissingBasisError,
    SchemaError,
)
from .gf2n import Field
from .mub import (
    BasisLabel,
    MubFamily,
    born_probabilities,
    check_distributions,
    family_operator,
    label_from_json,
    pauli_expectations,
    stabilizer_table,
)
from .operators import pauli_operator, pauli_types, pi_types, swap_index
from .orbits import OrbitTable, expand_probabilities, minimal_bases

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


# ----------------------------------------------------------------------
# Permutation twirl
# ----------------------------------------------------------------------

def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim != 1 << n or n < 1:
        raise DimensionMismatchError(f"matrix dimension {dim} is not 2^n")
    return n


def twirl(rho: np.ndarray) -> np.ndarray:
    """Exact average of U_pi rho U_pi^dag over the full symmetric group.

    Uses the coset recursion S_k = union_i (i k) S_(k-1): after the step at
    level k the matrix equals the exact S_k average, so n - 1 levels of at
    most n swaps replace the n! term sum.
    """
    n = _qubit_count(rho.shape[0])
    if n > _TWIRL_MAX_N:
        raise DimensionOverflowError(f"twirl supports n <= {_TWIRL_MAX_N}, got n={n}")
    out = np.array(rho, dtype=complex)
    for k in range(2, n + 1):
        acc = out.copy()
        for i in range(1, k):
            perm = swap_index(n, i, k)
            acc += out[np.ix_(perm, perm)]
        out = acc / k
    return out


def is_permutation_invariant(rho: np.ndarray, tol: float = 1e-10) -> bool:
    n = _qubit_count(rho.shape[0])
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            perm = swap_index(n, p, q)
            if np.abs(rho - rho[np.ix_(perm, perm)]).max() > tol:
                return False
    return True


# ----------------------------------------------------------------------
# PI state generation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PIStateSpec:
    """Recipe for a PI test state.

    method "twirl":  seeded random full-rank state averaged over S_n.
    method "dicke":  mixture of Dicke projectors with given weights
                     (one weight per excitation number 0..n).
    method "blocks": explicit spin-block densities rho_j with sector
                     probabilities p_j (hand-coded couplings, n <= 3).
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
    rng = np.random.default_rng(seed)
    rank = dim if rank is None else rank
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
    if any(v < -1e-12 for v in values) or abs(sum(values) - 1.0) > 1e-12:
        raise ValueError(f"{what} must be nonnegative and sum to 1, got {values}")


def _block_isometries(n: int) -> dict:
    """Isometries onto each spin-j copy, keyed by 2j (hand-coded, n <= 3).

    Column m of each isometry is |j, m> for m = j .. -j, with |0> as spin-up.
    Copies of the same j are orthonormal coupled bases, so mixing a block
    uniformly over its copies commutes with every qubit permutation.
    """
    s2, s3, s6, s23 = map(math.sqrt, (2.0, 3.0, 6.0, 2.0 / 3.0))
    if n == 1:
        return {1: [np.eye(2, dtype=complex)]}
    if n == 2:
        triplet = np.zeros((4, 3), dtype=complex)
        triplet[0b00, 0] = 1.0
        triplet[0b01, 1] = triplet[0b10, 1] = 1.0 / s2
        triplet[0b11, 2] = 1.0
        singlet = np.zeros((4, 1), dtype=complex)
        singlet[0b01, 0], singlet[0b10, 0] = 1.0 / s2, -1.0 / s2
        return {2: [triplet], 0: [singlet]}
    if n == 3:
        quartet = np.zeros((8, 4), dtype=complex)
        quartet[0b000, 0] = 1.0
        for i in (0b001, 0b010, 0b100):
            quartet[i, 1] = 1.0 / s3
        for i in (0b011, 0b101, 0b110):
            quartet[i, 2] = 1.0 / s3
        quartet[0b111, 3] = 1.0
        # copy A: qubits 1,2 coupled to a singlet
        copy_a = np.zeros((8, 2), dtype=complex)
        copy_a[0b010, 0], copy_a[0b100, 0] = 1.0 / s2, -1.0 / s2
        copy_a[0b011, 1], copy_a[0b101, 1] = 1.0 / s2, -1.0 / s2
        # copy B: qubits 1,2 coupled to a triplet, then down to j = 1/2
        copy_b = np.zeros((8, 2), dtype=complex)
        copy_b[0b001, 0] = s23
        copy_b[0b010, 0] = copy_b[0b100, 0] = -1.0 / s6
        copy_b[0b011, 1] = copy_b[0b101, 1] = 1.0 / s6
        copy_b[0b110, 1] = -s23
        return {3: [quartet], 1: [copy_a, copy_b]}
    raise DimensionOverflowError(f"explicit spin blocks are hand-coded for n <= 3, got n={n}")


def random_pi_state(spec: PIStateSpec) -> np.ndarray:
    """Build the PI density matrix described by ``spec``."""
    n, dim = spec.n, 1 << spec.n
    if spec.method == "twirl":
        if n > _TWIRL_MAX_N:
            raise DimensionOverflowError(f"twirl method requires n <= {_TWIRL_MAX_N}")
        if spec.seed is None:
            raise ValueError("twirl method requires a seed")
        return twirl(random_density_matrix(dim, spec.seed))
    if spec.method == "dicke":
        weights = spec.weights
        if weights is None or len(weights) != n + 1:
            raise ValueError(f"dicke method needs {n + 1} weights")
        _check_simplex(weights, "dicke weights")
        rho = np.zeros((dim, dim), dtype=complex)
        for k, w in enumerate(weights):
            if w:
                vec = dicke_state(n, k)
                rho += w * np.outer(vec, vec.conj())
        return rho
    if spec.method == "blocks":
        isometries = _block_isometries(n)
        two_js = sorted(isometries, reverse=True)
        probs, blocks = spec.block_probs, spec.blocks
        if probs is None or blocks is None or len(probs) != len(two_js) or len(blocks) != len(two_js):
            raise ValueError(
                f"blocks method needs {len(two_js)} sector probabilities and blocks "
                f"(sectors 2j = {two_js})"
            )
        _check_simplex(probs, "sector probabilities")
        rho = np.zeros((dim, dim), dtype=complex)
        for p_j, block, two_j in zip(probs, blocks, two_js):
            block = np.asarray(block, dtype=complex)
            if block.shape != (two_j + 1, two_j + 1):
                raise ValueError(f"sector 2j={two_j} block must be {two_j + 1}x{two_j + 1}")
            copies = isometries[two_j]
            for iso in copies:
                rho += (p_j / len(copies)) * (iso @ block @ iso.conj().T)
        return rho
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


def exact_probabilities(rho: np.ndarray, family: MubFamily, bases) -> list[MeasurementRecord]:
    """Born probabilities Tr(rho P_(nu,k)) for each requested basis.

    They come through the basis's stabilizer table (``mub.born_probabilities``):
    the expectations of the 2^n - 1 Pauli strings it diagonalizes, Walsh
    transformed over the ray, the inverse of ``mub.pauli_expectations``.
    """
    n = family.field.n
    return [
        MeasurementRecord(n=n, basis=label, data=born_probabilities(family, label, rho))
        for label in bases
    ]


def sample_counts(record: MeasurementRecord, shots: int, seed: int) -> MeasurementRecord:
    """Multinomial shot-noise simulation of an exact record (seeded)."""
    if record.is_sampled:
        raise ValueError("record already holds sampled counts")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    pvals = np.maximum(record.data, 0.0)
    counts = np.random.default_rng(seed).multinomial(shots, pvals / pvals.sum())
    return MeasurementRecord(n=record.n, basis=record.basis, data=counts, shots=shots)


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------

PI_SUBSPACE = "pi-subspace"
RECONSTRUCT_MODES = (PI_SUBSPACE, "representative", "average")


def reconstruct(
    records,
    table: OrbitTable,
    family: MubFamily,
    mode: str = PI_SUBSPACE,
) -> np.ndarray:
    """Invert measured records into a density-matrix estimate.

    The records must cover the minimal bases; extra bases are used too.
    ``mode`` "pi-subspace" (the default) fits the measured Pauli
    expectations by least squares on the PI operator subspace: the
    coordinate of each Pauli type is the mean of its measured expectations,
    and types no record measures get 0, the minimum-norm solution.  It is
    exact for PI states whenever ``unmeasured_pi_types`` is empty, which
    holds for the minimal bases at n <= 4 but not at n = 5.  ``table`` is
    not read in this mode.

    ``mode`` "representative" or "average" is the orbit expansion: the
    distributions are propagated to the full family along label orbits
    (``expand_probabilities`` with that mode) and summed through
    rho = sum_(k,nu) p_(nu,k) P_(nu,k) - identity (``mub.family_operator``).
    Qubit swaps do not map the family to itself for n >= 3, so this is exact
    only for n <= 2.

    No physicality projection is applied here.
    """
    field = family.field
    distributions = _distributions(records, field)
    missing = [b for b in minimal_bases(field) if b not in distributions]
    if missing:
        raise MissingBasisError(f"records missing required bases: {missing}")

    if mode == PI_SUBSPACE:
        count = len(pi_types(field.n))
        sums, hits = np.zeros(count), np.zeros(count)
        for label, probs in distributions.items():
            types = stabilizer_table(field, label).types
            np.add.at(sums, types, pauli_expectations(family, label, probs))
            np.add.at(hits, types, 1)
        coords = np.divide(sums, hits, out=np.zeros(count), where=hits > 0)
        masks = np.arange(field.size)
        return pauli_operator(field.n, coords[pauli_types(field.n, masks, masks[:, None])])

    return family_operator(family, expand_probabilities(distributions, table, mode))


def _distributions(records, field: Field) -> dict:
    """The one record gate: {basis label: probabilities by the bits of nu}."""
    labels = [record.basis for record in records]
    probs = np.zeros((len(labels), field.size))
    for row, record in zip(probs, records):
        if np.shape(record.data) != row.shape:
            raise SchemaError(f"record of basis {record.basis!r} has outcome shape "
                              f"{np.shape(record.data)}, expected {row.shape} for n={field.n}")
        row[:] = record.frequencies()
    distributions = dict(zip(labels, probs))
    if len(distributions) < len(labels):
        twice = next(label for i, label in enumerate(labels) if label in labels[:i])
        raise SchemaError(f"basis {twice!r} is recorded more than once")
    check_distributions(labels, probs)
    return distributions


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
    seen: set[int] = set()
    for label in bases:
        seen.update(stabilizer_table(field, label).types.tolist())
    return [t for i, t in enumerate(pi_types(field.n)) if i not in seen]


def _project_to_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    desc = np.sort(values)[::-1]
    css = np.cumsum(desc)
    ks = np.arange(1, len(values) + 1)
    valid = desc - (css - 1.0) / ks > 0
    k = int(ks[valid][-1])
    theta = (css[k - 1] - 1.0) / k
    return np.maximum(values - theta, 0.0)


def project_physical(rho_hat: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PI density matrix: twirl, then simplex projection of the spectrum.

    The twirl is the orthogonal projector onto PI operators, so the nearest
    PI state is the nearest state to the twirled estimate.  The simplex step
    (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)) keeps the
    eigenvectors, so it commutes with every qubit permutation.
    """
    evals, evecs = np.linalg.eigh(twirl((rho_hat + rho_hat.conj().T) / 2.0))
    return (evecs * _project_to_simplex(evals)) @ evecs.conj().T


# ----------------------------------------------------------------------
# Quality metrics
# ----------------------------------------------------------------------

def _check_same_dim(rho: np.ndarray, sigma: np.ndarray) -> None:
    if rho.shape != sigma.shape or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"incompatible shapes {rho.shape} vs {sigma.shape}")


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    _check_same_dim(rho, sigma)
    evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = np.linalg.eigvalsh(root @ sigma @ root)
    # roundoff leaves eigenvalues of order eps whose square roots would
    # pollute the sum at sqrt(eps); cut them relative to the largest one
    cut = inner.max() * rho.shape[0] * np.finfo(float).eps if inner.size else 0.0
    value = np.sqrt(np.clip(inner, 0.0, None) * (inner > cut)).sum()
    return float(min(max(value, 0.0), 1.0))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma, in [0, 1]."""
    _check_same_dim(rho, sigma)
    diff = rho - sigma
    diff = (diff + diff.conj().T) / 2.0
    value = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
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
    positive integer, and a nu_bitmask out of range or listed twice.
    """
    try:
        basis = label_from_json(field, obj["basis"])
        if obj.get("n", field.n) != field.n:
            raise ValueError(f"record is for n={obj['n']!r}, expected n={field.n}")
        shots = obj.get("shots")
        if shots is not None and (type(shots) is not int or shots < 1):
            raise ValueError(f"shots must be a positive integer, got {shots!r}")
        data = np.zeros(field.size, dtype=float if shots is None else int)
        listed = set()
        for item in obj["data"]:
            bits = int(item["nu_bitmask"])
            if not 0 <= bits < field.size:
                raise ValueError(f"nu_bitmask {bits} out of range for n={field.n}")
            if bits in listed:
                raise ValueError(f"nu_bitmask {bits} is listed twice")
            listed.add(bits)
            data[bits] = int(item["count"]) if shots is not None else float(item["p"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed measurement record: {exc}") from exc
    return MeasurementRecord(n=field.n, basis=basis, data=data, shots=shots)
