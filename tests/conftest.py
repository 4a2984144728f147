"""Shared cached constructions (building a MUB family is the slow step), and
the oracles that several test files share: the field's per-element trace and
per-bit coordinate tables, the per-slope anchor gauge, the permutation
matrix of the operator and twirl tests, the transposition test for PI
operators, one representative entry per entry class and the phase-sum
type map at it, the coupled spin basis and the spin blocks read and written
by products with it, the dense Ginibre twirl that fixes the law of the
"twirl" states, the physicality projection one sector at a time, the
phase-space points of a basis, one basis's stabilizer rows and anchor
eigenvalues built alone, the Born probabilities one basis at a time,
the frame identity over a whole family, the record gate as a scan of the
records one by one, the paper's orbit expansion summed over the family,
the quality metrics computed on 2^n-sided matrices, and the producer
outputs whose dense bytes ``reference_data`` pins.

``src`` goes on ``sys.path`` and on ``PYTHONPATH``, so a bare ``pytest``
finds the package without an install, and so do the CLI subprocesses the
tests start.
"""

import hashlib
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

import numpy as np  # noqa: E402

from pimub import build_family, enumerate_orbits, make_field, orbits  # noqa: E402
from pimub.cli import _generated_state  # noqa: E402
from pimub.gf2n import _selfdual_basis  # noqa: E402
from pimub.mub import born_probabilities, family_operator, stabilizer_masks  # noqa: E402
from pimub.operators import (pauli_phase, pauli_table, pauli_types, pi_types,  # noqa: E402
                             popcounts, swap_index, walsh)
from pimub.errors import (DimensionOverflowError, MissingBasisError,  # noqa: E402
                          NotNormalizedError, SchemaError, UnsupportedFieldSizeError)
from pimub.orbits import minimal_bases  # noqa: E402
from pimub.tomography import (_TWIRL_MAX_N, _distributions, _project_to_simplex,  # noqa: E402
                              PIStateSpec, exact_probabilities, random_density_matrix,
                              random_pi_state, reconstruct, twirl)


@lru_cache(maxsize=None)
def field(n):
    return make_field(n)


@lru_cache(maxsize=None)
def family(n):
    return build_family(field(n))


@lru_cache(maxsize=None)
def orbit_table(n):
    return enumerate_orbits(field(n))


def squaring_traces(f):
    """Oracle: tr(x) = x + x^2 + ... + x^(2^(n-1)) for every x in polynomial coordinates.

    n - 1 field squarings per element, with a check that each lands in GF(2).
    """
    traces = []
    for x in range(f.size):
        t = y = x
        for _ in range(f.n - 1):
            y = f._mul_poly(y, y)
            t ^= y
        assert t in (0, 1)
        traces.append(t)
    return tuple(traces)


def product_selfdual_basis(f):
    """Oracle: the self-dual basis search run on tr(xy) from a field product per pair."""
    traces = squaring_traces(f)
    return _selfdual_basis(f.n, lambda x, y: traces[f._mul_poly(x, y)])


def per_bit_selfdual_to_poly(f):
    """Oracle: entry b is the XOR of the basis masks theta_(i+1) over the set bits i of b."""
    table = []
    for bits in range(f.size):
        x = 0
        for i in range(f.n):
            if bits >> i & 1:
                x ^= f.selfdual_basis[i]
        table.append(x)
    return tuple(table)


def _coordinates(n):
    """Row i: the self-dual coordinates (n_1 .. n_n) of the element at index i."""
    return np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1


def _multiplication_matrix(mu):
    """M[i, j] = tr(mu theta_i theta_j), so coords(alpha) @ M = coords(mu alpha) mod 2."""
    f = mu.field
    return np.array([(mu * f.element(1 << i)).coeffs() for i in range(f.n)])


def _inverse(mu):
    """mu^-1 = mu^(2^n - 2), the product of mu^(2^k) for k = 1 .. n - 1."""
    inv, power = mu.field.one(), mu
    for _ in range(mu.field.n - 1):
        power = power.square()
        inv = inv * power
    return inv


def _stabilizer_swaps(mu):
    """The qubit swaps (p, q) that fix mu: those where its self-dual coordinates p and q agree."""
    n, bits = mu.field.n, mu.bits
    return [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)
            if (bits >> (p - 1) ^ bits >> (q - 1)) & 1 == 0]


def _quadratic_form(mu):
    """Q(kappa) = kappa^T G kappa mod 4 on every index, G from field products."""
    coords = _coordinates(mu.field.n)
    gram = _multiplication_matrix(_inverse(mu))
    return np.einsum("ki,ij,kj->k", coords, gram, coords) % 4


def per_slope_invariant(f, mu):
    """Oracle: rule 1 taken literally, whether every swap that fixes mu fixes X_j c up to phase.

    One (2^n)-entry comparison of Q(pi j + s) - Q(j) per swap pi and shift s.
    """
    n, dim = f.n, f.size
    quad = _quadratic_form(mu)
    invariant = np.ones(dim, dtype=bool)
    for p, q in _stabilizer_swaps(mu):
        perm = swap_index(n, p, q)
        holds = []
        for s in (0, 1 << (n - p) | 1 << (n - q)):
            ratio = (quad[perm ^ s] - quad) % 4
            holds.append((ratio == ratio[0]).all())
        invariant &= np.where(perm == np.arange(dim), *holds)
    return invariant


def per_slope_exponents(f, mu):
    """Oracle: the anchor exponents of one slope mu != 0, the gauge rules taken literally.

    Field products for the Gram and multiplication matrices, each rule on a
    (candidates x 2^n) array, and a stable lexsort of the phase-fixed
    (re, im) components for rule 3.
    """
    n, dim = f.n, f.size
    coords = _coordinates(n)
    quad = _quadratic_form(mu)
    candidates = np.arange(dim)

    # 1) candidates fixed (up to phase) by every slope-stabilizing swap, if any
    invariant = per_slope_invariant(f, mu)
    if invariant.any():
        candidates = candidates[invariant]

    # 2) most +1 eigenvalues on the Hermitian monomials, tr(mu alpha^2) = 0
    mult = _multiplication_matrix(mu)
    hermitian = coords @ np.diag(mult) % 2 == 0
    hermitian[0] = False
    a = np.flatnonzero(hermitian)
    b = (coords[a] @ mult % 2) @ (1 << np.arange(n - 1, -1, -1))
    eigen = quad[b][:, None] + 2 * popcounts(dim)[a[:, None] & candidates]
    scores = (eigen % 4 == 0).sum(axis=0)
    candidates = candidates[scores == scores.max()]

    # 3) smallest (re, im) component sequence once component 0 is made real
    fixed = (quad[candidates[:, None] ^ np.arange(dim)] - quad[candidates, None]) % 4
    keys = np.array([1.0, 1.0j, -1.0, -1.0j])[fixed].view(float)  # row: re, im of each component
    return fixed[np.lexsort(keys.T[::-1])[0]]


def stabilizer_points(f, label):
    """Oracle: the points (a, b) whose monomials Z_a X_b the basis diagonalizes.

    Listed by ray parameter alpha, in field order: (alpha, mu alpha) on the
    slope-mu ray, (0, alpha) on the vertical ray.
    """
    if label.is_vertical:
        return [(f.zero(), a) for a in f.elements()]
    return [(a, label.slope * a) for a in f.elements()]


def label_table(fam, label):
    """Oracle: (z, x, types, eigenvalues) of one basis, built alone with no cache.

    The ``mub.stabilizer_masks`` row of the basis, its Pauli types and the
    anchor's eigenvalue on each, read at entry 0 of the anchor, where every
    anchor is nonzero.
    """
    anchor = fam.anchor(label)
    (z,), (x,) = stabilizer_masks(fam.field, [label])
    n = fam.field.n
    return z, x, pauli_types(n, z, x), (pauli_phase(n, z, x) * anchor[x] / anchor[0]).real


def looped_born_probabilities(fam, labels, expect):
    """Oracle: the Born probabilities of each basis in ``labels`` from its own Walsh product."""
    rows = []
    for label in labels:
        z, x, _, eigenvalues = label_table(fam, label)
        rows.append(walsh(fam.field.size) @ (eigenvalues * expect[x, z]) / fam.field.size)
    return np.array(rows)


def looped_record_gate(records, f):
    """Oracle: the record gate as a scan of the records, row by row, with no cached verdict.

    In order: each record's outcome shape and then its slope's n, record by
    record; a basis recorded twice; each row's sum and then its least entry,
    row by row; the minimal bases.  Raises the first fault, as
    ``tomography.reconstruct`` must.
    """
    labels = [record.basis for record in records]
    shape = (f.size,)
    for record in records:
        if np.shape(record.data) != shape:
            raise SchemaError(f"record of basis {record.basis!r} has outcome shape "
                              f"{np.shape(record.data)}, expected {shape} for n={f.n}")
        slope = record.basis.slope
        if slope is not None and slope.field.n != f.n:
            raise SchemaError(f"basis {record.basis!r} is a slope of n={slope.field.n}, "
                              f"not of the family's n={f.n}")
    if len(set(labels)) < len(labels):
        twice = next(label for i, label in enumerate(labels) if label in labels[:i])
        raise SchemaError(f"basis {twice!r} is recorded more than once")
    for record in records:
        row = np.asarray(record.data, dtype=float) / (1 if record.shots is None else record.shots)
        total, low = float(row.sum()), float(row.min())
        if not abs(total - 1.0) <= 1e-9:
            raise NotNormalizedError(f"measured basis {record.basis!r} sums to {total!r}, "
                                     f"expected 1")
        if low < -1e-9:
            raise NotNormalizedError(f"measured basis {record.basis!r} has an entry {low!r} "
                                     f"below 0")
    missing = [b for b in minimal_bases(f) if b not in set(labels)]
    if missing:
        raise MissingBasisError(f"records missing required bases: {missing}")


def reconstruct_identity_check(fam, rho):
    """Oracle: sum_(k,nu) Tr(rho P_(nu,k)) P_(nu,k) - identity over every basis of ``fam``.

    For a valid family this reproduces rho exactly (up to roundoff) for any
    density matrix: the sum over each basis is a pinching, and the 2^n + 1
    pinchings of a mutually unbiased family tile the operator space.
    """
    labels = fam.labels()
    return family_operator(fam, labels, born_probabilities(fam, labels, pauli_table(rho).real))


# The estimates of records that the estimator tests run: the PI-subspace fit
# (``reconstruct``), and the paper's orbit expansion summed over the family, each
# orbit carrying its representative (``orbits.expand_probabilities``, the check of
# ``pimub verify``) or the mean of its measured points (a rule kept only here).
ESTIMATES = ("pi-subspace", "representative", "average")


def expand_orbits(table, labels, probs, rule="representative"):
    """The orbit expansion of the distributions ``probs`` of ``labels`` to ``table.labels``.

    "representative" is ``orbits.expand_probabilities``.  "average" runs its
    checks and then gives each orbit the mean of its measured points, summed
    in label-key order, so the input row order does not move a bit.
    """
    expanded = orbits.expand_probabilities(table, labels, probs)
    if rule == "representative":
        return expanded
    rows = np.array([orbits._row(label, 1 << table.n) for label in labels], dtype=np.intp)
    order = np.argsort(rows)
    ids = table.ids[rows[order]].ravel()
    count = len(table.orbits)
    mean = np.bincount(ids, np.asarray(probs, dtype=float)[order].ravel(), minlength=count)
    return (mean / np.bincount(ids, minlength=count))[table.ids]


def orbit_estimate(fam, table, labels, probs, rule="representative"):
    """sum_(k,nu) p_(nu,k) P_(nu,k) - identity over the orbit expansion of ``probs``.

    With the representative rule this is the estimate whose minimal-basis
    round trip ``pimub verify`` checks; it is exact only for n <= 2.
    """
    return family_operator(fam, table.labels, expand_orbits(table, labels, probs, rule))


def estimate(records, table, fam, name):
    """The estimate ``name`` (one of ``ESTIMATES``) of ``records``, read through the record gate."""
    if name == "pi-subspace":
        return reconstruct(records, table, fam)
    return orbit_estimate(fam, table, *_distributions(records, fam.field), name)


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
    rho = np.asarray(rho)
    n = rho.shape[0].bit_length() - 1
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            perm = swap_index(n, p, q)
            if np.abs(rho - rho[np.ix_(perm, perm)]).max() > tol:
                return False
    return True


class CoupledBasis(NamedTuple):
    """The coupled spin basis of n qubits, sectors in ``spin_values`` order.

    ``matrix`` is real orthogonal.  Its columns run sector by sector, within
    a sector copy by copy, and within a copy over |j, m> for m = j .. -j.
    ``sizes`` holds 2j + 1 and ``counts`` the multiplicity of each sector.
    """

    matrix: np.ndarray
    sizes: tuple
    counts: tuple


@lru_cache(maxsize=None)
def coupled_basis(n):
    """Oracle: read-only ``CoupledBasis``, qubits 1 .. n coupled in sequence, |0> as spin up.

    Each step couples a spin-j copy, d = 2j + 1 columns |i> (m = j - i), to
    one more qubit, the next less significant bit, with the spin-1/2
    Clebsch-Gordan coefficients.  Column i of the new copies reads

        j + 1/2:   sqrt((d - i) / d) |i>|0>     + sqrt(i / d) |i - 1>|1>
        j - 1/2:  -sqrt((i + 1) / d) |i + 1>|0> + sqrt((d - 1 - i) / d) |i>|1>

    and a sector lists the copies coupled up from j - 1/2 before those
    coupled down from j + 1/2.  Every copy is in the standard phases, so the
    products with it are the U-product oracle of the spin-block maps.
    """
    if n < 1:
        raise UnsupportedFieldSizeError(f"spin blocks need n >= 1, got n={n}")
    if n > _TWIRL_MAX_N:
        raise DimensionOverflowError(f"spin blocks support n <= {_TWIRL_MAX_N}, got n={n}")
    sectors = {1: np.ones((1, 1, 1))}  # size -> copies as [row, copy, i]
    for _ in range(n):
        grown = {}
        for d, old in sorted(sectors.items()):
            i = np.arange(d)
            up = np.zeros((old.shape[0], 2, old.shape[1], d + 1))
            up[:, 0, :, :d] = old * np.sqrt((d - i) / d)
            up[:, 1, :, 1:] = old * np.sqrt((i + 1) / d)
            grown.setdefault(d + 1, []).append(up)
            if d > 1:
                down = np.empty((old.shape[0], 2, old.shape[1], d - 1))
                down[:, 0] = old[..., 1:] * -np.sqrt(i[1:] / d)
                down[:, 1] = old[..., :-1] * np.sqrt((d - 1 - i[:-1]) / d)
                grown.setdefault(d - 1, []).append(down)
        sectors = {d: np.concatenate([c.reshape(2 * c.shape[0], c.shape[2], d) for c in parts],
                                     axis=1)
                   for d, parts in grown.items()}
    sizes = tuple(sorted(sectors, reverse=True))
    matrix = np.concatenate([sectors[d].reshape(1 << n, -1) for d in sizes], axis=1)
    matrix.flags.writeable = False
    return CoupledBasis(matrix, sizes, tuple(sectors[d].shape[1] for d in sizes))


def _representatives(n):
    """Per class (k_X, k_Y, k_Z), r = the low k_X + k_Y bits; s = their low k_Y and k_Z above."""
    kx, ky, kz = np.array(pi_types(n)).T
    return (1 << (kx + ky)) - 1, (1 << ky) - 1 | ((1 << kz) - 1) << (kx + ky)


def phase_sum_type_map(n):
    """Oracle: V[k, t], the entry of 2^-n S_t at class k's representative, as a phase sum.

    Entry (r, s) of a string (-i)^|z & x| Z_z X_x is (-i)^|z & x| (-1)^|z & r|
    for x = r ^ s; row k sums those by type over the 2^n masks z.
    """
    dim = 1 << n
    r, s = _representatives(n)
    count, index = len(r), np.arange(dim)
    x = (r ^ s)[:, None]
    values = pauli_phase(n, index, x) * walsh(dim)[r]
    cells = (np.arange(count)[:, None] * count + pauli_types(n, index, x)).ravel()
    V = (np.bincount(cells, values.real.ravel(), count * count)
         + 1j * np.bincount(cells, values.imag.ravel(), count * count)).reshape(count, count) / dim
    return V


def coupled_units(n):
    """Oracle: units[k, b], the entry of U (1_(m_j) (x) |m><m'|) U^T at class k's
    representative, from the copy columns of U at its two masks."""
    u, sizes, counts = coupled_basis(n)
    r, s = _representatives(n)
    units, start = [], 0
    for size, count in zip(sizes, counts):
        span = slice(start, start + size * count)
        copies_r = u[r, span].reshape(-1, count, size)
        copies_s = u[s, span].reshape(-1, count, size)
        units.append((copies_r.swapaxes(1, 2) @ copies_s).reshape(len(r), -1))
        start = span.stop
    return np.concatenate(units, axis=1)


def coupled_mean_blocks(mat):
    """Oracle: for each sector, the mean of the m_j diagonal copy blocks of U^T mat U."""
    u, sizes, counts = coupled_basis(mat.shape[0].bit_length() - 1)
    rotated = u.T @ mat @ u
    blocks, start = [], 0
    for size, count in zip(sizes, counts):
        copies = [slice(start + c * size, start + (c + 1) * size) for c in range(count)]
        blocks.append(sum(rotated[copy, copy] for copy in copies) / count)
        start += size * count
    return blocks


def coupled_from_blocks(n, blocks):
    """Oracle: U (+)_j (1_(m_j) (x) blocks[j]) U^T, the block sum built as a 2^n-sided matrix."""
    u, sizes, counts = coupled_basis(n)
    inner = np.zeros((2**n, 2**n), dtype=complex)
    start = 0
    for size, count, block in zip(sizes, counts, blocks):
        for c in range(count):
            copy = slice(start + c * size, start + (c + 1) * size)
            inner[copy, copy] = block
        start += size * count
    return u @ inner @ u.T


def ginibre_twirl_state(n, seed):
    """Oracle: the S_n twirl of a seeded 2^n-sided Ginibre density matrix.

    Its law is the law of the "twirl" states of ``random_pi_state``, which
    draw only the spin blocks.
    """
    return twirl(random_density_matrix(1 << n, seed))


def looped_projection(rho_hat):
    """Oracle: the nearest PI state, one eigensolve per sector on the U-product blocks.

    Each mean block is made Hermitian and diagonalized on its own, and one
    simplex step acts on the spectra with each eigenvalue counted m_j times.
    """
    n = rho_hat.shape[0].bit_length() - 1
    counts = coupled_basis(n).counts
    solved = [np.linalg.eigh(block + block.conj().T) for block in coupled_mean_blocks(rho_hat)]
    spectrum = np.concatenate([evals for evals, _ in solved]) / 2.0
    reps = np.repeat(counts, [len(evals) for evals, _ in solved])
    weights = _project_to_simplex(spectrum.repeat(reps))[np.cumsum(reps) - reps]
    blocks, start = [], 0
    for _, evecs in solved:
        stop = start + len(evecs)
        blocks.append((evecs * weights[start:stop]) @ evecs.conj().T)
        start = stop
    return coupled_from_blocks(n, blocks)


def dense_fidelity(rho, sigma):
    """Oracle: Uhlmann fidelity from two 2^n-sided eigensolves, whatever the input."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    evals, evecs = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    root = (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    inner = np.linalg.eigvalsh(root @ sigma @ root)
    cut = inner.max() * rho.shape[0] * np.finfo(float).eps if inner.size else 0.0
    value = np.sqrt(np.clip(inner, 0.0, None) * (inner > cut)).sum()
    return float(min(max(value, 0.0), 1.0))


def dense_trace_distance(rho, sigma):
    """Oracle: half the trace norm of the Hermitian part of rho - sigma, 2^n-sided."""
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    diff = rho - sigma
    diff = (diff + diff.conj().T) / 2.0
    value = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()
    return float(min(max(value, 0.0), 1.0))


def dense_digest(mat):
    """sha256 of the bytes of ``np.asarray(mat)`` as a C-ordered complex array."""
    return hashlib.sha256(np.ascontiguousarray(np.asarray(mat), dtype=complex).tobytes()).hexdigest()


def pinned_outputs():
    """(key, output) of the producer calls whose dense bytes ``reference_data`` pins.

    ``random_pi_state`` of each method for n = 1..8 and two seeds, through
    the CLI's state generator, and ``reconstruct`` of exact minimal-basis
    records for n = 1..9.  The records come from the dense matrix of a
    seeded twirl state (n <= 8) or Dicke mixture (n = 9), measured on the
    dense path, so they do not depend on the state's type.
    """
    for method in ("twirl", "dicke", "blocks"):
        for n in range(1, _TWIRL_MAX_N + 1):
            for seed in (n, 100 + n):
                yield f"{method} n={n} seed={seed}", _generated_state(n, method, seed)
    for n in range(1, _TWIRL_MAX_N + 2):
        if n <= _TWIRL_MAX_N:
            rho = random_pi_state(PIStateSpec.twirl(n, n))
        else:
            weights = np.random.default_rng(n).dirichlet(np.ones(n + 1))
            rho = random_pi_state(PIStateSpec.dicke(n, weights))
        bases = minimal_bases(field(n))
        fam = build_family(field(n), bases)
        records = exact_probabilities(np.array(rho), fam, bases)
        yield f"reconstruct n={n}", reconstruct(records, None, fam)
