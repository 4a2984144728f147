"""Construction of the 2^n + 1 mutually unbiased bases from phase-space rays.

For each slope ``mu`` the monomials { Z_alpha X_(mu alpha) } commute pairwise,
so they share an eigenbasis; that eigenbasis is the slope-``mu`` measurement
basis, with vectors labeled |nu, mu> = X_nu |anchor(mu)>.  The slope mu = 0
gives the computational basis exactly, and one extra basis of infinite slope
(the Fourier image of the computational basis) completes the family.

The slope bases have a closed form (Wootters & Fields, Ann. Phys. 191, 363
(1989); Gibbons, Hoffman & Wootters, PRA 70, 062101 (2004)).  For mu != 0
let G_ij = tr(mu^-1 theta_i theta_j) and Q(kappa) = kappa^T G kappa, taken
over the integers on the self-dual bits of kappa.  Then

    c(kappa) = i^(Q(kappa) mod 4) / sqrt(2^n)

is a joint eigenvector of the slope-mu monomials.  Let beta = mu alpha.  As
integer vectors the field sum kappa + beta differs from the integer sum by
-2 (kappa AND beta), which moves Q by multiples of 4, so mod 4
Q(kappa + beta) = Q(kappa) + 2 kappa^T G beta + Q(beta).  Mod 2,
kappa^T G beta = tr(mu^-1 kappa mu alpha) = tr(alpha kappa), which cancels
the sign (-1)^tr(alpha kappa) of Z_alpha, and the eigenvalue is
i^Q(mu alpha).  The 2^n shifts X_j c are the whole eigenbasis.

Which shift is the anchor |0, mu> is fixed by a deterministic gauge:

1. restrict to candidates invariant under every qubit transposition that
   fixes the slope label (when any exist) -- this is what allows the
   label-level swap covariance to hold where it can hold at all;
2. among those, prefer eigenvalue +1 on the Hermitian monomials of the set;
3. break remaining ties lexicographically on the components, after fixing
   the overall phase so that component 0 is real and positive.

Every candidate is i^k / sqrt(2^n) exactly, so the gauge runs on the
integer exponents k, for all the slopes of a family in one pass.  The
multiplication matrix of mu is GF(2)-linear in mu, so every slope's matrix
is an XOR of the field's n^2 basis products, and its span by doubling is
the map a -> mu a on every index.  G, the map of mu^-1, is that map's
inverse permutation, one scatter.  No field product is made per slope.  The arrays are held as (2^n, slopes), so
every block of indices is contiguous, and the Walsh butterflies of rule 2
run over runs of whole blocks.

Rule 1 reads two rows of G per swap.  A qubit swap pi fixes mu when mu's
coordinates on its two qubits agree; it is linear on indices, so
pi X_j c = X_(pi j) pi c, and X_j c is fixed up to phase iff X_s pi c is
proportional to c, s = j + pi j.  That is, f(a) = Q(pi a + s) - Q(a) mod 4
must be constant.  Q is a Z_4 quadratic form, Q(a + b) = Q(a) + Q(b) +
2 <Ga, b>, and so is f - f(0).  A form like that is constant iff it is
constant on 0, on the units 2^t and on the pairs 2^t + 2^u, because those
values fix its diagonal and its bilinear part.  With Q(2^t) = G_tt, f - f(0)
is G_(pi t, pi t) - G_tt + 2 (Gs)_(pi t) at 2^t, and on the pairs the
bilinear part changes by 2 (G_(pi t, pi u) - G_tu).  A difference of two bits
plus an even number is 0 mod 4 only if both vanish, so f is constant iff pi
fixes G and Gs = 0; G is invertible, so s = 0.  Hence X_j c is fixed iff pi
fixes G and j.  If every swap that fixes mu fixes G, the candidates kept
are the j that every such swap fixes: with m the index of mu, those are
0, m, its complement and 2^n - 1.  Otherwise no candidate is fixed and rule
1 keeps them all.  From n = 3 to 12 that is every slope but mu = 1.

Rule 2 is one Walsh transform.  Candidate X_j c has eigenvalue
(-1)^|a & j| i^Q(b) on the monomial with computational masks (a, b),
b = mu a.  Mod 2, Q(b) = tr(mu^-1 b^2) = tr(mu a^2), so Q(b) is even
exactly on the Hermitian monomials (and a = 0), where the eigenvalue is
+-1, and odd elsewhere, where it is +-i.  With v_a = Re i^Q(mu a), the sum
(W v)_j = sum_a (-1)^|a & j| v_a of the real parts of candidate j's
eigenvalues is 2 (+1 count) - H + 1 over the H Hermitian monomials with
a != 0.  A fast Walsh-Hadamard transform gives W v for every j in
O(n 2^n).

Rule 3 is one n-bit key.  With the phase fixed, component i of candidate
X_j c is Q(i + j) - Q(j) = Q(i) + 2 <Gj, i> mod 4.  Two candidates j != j'
first differ at the least i with <G(j + j'), i> = 1; that linear form is
nonzero because G is invertible, so its least such i is a unit index 2^t.
The unit indices, t = 0 first, therefore decide the order.  At each i the
two values Q(i) and Q(i) + 2 differ in the real part when Q(i) is even and
in the imaginary part when it is odd; the smaller (re, im) pair is the one
that is i^2 = -1 or i^3 = -i, so the preferred bit is
<Gj, i> = [Q(i) mod 4 in {0, 1}].  At a unit Q(2^t) = G_tt is 0 or 1, so
the preferred bit is 1 at every 2^t, and the winner is the candidate whose
Gj, read as a binary number with t = 0 the most significant bit, is
greatest: no component array is sorted, and the winner's components are
Q(i) + 2 <i, Gj>, read from Q and Gj alone.

A family stores each basis by its column 0; ``MubFamily.basis`` expands it
for the structural checks and the JSON export only.  ``build_family`` builds
the whole family or only the labels a caller reads, such as the n + 2
minimal bases of a measurement.  The Pauli strings a basis diagonalizes
are a function of bit masks (``stabilizer_masks``, one row per label): z is
the index of alpha and x that of mu alpha, one product by the
multiplication matrix of mu.  A measurement repeats one label tuple, such
as the n + 2 minimal bases, trial after trial, so ``MubFamily.plan`` stacks
their rows once per family: the flat place x 2^n + z of each, the anchor's
eigenvalue on it and its Pauli type.  Both directions of the measurement map read labels
and an array with one row per label, through that plan:
``born_probabilities`` reads the expectations of every basis's strings
from the state's ``operators.pauli_table`` in one gather (one table serves
every basis) and Walsh transforms them in one stacked product, and
``pauli_expectations`` recovers them from the distributions in one Walsh
product; ``family_operator`` adds them onto their (x, z) places in one
``np.bincount``, giving sum p P - identity.  The family is
deterministic for a fixed n: identical labels, vectors and exported bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import MissingBasisError, NotNormalizedError, SchemaError, json_int
from .gf2n import Field, FieldElement
from .operators import (pauli_operator, pauli_phase, pauli_types, permute_label, popcounts,
                        swap_index, walsh)


# ----------------------------------------------------------------------
# Basis labels
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BasisLabel:
    """Either a slope basis (field element mu) or the vertical basis."""

    slope: FieldElement | None = None

    def __post_init__(self) -> None:
        # label tuples key the measurement plans and the record gate on every call, so each
        # label keeps the hash the generated method would compute
        object.__setattr__(self, "_hash", hash((self.slope,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_vertical(self) -> bool:
        return self.slope is None

    def sort_key(self) -> tuple[int, int]:
        # Slopes by self-dual bits, vertical ordered last.
        if self.slope is None:
            return (1, 0)
        return (0, self.slope.bits)

    def __repr__(self) -> str:
        if self.slope is None:
            return "BasisLabel(vertical)"
        return f"BasisLabel(slope={self.slope.bits})"

    def to_json(self):
        return "vertical" if self.slope is None else {"slope": self.slope.bits}


def vertical_label() -> BasisLabel:
    return BasisLabel(None)


def slope_label(mu: FieldElement) -> BasisLabel:
    return BasisLabel(mu)


def family_labels(field: Field) -> list[BasisLabel]:
    """All 2^n + 1 labels: slopes ordered by bits, then the vertical basis.

    They are built once per field and kept on it, as its element table is,
    so they live and die with the field.
    """
    labels = vars(field).get("_family_labels")
    if labels is None:
        labels = field._family_labels = (*map(BasisLabel, field.elements()), BasisLabel(None))
    return list(labels)


def foreign_slope(field: Field, label: BasisLabel) -> str | None:
    """What is wrong with ``label`` if it is a slope of another n than ``field``'s, else None.

    The repr of a label shows only its slope's bits, which may name a label of
    ``field`` too, so the message names both n.
    """
    slope = label.slope
    if slope is None or slope.field.n == field.n:
        return None
    return f"basis {label!r} is a slope of n={slope.field.n}, not of the family's n={field.n}"


def label_from_json(field: Field, obj) -> BasisLabel:
    """"vertical" or {"slope": bits} with integer bits in 0..2^n - 1, else ``SchemaError``."""
    if obj == "vertical":
        return BasisLabel(None)
    if isinstance(obj, dict) and set(obj) == {"slope"}:
        try:
            return BasisLabel(field.element(json_int(obj["slope"], "slope")))
        except ValueError as exc:
            raise SchemaError(f"malformed basis label {obj!r}: {exc}") from exc
    raise SchemaError(f"malformed basis label: {obj!r}")


# ----------------------------------------------------------------------
# Stabilizer masks
# ----------------------------------------------------------------------

def stabilizer_masks(field: Field, labels) -> tuple[np.ndarray, np.ndarray]:
    """The masks (z, x) of the Pauli strings that each basis of ``labels`` diagonalizes.

    Two (k, 2^n) intp arrays, row k for ``labels[k]`` and column alpha in
    field order: the string (-i)^|z & x| Z_z X_x with z and x the indices of
    alpha and mu alpha on the slope-mu ray, of 0 and alpha on the vertical
    ray.  Every slope's row comes from one pass over the multiplication
    matrices of all of them, O(n 2^n) per label and no field product.
    """
    vertical = np.array([label.is_vertical for label in labels], dtype=bool)[:, None]
    slopes = [0 if label.is_vertical else label.slope.index for label in labels]
    alpha = np.array(field.bit_reversal, dtype=np.intp)  # index of the element with bits b
    times = _span(_multiplication_rows(field, slopes, alpha))[alpha].T
    return np.where(vertical, 0, alpha), np.where(vertical, alpha, times)


# ----------------------------------------------------------------------
# Slope basis construction
# ----------------------------------------------------------------------

_PHASES = np.array([1.0, 1.0j, -1.0, -1.0j])  # i^k for k mod 4
# Re i^k; rule 2's scores are integers in [-2^n, 2^n], which int16 holds for n <= 14
_REAL_PHASES = np.array([1, 0, -1, 0], dtype=np.int16)


@lru_cache(maxsize=None)
def _xor_table(dim: int) -> np.ndarray:
    out = np.bitwise_xor.outer(np.arange(dim), np.arange(dim))
    out.flags.writeable = False
    return out


def _multiplication_rows(field: Field, indices, reversal: np.ndarray) -> np.ndarray:
    """Row t, column s: the index of mu e_t, for mu the element at ``indices[s]``, e_t at 2^t.

    Column s is the multiplication matrix of mu in index bits, so its
    ``_span`` is the map a -> mu a on every index.  The matrix is
    GF(2)-linear in mu, so the span of the field's n^2 ``basis_products``
    gives the columns of every mu at once, with no field product.
    ``reversal`` is the field's ``bit_reversal`` as an array.
    """
    products = reversal[np.array(field.basis_products)[::-1, ::-1]]  # index of e_k e_t
    return _span(products)[indices].T


def _span(rows: np.ndarray) -> np.ndarray:
    """out[j]: the XOR of rows[t] over the set bits t of j, for every j < 2^len(rows).

    Each row may be an array: out[j] is then the linear map with columns
    ``rows`` applied to j, one map per trailing entry.  Built by doubling
    into one preallocated array, a contiguous block per row.
    """
    out = np.empty((1 << len(rows), *rows.shape[1:]), dtype=rows.dtype)
    out[0] = 0
    for t, row in enumerate(rows):
        np.bitwise_xor(out[:1 << t], row, out=out[1 << t:2 << t])
    return out


def _walsh_rows(v: np.ndarray) -> np.ndarray:
    """v @ walsh(2^n) for every row of v, by butterflies in place: O(n 2^n) per row, no 4^n
    matrix.

    The butterflies run on the (2^n, rows) transpose, so at step ``half``
    the two halves of every butterfly are runs of ``half * rows``
    contiguous entries, three whole-block passes per step.  The gauge
    passes the transpose of a C-ordered array, which is worked on as it is;
    any other v is copied once.
    """
    columns = np.ascontiguousarray(v.T)
    dim, count = columns.shape
    half = 1
    while half < dim:
        pairs = columns.reshape(dim // (2 * half), 2, half * count)
        low, high = pairs[:, 0], pairs[:, 1]
        low += high  # a + b
        high *= -2
        high += low  # a + b - 2b = a - b
        half *= 2
    return columns.T


def _slope_exponents(field: Field, slopes) -> np.ndarray:
    """Exponents k of the anchors |0, mu> = i^k / sqrt(2^n), one uint8 row per slope mu != 0.

    Candidate j is X_j c, column j of the closed form; the gauge rules pick
    one and fix its phase (module docstring).  Every slope is handled at
    once on integer arrays of its own 2^n indices, held as (2^n, slopes)
    so that each block of indices is contiguous; the result is their
    transpose.
    """
    n, dim = field.n, field.size
    count = len(slopes)
    reversal = np.array(field.bit_reversal, dtype=np.intp)
    indices = reversal[[mu.bits for mu in slopes]]
    pop = popcounts(dim).astype(np.uint8)
    j = np.arange(dim)[:, None]
    units = 1 << np.arange(n)
    times = _span(_multiplication_rows(field, indices, reversal))  # [a, s]: index of mu a
    flat = times * count + np.arange(count)  # place of [mu a, s] in a raveled (2^n, slopes) array
    # G, the multiplication by mu^-1, undoes that by mu: each column of times inverted
    gram = np.empty_like(times)
    gram.reshape(-1)[flat] = j
    rows = gram[units]  # row t of the symmetric G, per slope
    # Q(j + 2^t) = Q(j) + 2 <Gj, 2^t> + Q(2^t) mod 4 for j < 2^t, Q(2^t) = G_tt.
    # Each step adds at most 3, so the sums stay far below 256 until the one mod
    diagonal = (rows >> np.arange(n)[:, None] & 1).astype(np.uint8)
    quad = np.empty((dim, count), dtype=np.uint8)
    quad[0] = 0
    for t in range(n):
        low, high = quad[:1 << t], quad[1 << t:2 << t]
        np.bitwise_and(gram[:1 << t] >> t << 1, 2, out=high, casting="unsafe")
        high += low
        high += diagonal[t]
    quad &= 3

    # 1) keep candidates fixed (up to phase) by every slope-stabilizing swap,
    #    if any are.  A swap fixes X_j c iff it fixes j and G (module
    #    docstring), and it fixes mu iff mu's index m agrees on its two bits.
    #    So if all of those swaps fix G, the j they all fix are 0, m, its
    #    complement and 2^n - 1; if one moves G, no j is fixed.  The swap of
    #    bits x and y fixes the symmetric G iff rows x and y of G differ by 0
    #    or by 2^x + 2^y; x = y and either order of a pair ask the same, so
    #    the whole (x, y) square is compared
    bits = indices >> np.arange(n)[:, None] & 1
    fixes = bits[:, None] == bits
    differ = rows[:, None] ^ rows
    moves = (differ != 0) & (differ != (units[:, None] | units)[:, :, None])
    keeps = ~(fixes & moves).any(axis=(0, 1))
    candidates = (j == indices) | (j == indices ^ (dim - 1))
    candidates[[0, -1]] = True
    candidates |= ~keeps

    # 2) prefer eigenvalue +1 on the Hermitian monomials: one Walsh transform
    #    of Re i^Q(mu a) scores every candidate (module docstring)
    scores = _walsh_rows(_REAL_PHASES[quad.reshape(-1)[flat]].T).T
    scores = np.where(candidates, scores, -dim - 1)
    candidates &= scores == scores.max(axis=0)

    # 3) smallest (re, im) component sequence once component 0 is made real:
    #    the unit indices 2^t decide, t = 0 first, and Q(2^t) = G_tt is 0 or 1,
    #    so the smaller value has <Gj, 2^t> = 1 (module docstring).  The winner's
    #    Gj, read with t = 0 as the most significant bit, is therefore the
    #    greatest, and its component i is Q(i + j) - Q(j) = Q(i) + 2 <i, Gj>
    shift = reversal[np.where(candidates, reversal[gram], -1).max(axis=0)]  # Gj of the winner
    quad += pop[j & shift] << 1
    quad &= 3
    return quad.T


def _slope_anchors(field: Field, slopes) -> np.ndarray:
    """Read-only anchors |0, mu>, one row per slope: the unit vector e_0 for mu = 0.

    One gather from six values: codes 0..3 are i^k / sqrt(2^n), 4 and 5 the
    entries 1 and 0 of e_0.
    """
    proper = np.array([mu.bits != 0 for mu in slopes], dtype=bool)
    values = np.append(_PHASES / np.sqrt(field.size), [1.0, 0.0])
    codes = np.full((len(slopes), field.size), 5, dtype=np.uint8)
    codes[:, 0] = 4
    codes[proper] = _slope_exponents(field, [mu for mu in slopes if mu.bits])
    anchors = values[codes]
    anchors.flags.writeable = False
    return anchors


def _vertical_anchor(field: Field) -> np.ndarray:
    anchor = np.ones(field.size, dtype=complex) / np.sqrt(field.size)
    anchor.flags.writeable = False
    return anchor


def _expand(anchor: np.ndarray, vertical: bool) -> np.ndarray:
    """Read-only basis with column 0 ``anchor``, columns ordered by nu.index.

    Column nu is X_nu |anchor> on a slope basis and Z_nu |anchor>, the Walsh
    signs (-1)^|i & nu|, on the vertical one.
    """
    dim = anchor.shape[0]
    basis = walsh(dim) * anchor[:, None] if vertical else anchor[_xor_table(dim)]
    basis.flags.writeable = False
    return basis


def build_slope_basis(field: Field, mu: FieldElement) -> np.ndarray:
    """Orthonormal eigenbasis of { Z_alpha X_(mu alpha) }, columns ordered by nu.

    Column ``nu.index`` holds |nu, mu> = X_nu |anchor>, so the shift
    covariance X_beta |nu, mu> = |nu + beta, mu> is exact by construction.
    For mu = 0 this is exactly the computational basis.
    """
    return _expand(_slope_anchors(field, [mu])[0], vertical=False)


def build_vertical(field: Field) -> np.ndarray:
    """The infinite-slope basis: columns are the Fourier images F |nu>."""
    return _expand(_vertical_anchor(field), vertical=True)


class MeasurementPlan(NamedTuple):
    """The ``stabilizer_masks`` of a label tuple, stacked once for both directions of the map.

    Row k belongs to label k.  ``index`` is x 2^n + z, the flat place of each
    row's string in a 2^n-sided [x, z] table such as ``operators.pauli_table``,
    ``eigenvalues`` the anchor's eigenvalue on it, and ``types`` the rows'
    Pauli types, flattened label after label.
    """

    index: np.ndarray  # (k, 2^n) intp
    eigenvalues: np.ndarray  # (k, 2^n)
    types: np.ndarray  # (k 2^n,) intp


_PLAN_CACHE_SIZE = 8  # label tuples whose plans a family keeps, the oldest dropped first


@dataclass(frozen=True, eq=False)
class MubFamily:
    """A labeled family of bases (immutable once built): all 2^n + 1, or some of them.

    Each basis is stored by its column 0, the anchor |0, label>; ``basis``
    expands it to the full matrix on every call.  A partial family (see
    ``build_family``) is the same type with fewer entries in ``bases``;
    asking it for a basis it lacks raises ``MissingBasisError``.  Families
    compare by identity, so a partial family is unequal to the full one.
    ``plans`` caches ``plan`` by label tuple, filled on first read; the
    constructor does not take it, so every family starts with an empty
    cache.
    """

    field: Field
    bases: dict  # BasisLabel -> read-only (dim,) anchor column
    plans: dict = dataclasses.field(default_factory=dict, init=False, compare=False, repr=False)

    def labels(self) -> list[BasisLabel]:
        return list(self.bases)

    def anchor(self, label: BasisLabel) -> np.ndarray:
        try:
            return self.bases[label]
        except KeyError:
            raise MissingBasisError(foreign_slope(self.field, label)
                                    or f"basis {label!r} is not in the family") from None

    def basis(self, label: BasisLabel) -> np.ndarray:
        return _expand(self.anchor(label), label.is_vertical)

    def plan(self, labels) -> MeasurementPlan:
        """Read-only ``MeasurementPlan`` of ``labels``, stacked on the first read for the tuple.

        P_alpha |anchor> = lambda_alpha |anchor>, and entry r of the left side is
        (-i)^|z & x| (-1)^|z & r| anchor[r ^ x], so lambda_alpha is that over
        anchor[r] at any r where the anchor is nonzero: O(2^n), not a 4^n moment.
        Every anchor (i^k / 2^(n/2), e_0 or the uniform vector) is nonzero at
        r = 0, where the sign is 1.  The family keeps the plans of the last
        ``_PLAN_CACHE_SIZE`` label tuples built.
        """
        key = tuple(labels)
        entry = self.plans.get(key)
        if entry is None:
            dim, n = self.field.size, self.field.n
            anchors = np.array([self.anchor(label) for label in key]).reshape(len(key), dim)
            z, x = stabilizer_masks(self.field, key)
            ratio = pauli_phase(n, z, x) * np.take_along_axis(anchors, x, 1)
            eigenvalues = (ratio / anchors[:, :1]).real.copy()
            entry = MeasurementPlan(x * dim + z, eigenvalues, pauli_types(n, z, x).ravel())
            for arr in entry:
                arr.flags.writeable = False
            if len(self.plans) >= _PLAN_CACHE_SIZE:
                del self.plans[next(iter(self.plans))]
            self.plans[key] = entry
        return entry


def build_family(field: Field, labels=None) -> MubFamily:
    """The bases of ``labels``, in that order; all 2^n slope bases plus the vertical one if None.

    Each anchor depends on its own label only, so a partial family holds
    the same arrays as the full one for the labels it has, at the cost of
    those labels alone.  Families compare by identity (``MubFamily``).
    """
    labels = family_labels(field) if labels is None else list(labels)
    anchors = iter(_slope_anchors(field, [label.slope for label in labels if not label.is_vertical]))
    bases = {label: _vertical_anchor(field) if label.is_vertical else next(anchors)
             for label in labels}
    return MubFamily(field=field, bases=bases)


# ----------------------------------------------------------------------
# Born probabilities through the stabilizer table
# ----------------------------------------------------------------------
#
# Column nu of a family basis is the translate of the anchor that flips the
# eigenvalue of monomial alpha by (-1)^tr(alpha nu) (X_nu on a slope basis,
# Z_nu on the vertical one), and tr(alpha nu) is the parity of the
# self-dual bits alpha & nu.  So the projector onto |nu, label> is
# 2^-n sum_alpha (-1)^|alpha & nu| lambda_alpha P_alpha, with lambda_alpha the
# anchor's eigenvalue on P_alpha: the Walsh transform over the ray maps
# distributions to expectations and back.

def born_probabilities(family: MubFamily, labels, expect: np.ndarray) -> np.ndarray:
    """Tr(rho |nu, label><nu, label|), row k for ``labels[k]`` and column nu by the bits of nu.

    ``expect`` is the state's [x, z] table of Pauli expectations
    (``operators.pauli_table``), or for a PI state the vector of its one
    expectation per type of ``operators.pi_types``; one gather through the
    ``MubFamily.plan`` of ``labels`` (its ``index``, or its ``types``) reads
    every basis's rows from it.  The Walsh transforms
    run as one stacked product over the labels, a column per label, so
    each row has the bits of a product with that row alone.
    """
    dim = family.field.size
    plan = family.plan(labels)
    places = plan.index if np.ndim(expect) == 2 else plan.types.reshape(plan.index.shape)
    stack = plan.eigenvalues * np.take(expect, places)
    return (walsh(dim) @ stack.reshape(-1, dim, 1)).reshape(-1, dim) / dim


def pauli_expectations(family: MubFamily, labels, probs: np.ndarray) -> np.ndarray:
    """<P_alpha> on the ``stabilizer_masks`` row of each basis, one row per label.

    Row k of ``probs`` is the distribution of ``labels[k]`` by the bits of nu.
    The inverse of ``born_probabilities``: the anchors' eigenvalues, from the
    ``MubFamily.plan`` of ``labels``, times the Walsh transforms of the rows.
    Column 0, the identity, holds the totals.
    """
    return family.plan(labels).eigenvalues * (probs @ walsh(family.field.size))


_SUM_TOL = 1e-9  # how far a measured distribution may sit off the simplex


def check_distributions(labels, probs: np.ndarray) -> None:
    """Raise ``NotNormalizedError`` unless each row sums to 1 with no entry below 0, within 1e-9."""
    # row i is the distribution of labels[i]; a NaN or infinite entry fails the sum test.
    # Two reductions pass valid rows, and only a failure is looked for row by row
    totals = probs.sum(axis=1)
    if np.abs(totals - 1.0).max(initial=0.0) <= _SUM_TOL and probs.min(initial=0.0) >= -_SUM_TOL:
        return
    for label, total, low in zip(labels, totals.tolist(), probs.min(axis=1).tolist()):
        if not abs(total - 1.0) <= _SUM_TOL:
            raise NotNormalizedError(f"measured basis {label!r} sums to {total!r}, expected 1")
        if low < -_SUM_TOL:
            raise NotNormalizedError(f"measured basis {label!r} has an entry {low!r} below 0")


def family_operator(family: MubFamily, labels, probs: np.ndarray) -> np.ndarray:
    """sum_(k,nu) p_k(nu) P_(nu,k) - identity, row k of ``probs`` the distribution of ``labels[k]``.

    One ``np.bincount`` adds the ``pauli_expectations`` onto the flat (x, z)
    places of the ``MubFamily.plan`` of ``labels``, in row order.  The
    identity gets the sum of the totals minus 2^n, not a fixed 1: orbit
    expansions need not sum to 1 on unmeasured bases.  That sum is taken
    pairwise over ``probs``, not over the Walsh totals, whose rounding
    errors would add up across the 2^n + 1 bases.
    """
    dim = family.field.size
    values = pauli_expectations(family, labels, probs)
    expect = np.bincount(family.plan(labels).index.ravel(), values.ravel(), minlength=dim * dim)
    expect = expect.reshape(dim, dim)
    expect[0, 0] = np.ravel(probs).sum() - dim
    return pauli_operator(family.field.n, expect)


# ----------------------------------------------------------------------
# Structural verification helpers
# ----------------------------------------------------------------------

def unbiasedness_deviation(family: MubFamily) -> dict:
    """Worst-case deviations from the two-point overlap law.

    Returns the largest |gram - identity| entry within bases and the largest
    | |overlap|^2 - 1/2^n | across distinct bases.
    """
    dim = family.field.size
    dense = [family.basis(label) for label in family.labels()]
    max_gram = 0.0
    max_cross = 0.0
    for i, va in enumerate(dense):
        max_gram = max(max_gram, float(np.abs(va.conj().T @ va - np.eye(dim)).max()))
        for vb in dense[i + 1:]:
            ov2 = np.abs(va.conj().T @ vb) ** 2
            max_cross = max(max_cross, float(np.abs(ov2 - 1.0 / dim).max()))
    return {"max_gram_dev": max_gram, "max_cross_dev": max_cross}


def completeness_deviation(family: MubFamily) -> float:
    """Deviation of sum_k sum_nu P_(nu,k) from (2^n + 1) * identity."""
    dim = family.field.size
    total = np.zeros((dim, dim), dtype=complex)
    for label in family.labels():
        v = family.basis(label)
        total += v @ v.conj().T
    return float(np.abs(total - (len(family.labels())) * np.eye(dim)).max())


def swap_covariance_report(family: MubFamily) -> dict:
    """Conjugate every basis with every swap and match against the family.

    For each transposition (p, q) and each basis, the permuted basis either
    coincides with a family basis (up to per-vector phases) or escapes the
    family.  Where it coincides, the induced label map is compared against
    two candidate index rules:

    * ``both-swap``: nu' = nu + eps tr(nu eps), mu' = mu + eps tr(mu eps)
      (both labels transform through their own trace factor);
    * ``display``: the mu index shifted by eps tr(nu eps) instead, which
      would make the target basis depend on nu.

    Returns a dict with the closure flag, per-rule verdicts and failures.
    """
    field = family.field
    dim = field.size
    labels = family.labels()
    elems = [field.from_index(i) for i in range(dim)]  # nu by column
    dense = np.empty((len(labels), dim, dim), dtype=complex)
    for k, label in enumerate(labels):
        dense[k] = family.basis(label)
    failures: list[tuple[int, int, str]] = []
    both_swap = True
    display = True
    checked = 0

    for p in range(1, field.n + 1):
        for q in range(p + 1, field.n + 1):
            perm = swap_index(field.n, p, q)
            eps = field.element((1 << (p - 1)) ^ (1 << (q - 1)))
            nu_moved = np.array([permute_label(nu, p, q).index for nu in elems])
            # the display rule's slope shifts, eps where tr(eps nu) = 1 and 0 elsewhere
            shifts = {eps if (eps * nu).trace() else field.zero() for nu in elems}
            # landing[c, k]: does basis k's permuted anchor lie in basis c?  One
            # product per candidate c keeps the temporaries to (2^n + 1) x 2^n
            anchors = dense[:, perm, 0].conj()
            landing = np.array([np.abs(anchors @ basis).max(axis=1) for basis in dense]) > 1 - 1e-9
            for k, label in enumerate(labels):
                hits = np.flatnonzero(landing[:, k])
                if not hits.size:
                    failures.append((p, q, repr(label)))
                    continue
                target = labels[hits[0]]
                ov = np.abs(dense[hits[0]].conj().T @ dense[k][perm, :])
                col_to_row = ov.argmax(axis=0)
                if not np.allclose(ov[col_to_row, np.arange(dim)], 1.0, rtol=0, atol=1e-9):
                    failures.append((p, q, repr(label)))
                    continue
                # verify index rules on every nu of this basis
                checked += 1
                same_nu = np.array_equal(col_to_row, nu_moved)
                if label.is_vertical:
                    expect_target = expect_display = {vertical_label()}
                else:
                    expect_target = {BasisLabel(permute_label(label.slope, p, q))}
                    expect_display = {BasisLabel(label.slope + shift) for shift in shifts}
                both_swap &= same_nu and expect_target == {target}
                display &= same_nu and expect_display == {target}

    return {
        "closed": not failures,
        "bases_checked": checked,
        "both_swap_rule_holds": both_swap,
        "display_rule_holds": display,
        "failures": failures,
    }


def predicted_swap_escapes(field: Field) -> set[tuple[int, int, str]]:
    """(p, q, repr(label)) conjugations that must leave the family, by field arithmetic.

    The (p, q) swap pi maps the slope-mu monomials Z_alpha X_(mu alpha) to
    Z_pi(alpha) X_pi(mu alpha), which are the slope-mu' monomials exactly
    when mu' pi(alpha) = pi(mu alpha) for every alpha.  pi fixes
    1 = sum theta_i, so alpha = 1 leaves mu' = pi(mu) as the only candidate.
    Both sides are GF(2)-linear in alpha, so theta_1 .. theta_n decide it.
    The vertical set {X_beta} always maps to itself.  The failures of
    ``swap_covariance_report`` must be exactly these pairs.
    """
    thetas = [field.element(1 << i) for i in range(field.n)]
    escapes = set()
    for p in range(1, field.n + 1):
        for q in range(p + 1, field.n + 1):
            for mu in field.elements():
                image = permute_label(mu, p, q)
                if any(image * permute_label(a, p, q) != permute_label(mu * a, p, q)
                       for a in thetas):
                    escapes.add((p, q, repr(BasisLabel(mu))))
    return escapes


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------

def basis_to_json(field: Field, label: BasisLabel, basis: np.ndarray) -> dict:
    # vector j is column j of the basis, as [re, im] pairs
    vectors = np.ascontiguousarray(basis.T, dtype=complex).view(float).reshape(*basis.T.shape, 2)
    return {"n": field.n, "label": label.to_json(), "vectors": vectors.tolist()}


def family_to_json(family: MubFamily) -> dict:
    return {
        "n": family.field.n,
        "bases": [
            basis_to_json(family.field, label, family.basis(label))
            for label in family.labels()
        ],
    }
