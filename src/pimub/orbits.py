"""Orbits of the qubit-permutation action on measurement labels.

A label point is a pair (nu, basis).  Transpositions act on both labels by
the field-level swap map kappa -> kappa + eps tr(eps kappa), which is the
coordinate swap of the self-dual bit vector; the computational (slope 0) and
vertical bases are themselves fixed, so only nu moves there, and its orbit
is its weight class.  On a proper slope, S_n permutes the columns of the
2 x n bit matrix (mu; nu) together, so an orbit is fixed by the counts c10,
c11 and c01 of the columns (1; 0), (1; 1) and (0; 1): the Pauli type of X
mask mu and Z mask nu, which (|mu|, |nu|, |mu + nu|) also determine.
``enumerate_orbits`` keys the slope points by ``operators.type_grid`` and
the vertical points by weight, and stores each point's orbit id in the
integer array ``OrbitTable.ids``, which is all that
``expand_probabilities`` reads; an ``Orbit`` keeps only its representative,
invariants and size.  The expansion reads and returns the distribution
format of ``mub.family_operator``: labels and one row of probabilities
each, which that function sums into the estimate ``pimub verify`` checks.
The tests check the table against a point-by-point grouping and against
the union-find closure of the transposition action.
The key also counts the orbits: each of the C(n + 3, 3) column-type count
vectors of (mu; nu) is one orbit, those with mu = 0 being the weight
classes of the computational basis, and the vertical basis adds its n + 1
weight classes, so there are C(n + 3, 3) + n + 1 orbits, which is
``tomography.independent_parameter_count(n) + n + 2``.

For permutationally invariant states the probabilities attached to the
points of one orbit coincide whenever the swap action closes on the basis
family, which is what lets the orbit expansion cover the full family from a
minimal set of n + 2 measured bases.  That closure holds for n <= 2 only.
If a swap pi mapped every slope group to a slope group, mu -> mu' would be
a field automorphism (conjugation preserves sums and products), and since
pi fixes 1 = sum theta_i, pi would be that automorphism, a power of
Frobenius.  Those form a cyclic group of order n, which cannot hold every
transposition once n >= 3; ``swap_covariance_report`` lists the conjugations
that leave the family.  So the expansion is exact only for n <= 2, and
``tomography.reconstruct`` fits the PI operator subspace instead; the
expansion is left as the check of ``pimub verify``.
This module is purely combinatorial.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import MissingOrbitError, SchemaError
from .gf2n import Field, FieldElement
from .mub import BasisLabel, check_distributions, family_labels, vertical_label
from .operators import popcounts, type_grid


@dataclass(frozen=True)
class LabelPoint:
    """State label nu within a measurement basis."""

    nu: FieldElement
    basis: BasisLabel

    def sort_key(self) -> tuple[int, int, int]:
        return (*self.basis.sort_key(), self.nu.bits)


@dataclass(frozen=True)
class Orbit:
    orbit_id: int
    representative: LabelPoint  # the member with the smallest label key
    invariants: tuple[int, ...]  # (m, l, s) for slopes, (l,) for mu=0 / vertical
    size: int


def _row(basis: BasisLabel, size: int) -> int:
    """Row of a basis in ``OrbitTable.ids``: the slope bits, ``size`` for vertical."""
    return size if basis.is_vertical else basis.slope.bits


@dataclass(frozen=True)
class OrbitTable:
    """Orbits; read-only ``ids[row, nu bits]`` is the orbit id of (nu, labels[row]).

    ``labels`` is in ``family_labels`` order, so row-major is label-key order.
    """

    n: int
    orbits: tuple[Orbit, ...]
    labels: tuple[BasisLabel, ...]
    ids: np.ndarray = dataclass_field(compare=False)

    @property
    def total_points(self) -> int:
        return sum(o.size for o in self.orbits)


def _kind(basis: BasisLabel) -> str:
    if basis.is_vertical:
        return "vertical"
    return "computational" if basis.slope.bits == 0 else "slope"


def enumerate_orbits(field: Field) -> OrbitTable:
    """Label points grouped into orbits by their weight key, on integer arrays.

    Row mu of ``keys`` is row mu of ``operators.type_grid``, the column-type
    counts of (mu; nu) for every nu; on row 0, the computational basis, that
    is a function of |nu| alone, and the vertical row holds |nu| offset past
    the C(n + 3, 3) slope keys.
    Every key up to the largest occurs; orbit ids follow first appearance in
    row-major (label-key) order, so each orbit's representative is its smallest member.
    """
    n, size = field.n, field.size
    keys = np.vstack([type_grid(n), math.comb(n + 3, 3) + popcounts(size)]).ravel()
    first, counts = np.full(keys.max() + 1, keys.size), np.bincount(keys)
    np.minimum.at(first, keys, np.arange(keys.size))
    order = np.argsort(first)  # orbit id -> key, by first appearance
    ids = np.argsort(order)[keys].reshape(size + 1, size)
    ids.flags.writeable = False

    labels = tuple(family_labels(field))
    elements = field.elements()
    orbits = []
    for orbit_id, (point, count) in enumerate(zip(first[order].tolist(), counts[order].tolist())):
        row, bits = divmod(point, size)
        l = bits.bit_count()
        invariants = (row.bit_count(), l, (row ^ bits).bit_count()) if 0 < row < size else (l,)
        orbits.append(Orbit(orbit_id, LabelPoint(elements[bits], labels[row]), invariants, count))
    return OrbitTable(n=n, orbits=tuple(orbits), labels=labels, ids=ids)


def minimal_bases(field: Field) -> list[BasisLabel]:
    """The n + 2 measured bases: slope 0, one slope per weight class, vertical.

    The weight-m representative is theta_1 + ... + theta_m (lowest self-dual
    bitmask of that weight); slope 0 is the weight-0 one.
    """
    elements = field.elements()
    return [BasisLabel(elements[(1 << m) - 1]) for m in range(field.n + 1)] + [vertical_label()]


def independent_count(field: Field, table: OrbitTable) -> int:
    """Number of orbits of ``table`` minus one normalization per measured basis."""
    return len(table.orbits) - (field.n + 2)


def closed_form_orbit_count(n: int) -> int:
    """Closed-form orbit-count estimate, 1 + n (n^2 + 6n + 17) / 6.

    Kept for the verification report, which compares it against the
    enumerated count and flags the disagreement instead of assuming either.
    """
    return 1 + n * (n * n + 6 * n + 17) // 6


# ----------------------------------------------------------------------
# Probability expansion along orbits
# ----------------------------------------------------------------------

def expand_probabilities(table: OrbitTable, labels, probs: np.ndarray) -> np.ndarray:
    """Propagate measured distributions to every basis of the family.

    Row k of ``probs`` is the distribution of ``labels[k]`` by the bits of
    nu, so its shape must be (len(labels), 2^n), and no label may repeat
    (else ``SchemaError``); the rows must pass ``mub.check_distributions``.
    A slope label of another n raises ``SchemaError`` before any row is read.
    Every orbit must own at least one measured point (else
    ``MissingOrbitError``).  An orbit measured at several points carries
    the one with the smallest label key, the paper's representative.
    Returns the (2^n + 1, 2^n) array of the same format for
    ``table.labels``.
    """
    size = 1 << table.n
    values = np.asarray(probs, dtype=float)
    if values.shape != (len(labels), size):
        raise SchemaError(f"distributions have shape {values.shape}, expected "
                          f"{(len(labels), size)}: one row of 2^n per label")
    for label in labels:
        if not label.is_vertical and label.slope.field.n != table.n:
            raise SchemaError(f"basis {label!r} is a slope of n={label.slope.field.n}, "
                              f"not of the table's n={table.n}")
    rows = np.array([_row(label, size) for label in labels], dtype=np.intp)
    # rows in label-key order, so the flattened points are in label-key order
    order = np.argsort(rows)
    measured, rows = [labels[k] for k in order], rows[order]
    twice = np.flatnonzero(np.diff(rows) == 0)
    if twice.size:
        raise SchemaError(f"basis {measured[twice[0]]!r} is given more than once")
    values = values[order]
    check_distributions(measured, values)
    ids = table.ids[rows].ravel()
    values = values.ravel()

    hits = np.bincount(ids, minlength=len(table.orbits))
    if not hits.all():
        orbit = table.orbits[int(np.argmin(hits))]
        raise MissingOrbitError(
            f"orbit {orbit.orbit_id} (invariants {orbit.invariants}) "
            "has no measured representative"
        )
    orbit_value = values[np.unique(ids, return_index=True)[1]]
    return orbit_value[table.ids]


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------

_COLUMNS = ("orbit_id", "basis_label", "nu_bitmask", "m", "l", "s", "orbit_size")


def _basis_csv_label(basis: BasisLabel) -> str:
    return "vertical" if basis.is_vertical else f"slope:{basis.slope.bits}"


def orbit_table_to_json(table: OrbitTable) -> dict:
    rows = [
        dict(zip(_COLUMNS, (orbit.orbit_id, _basis_csv_label(orbit.representative.basis),
                            orbit.representative.nu.bits, *_mls(orbit), orbit.size)))
        for orbit in table.orbits
    ]
    return {
        "n": table.n,
        "orbit_count": len(table.orbits),
        "total_points": table.total_points,
        "independent_count": len(table.orbits) - (table.n + 2),
        "closed_form_count": closed_form_orbit_count(table.n),
        "closed_form_matches": closed_form_orbit_count(table.n) == len(table.orbits),
        "orbits": rows,
    }


def _mls(orbit: Orbit) -> tuple:
    if _kind(orbit.representative.basis) == "slope":
        return orbit.invariants
    l = orbit.invariants[0]
    return (0, l, l)


def orbit_table_to_csv(table: OrbitTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in orbit_table_to_json(table)["orbits"]:
        writer.writerow(row.values())
    return buf.getvalue()


def orbit_report(table: OrbitTable) -> str:
    """Human-readable (m, l, s, #) table plus the closed-form comparison."""
    obj = orbit_table_to_json(table)
    lines = [f"orbit classes for n={table.n}"]
    header = f"{'kind':<14}{'m':>3}{'l':>3}{'s':>3}{'#':>4}"
    lines.append(header)
    lines.append("-" * len(header))
    for orbit, row in zip(table.orbits, obj["orbits"]):
        lines.append(f"{_kind(orbit.representative.basis):<14}"
                     f"{row['m']:>3}{row['l']:>3}{row['s']:>3}{row['orbit_size']:>4}")
    lines.append(f"orbits enumerated: {obj['orbit_count']}, total points: {obj['total_points']}")
    lines.append(f"independent probabilities: {obj['independent_count']}")
    lines.append(f"closed-form estimate: {obj['closed_form_count']}")
    if not obj["closed_form_matches"]:
        lines.append(
            "WARNING: closed-form estimate disagrees with the enumerated count; "
            "the enumeration is authoritative"
        )
    return "\n".join(lines)
