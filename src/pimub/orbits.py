"""Orbits of the qubit-permutation action on measurement labels.

A label point is a pair (nu, basis).  Transpositions act on both labels by
the field-level swap map kappa -> kappa + eps tr(eps kappa), which is the
coordinate swap of the self-dual bit vector; the computational (slope 0) and
vertical bases are themselves fixed, so only nu moves there.  The orbits are
therefore weight classes.  On a proper slope, S_n permutes the columns of
the 2 x n bit matrix (mu; nu) together, so an orbit is fixed by the counts
of its four column types, and (|mu|, |nu|, |mu + nu|) determine those counts:
c11 = (|mu| + |nu| - |mu + nu|) / 2, c10 = |mu| - c11, c01 = |nu| - c11.  On
the computational and vertical bases the orbit of nu is its weight class.
``enumerate_orbits`` groups the label points by that key; the tests check it
against the union-find closure of the transposition action.

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
``tomography.reconstruct`` by default fits the PI operator subspace instead.
This module is purely combinatorial.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .errors import MissingOrbitError, NotNormalizedError
from .gf2n import Field, FieldElement
from .mub import BasisLabel, family_labels, vertical_label
from .operators import permute_label

_SUM_TOL = 1e-9


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
    representative: LabelPoint
    members: tuple[LabelPoint, ...]
    invariants: tuple[int, ...]  # (m, l, s) for slopes, (l,) for mu=0 / vertical

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class OrbitTable:
    n: int
    orbits: tuple[Orbit, ...]
    _index: dict  # LabelPoint -> orbit_id

    def orbit_of(self, point: LabelPoint) -> Orbit:
        return self.orbits[self._index[point]]

    def representative_of(self, point: LabelPoint) -> LabelPoint:
        return self.orbit_of(point).representative

    @property
    def total_points(self) -> int:
        return sum(o.size for o in self.orbits)


def orbit_invariants(point: LabelPoint) -> tuple[int, ...]:
    """Weight invariants: (|mu|, |nu|, |mu + nu|) for a slope, (|nu|,) otherwise."""
    if point.basis.is_vertical:
        return (point.nu.weight,)
    mu = point.basis.slope
    if mu.bits == 0:
        return (point.nu.weight,)
    return (mu.weight, point.nu.weight, (mu + point.nu).weight)


def transform_point(point: LabelPoint, p: int, q: int) -> LabelPoint:
    """Image of a label point under the (p, q) qubit swap."""
    nu = permute_label(point.nu, p, q)
    basis = point.basis
    if not basis.is_vertical and basis.slope.bits != 0:
        basis = BasisLabel(permute_label(basis.slope, p, q))
    return LabelPoint(nu, basis)


def all_label_points(field: Field) -> list[LabelPoint]:
    """Every (nu, basis) pair, in ``LabelPoint.sort_key`` order."""
    return [
        LabelPoint(field.element(b), label)
        for label in family_labels(field)
        for b in range(field.size)
    ]


def _kind(basis: BasisLabel) -> str:
    if basis.is_vertical:
        return "vertical"
    return "computational" if basis.slope.bits == 0 else "slope"


def enumerate_orbits(field: Field) -> OrbitTable:
    """Label points grouped into orbits by the key (basis kind, ``orbit_invariants``).

    The points come in sort-key order, so each orbit's members are sorted,
    its representative is its first member, and orbit ids follow the
    representatives' order.
    """
    groups: dict[tuple, list[LabelPoint]] = {}
    for point in all_label_points(field):
        groups.setdefault((_kind(point.basis), orbit_invariants(point)), []).append(point)
    orbits = tuple(
        Orbit(orbit_id=i, representative=members[0], members=tuple(members),
              invariants=invariants)
        for i, ((_, invariants), members) in enumerate(groups.items())
    )
    index = {m: o.orbit_id for o in orbits for m in o.members}
    return OrbitTable(n=field.n, orbits=orbits, _index=index)


def s_range(m: int, l: int, n: int) -> list[int]:
    """Allowed |mu + nu| values for given |mu| = m, |nu| = l: steps of two."""
    if not (0 <= m <= n and 0 <= l <= n):
        raise ValueError(f"weights must lie in 0..{n}, got m={m}, l={l}")
    lo = abs(m - l)
    hi = min(m + l, 2 * n - m - l, n)
    return list(range(lo, hi + 1, 2))


def minimal_bases(field: Field) -> list[BasisLabel]:
    """The n + 2 measured bases: slope 0, one slope per weight class, vertical.

    The weight-m representative is theta_1 + ... + theta_m (lowest self-dual
    bitmask of that weight).
    """
    labels = [BasisLabel(field.zero())]
    for m in range(1, field.n + 1):
        labels.append(BasisLabel(field.element((1 << m) - 1)))
    labels.append(vertical_label())
    return labels


def independent_count(field: Field, table: OrbitTable | None = None) -> int:
    """Number of orbits minus one normalization per measured basis."""
    if table is None:
        table = enumerate_orbits(field)
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

def expand_probabilities(
    measured: dict,
    table: OrbitTable,
    mode: str = "representative",
) -> dict:
    """Propagate measured probabilities to every label point of the family.

    ``measured`` maps LabelPoint -> probability and must contain full
    distributions for the measured bases (each summing to one within 1e-9).
    Every orbit must own at least one measured point.  ``mode`` selects what
    value an orbit carries when several of its points were measured:
    ``"representative"`` takes the measured point with the smallest label
    key, ``"average"`` takes the mean.
    """
    if mode not in ("representative", "average"):
        raise ValueError(f"unknown expansion mode: {mode!r}")

    by_basis: dict[BasisLabel, float] = {}
    for point, prob in measured.items():
        by_basis[point.basis] = by_basis.get(point.basis, 0.0) + prob
    for basis, total in sorted(by_basis.items(), key=lambda kv: kv[0].sort_key()):
        if abs(total - 1.0) > _SUM_TOL:
            raise NotNormalizedError(
                f"measured basis {basis!r} sums to {total!r}, expected 1"
            )

    orbit_value: dict[int, float] = {}
    for orbit in table.orbits:
        hits = [m for m in orbit.members if m in measured]
        if not hits:
            raise MissingOrbitError(
                f"orbit {orbit.orbit_id} (invariants {orbit.invariants}) "
                "has no measured representative"
            )
        if mode == "average":
            orbit_value[orbit.orbit_id] = sum(measured[h] for h in hits) / len(hits)
        else:
            orbit_value[orbit.orbit_id] = measured[min(hits, key=LabelPoint.sort_key)]

    return {
        member: orbit_value[orbit.orbit_id]
        for orbit in table.orbits
        for member in orbit.members
    }


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------

def _basis_csv_label(basis: BasisLabel) -> str:
    return "vertical" if basis.is_vertical else f"slope:{basis.slope.bits}"


def orbit_table_to_json(table: OrbitTable) -> dict:
    rows = []
    for orbit in table.orbits:
        m, l, s = _mls(orbit)
        rows.append(
            {
                "orbit_id": orbit.orbit_id,
                "basis_label": _basis_csv_label(orbit.representative.basis),
                "nu_bitmask": orbit.representative.nu.bits,
                "m": m,
                "l": l,
                "s": s,
                "orbit_size": orbit.size,
            }
        )
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
    rep = orbit.representative
    if rep.basis.is_vertical or rep.basis.slope.bits == 0:
        l = orbit.invariants[0]
        return (0, l, l)
    return orbit.invariants


def orbit_table_to_csv(table: OrbitTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["orbit_id", "basis_label", "nu_bitmask", "m", "l", "s", "orbit_size"])
    for row in orbit_table_to_json(table)["orbits"]:
        writer.writerow([row["orbit_id"], row["basis_label"], row["nu_bitmask"],
                         row["m"], row["l"], row["s"], row["orbit_size"]])
    return buf.getvalue()


def orbit_report(table: OrbitTable) -> str:
    """Human-readable (m, l, s, #) table plus the closed-form comparison."""
    lines = [f"orbit classes for n={table.n}"]
    header = f"{'kind':<14}{'m':>3}{'l':>3}{'s':>3}{'#':>4}"
    lines.append(header)
    lines.append("-" * len(header))
    for orbit in table.orbits:
        kind = _kind(orbit.representative.basis)
        m, l, s = _mls(orbit)
        lines.append(f"{kind:<14}{m:>3}{l:>3}{s:>3}{orbit.size:>4}")
    enumerated = len(table.orbits)
    closed = closed_form_orbit_count(table.n)
    lines.append(f"orbits enumerated: {enumerated}, total points: {table.total_points}")
    lines.append(f"independent probabilities: {enumerated - (table.n + 2)}")
    lines.append(f"closed-form estimate: {closed}")
    if closed != enumerated:
        lines.append(
            "WARNING: closed-form estimate disagrees with the enumerated count; "
            "the enumeration is authoritative"
        )
    return "\n".join(lines)
