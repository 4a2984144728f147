"""Arithmetic in GF(2^n) with a trace-orthonormal (self-dual) basis.

Field elements are handled in two coordinate systems:

* *polynomial* coordinates: an integer whose binary digits are the
  coefficients of the residue polynomial modulo a fixed irreducible
  polynomial.  Used internally for multiplication.
* *self-dual* coordinates: the expansion over a basis ``theta_1..theta_n``
  satisfying ``tr(theta_i * theta_j) = delta_ij``.  This is the canonical
  public representation (:attr:`FieldElement.bits`), because it identifies
  field elements with n-bit strings, one bit per qubit.

Every table polynomial is primitive: its root t generates the 2^n - 1
nonzero elements.  Construction walks the powers t^k once, by a shift and a
conditional XOR each, into an exp table and its inverse, the log table, and
raises unless t first returns to 1 at k = 2^n - 1 (t of order 2^n - 1).  A
product of nonzero elements is then exp[log a + log b], two lookups and an
addition, with the exp table stored twice over so the sum needs no
reduction.

The trace is GF(2)-linear, so tr(x) is the parity of x & tau, where bit i of
tau is tr(t^i) = sum_k t^(i 2^k) for the polynomial basis 1, t, .., t^(n-1):
n traces, read from the exp table, give all 2^n.  The trace form tr(xy) is
then x^T H y with the Hankel bit matrix H_ij = tr(t^(i+j)), so the self-dual
basis is found on bit masks with no field product, and the coordinate
tables are built by doubling, one XOR per entry.  The Gram check and the
n^2 ``basis_products`` are the only field products of construction, each
through the log tables.

Elements are shared: each field builds its 2^n ``FieldElement`` objects
once, on first use, and every constructor and product returns one of them.

Irreducible (and primitive) polynomials used (lowest-weight conventional
choices, verified at construction time):

    n=1  : x + 1
    n=2  : x^2 + x + 1
    n=3  : x^3 + x + 1
    n=4  : x^4 + x + 1
    n=5  : x^5 + x^2 + 1
    n=6  : x^6 + x + 1
    n=7  : x^7 + x^3 + 1
    n=8  : x^8 + x^4 + x^3 + x^2 + 1
    n=9  : x^9 + x^4 + 1
    n=10 : x^10 + x^3 + 1
    n=11 : x^11 + x^2 + 1
    n=12 : x^12 + x^6 + x^4 + x + 1
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ContextMismatchError, UnsupportedFieldSizeError

MAX_N = 12

_IRREDUCIBLE: dict[int, int] = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
}


# ----------------------------------------------------------------------
# Polynomial arithmetic over GF(2) (integers as coefficient bitmasks)
# ----------------------------------------------------------------------

def _poly_deg(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, m: int) -> int:
    dm = _poly_deg(m)
    while a and _poly_deg(a) >= dm:
        a ^= m << (_poly_deg(a) - dm)
    return a


def is_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree 1 .. deg(p)//2."""
    n = _poly_deg(p)
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(p, q) == 0:
                return False
    return True


# ----------------------------------------------------------------------
# Self-dual basis construction
# ----------------------------------------------------------------------

def _xor_span(gens) -> list[int]:
    """Entry b: the XOR of gens[i] over the set bits i of b, for every b < 2^len(gens).

    Built by doubling: one XOR per entry, none per bit.
    """
    out = [0]
    for g in gens:
        out += [v ^ g for v in out]
    return out


def _selfdual_basis(n: int, form) -> tuple[int, ...]:
    """Orthonormalize the trace form ``form(x, y) = tr(xy)`` by symmetric congruence reduction.

    The trace form is symmetric, nondegenerate and non-alternating (the
    quadratic value tr(x^2) = tr(x) is a nonzero linear functional), so an
    orthonormal basis exists.  We grow one greedily; when the residual form
    turns alternating we trade the last accepted vector ``w`` and a
    hyperbolic pair ``u1, u2`` for the orthonormal triple
    ``{w+u1, w+u2, w+u1+u2}``.

    Vectors are polynomial-coordinate bitmasks; the search order over spans
    is by increasing coefficient mask, which makes the result deterministic.
    """

    def complement_basis(accepted: list[int]) -> list[int]:
        # Gaussian elimination: basis of {u : form(u, r) = 0 for all accepted r}.
        gens = [1 << j for j in range(n)]
        for r in accepted:
            hot, cold = [], []
            for g in gens:
                (hot if form(g, r) else cold).append(g)
            if hot:
                pivot = hot[0]
                gens = cold + [g ^ pivot for g in hot[1:]]
        return sorted(gens)

    basis: list[int] = []
    while len(basis) < n:
        vectors = _xor_span(complement_basis(basis))[1:]
        unit = next((v for v in vectors if form(v, v) == 1), None)
        if unit is not None:
            basis.append(unit)
            continue
        # Residual form alternating: find a hyperbolic pair and repair.
        u1, u2 = next((u1, u2) for u1 in vectors for u2 in vectors if form(u1, u2) == 1)
        w = basis.pop()
        basis.extend([w ^ u1, w ^ u2, w ^ u1 ^ u2])
    return tuple(basis)


# ----------------------------------------------------------------------
# Field context and elements
# ----------------------------------------------------------------------

class Field:
    """The algebra of GF(2^n): multiplication, trace, self-dual labeling.

    Immutable after construction; all operations are pure functions, safe
    for unrestricted concurrent use.  The 2^n elements are built once per
    field, on the first call that returns one, and then shared: ``element``,
    ``elements``, ``zero``, ``one``, ``from_poly`` and the element arithmetic
    all return entries of that one table, which lives and dies with the field.
    ``mub.family_labels`` keeps the field's basis labels on it the same way.
    """

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or not 1 <= n <= MAX_N:
            raise UnsupportedFieldSizeError(
                f"n must be an integer in 1..{MAX_N}, got {n!r}"
            )
        self.n = n
        self.size = 1 << n
        self.poly = _IRREDUCIBLE[n]
        if not is_irreducible(self.poly):
            raise AssertionError(f"polynomial table entry for n={n} is reducible")

        # exp[k] = t^k, by a shift and a reduction each, and log[t^k] = k; t is
        # primitive iff its powers first return to 1 at k = 2^n - 1
        order = self.size - 1
        exp, x = [], 1
        for _ in range(order):
            exp.append(x)
            x = x << 1 ^ (self.poly if x >> (n - 1) else 0)
            if x == 1:
                break
        if len(exp) != order or x != 1:
            raise AssertionError(f"polynomial table entry for n={n} is not primitive")
        log = [0] * self.size
        for k, x in enumerate(exp):
            log[x] = k
        self._exp = exp + exp  # log a + log b < 2 (2^n - 1) needs no reduction
        self._log = log

        # The trace is GF(2)-linear, so tr(x) is the parity of x & tau, where
        # bit i of tau is tr(t^i) = sum_k t^(i 2^k): n^2 lookups, no product
        tau = 0
        for i in range(n):
            t = 0
            for k in range(n):
                t ^= exp[(i << k) % order]
            if t not in (0, 1):
                raise AssertionError("trace landed outside the base field")
            tau |= t << i
        self._trace_poly = tuple(_xor_span([tau >> i & 1 for i in range(n)]))

        # tr(xy) = x^T H y with the Hankel bit matrix H_ij = tr(t^(i+j)), so
        # the trace form is a parity of bit masks: no field product
        traces = [(self._exp[k] & tau).bit_count() & 1 for k in range(2 * n - 1)]
        hankel = _xor_span([sum(traces[i + j] << j for j in range(n)) for i in range(n)])
        self.selfdual_basis = _selfdual_basis(n, lambda x, y: (hankel[x] & y).bit_count() & 1)
        if not self.selfdual_gram_identity():
            raise AssertionError("self-dual basis failed the Gram identity")

        # Coordinate conversion tables (self-dual bits <-> polynomial mask).
        sd_to_poly = _xor_span(self.selfdual_basis)
        self._sd_to_poly = tuple(sd_to_poly)
        poly_to_sd = [0] * self.size
        for bits, x in enumerate(sd_to_poly):
            poly_to_sd[x] = bits
        self._poly_to_sd = tuple(poly_to_sd)
        if sorted(sd_to_poly) != list(range(self.size)):
            raise AssertionError("self-dual basis does not span the field")

        # basis_products[i][j]: self-dual bits of theta_(i+1) theta_(j+1); the
        # product is bilinear, so these n^2 entries give every multiplication matrix
        self.basis_products = tuple(
            tuple(self._poly_to_sd[self._mul_poly(a, b)] for b in self.selfdual_basis)
            for a in self.selfdual_basis
        )

        # bit_reversal[b] reverses the n-bit string b: self-dual bits <-> index
        self.bit_reversal = tuple(_xor_span([1 << (n - 1 - i) for i in range(n)]))

    # -- raw polynomial-coordinate helpers ------------------------------

    def _mul_poly(self, a: int, b: int) -> int:
        """Product in polynomial coordinates, through the exp and log tables of t."""
        if a and b:
            return self._exp[self._log[a] + self._log[b]]
        return 0

    def trace_poly(self, x: int) -> int:
        """Trace Z_2 value of an element given in polynomial coordinates."""
        return self._trace_poly[x]

    def selfdual_gram_identity(self) -> bool:
        """Whether tr(theta_i theta_j) = delta_ij holds on the self-dual basis."""
        return all(
            self.trace_poly(self._mul_poly(a, b)) == (i == j)
            for i, a in enumerate(self.selfdual_basis)
            for j, b in enumerate(self.selfdual_basis)
        )

    # -- element constructors -------------------------------------------

    @cached_property
    def _elements(self) -> tuple["FieldElement", ...]:
        """The field's one table of elements, by self-dual bits, built on first read."""
        return tuple(FieldElement(bits, self) for bits in range(self.size))

    def element(self, bits: int) -> "FieldElement":
        """Element from self-dual coordinates (bit i-1 is the theta_i coefficient)."""
        if not 0 <= bits < self.size:
            raise ValueError(f"bits out of range for n={self.n}: {bits}")
        return self._elements[bits]

    def from_poly(self, mask: int) -> "FieldElement":
        return self._elements[self._poly_to_sd[mask]]

    def from_index(self, index: int) -> "FieldElement":
        """Element whose computational-basis index is ``index`` (qubit 1 = MSB)."""
        return self.element(self.bits_from_index(index))

    def zero(self) -> "FieldElement":
        return self._elements[0]

    def one(self) -> "FieldElement":
        return self.from_poly(1)

    def elements(self) -> list["FieldElement"]:
        """All 2^n elements ordered by self-dual bits."""
        return list(self._elements)

    # -- index convention ------------------------------------------------

    def index_from_bits(self, bits: int) -> int:
        # qubit i carries self-dual coordinate n_i; qubit 1 is the MSB.
        if not 0 <= bits < self.size:
            raise ValueError(f"bits out of range for n={self.n}: {bits}")
        return self.bit_reversal[bits]

    def bits_from_index(self, index: int) -> int:
        return self.index_from_bits(index)  # bit reversal is an involution

    # -- equality / export -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and (self.n, self.poly) == (other.n, other.poly)

    def __hash__(self) -> int:
        return hash((self.n, self.poly))

    def __repr__(self) -> str:
        return f"Field(n={self.n}, poly={bin(self.poly)})"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "irreducible_poly": self.poly,
            "selfdual_basis": list(self.selfdual_basis),
        }


@dataclass(frozen=True)
class FieldElement:
    """A GF(2^n) element carrying its self-dual coordinates.

    ``bits`` packs the coordinates ``(n_1 .. n_n)`` with ``theta_i`` at bit
    position ``i - 1``.  Addition is bitwise XOR; multiplication goes through
    the parent field's log tables.  Obtain elements from their ``Field``,
    which returns its shared ones.
    """

    bits: int
    field: Field

    def _check(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise ContextMismatchError(
                f"elements from different fields: {self.field!r} vs {other.field!r}"
            )

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return self.field._elements[self.bits ^ other.bits]

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        f = self.field
        return f.from_poly(f._mul_poly(f._sd_to_poly[self.bits], f._sd_to_poly[other.bits]))

    def square(self) -> "FieldElement":
        return self * self

    def trace(self) -> int:
        return self.field.trace_poly(self.field._sd_to_poly[self.bits])

    @property
    def weight(self) -> int:
        """Hamming weight of the self-dual coordinates."""
        return self.bits.bit_count()

    @property
    def index(self) -> int:
        """Computational-basis index (qubit 1 = most significant bit)."""
        return self.field.index_from_bits(self.bits)

    @property
    def poly(self) -> int:
        """Polynomial-coordinate bitmask."""
        return self.field._sd_to_poly[self.bits]

    def coeffs(self) -> tuple[int, ...]:
        """Self-dual coordinates as a tuple (n_1, ..., n_n)."""
        return tuple(self.bits >> i & 1 for i in range(self.field.n))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.bits == other.bits
            and self.field == other.field
        )

    def __hash__(self) -> int:
        return hash((self.bits, self.field.n, self.field.poly))

    def __repr__(self) -> str:
        return f"FieldElement(bits={self.bits:#0{self.field.n + 2}b}, n={self.field.n})"


@lru_cache(maxsize=None)
def make_field(n: int) -> Field:
    """Construct (and cache) the GF(2^n) context with a verified self-dual basis."""
    return Field(n)
