"""Field layer: arithmetic axioms, trace identities, self-dual basis."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from pimub.errors import ContextMismatchError, UnsupportedFieldSizeError
from pimub.gf2n import (
    _IRREDUCIBLE,
    Field,
    _poly_deg,
    _poly_mod,
    is_irreducible,
    make_field,
)

from conftest import field, per_bit_selfdual_to_poly, product_selfdual_basis, squaring_traces
from reference_data import FIELD_TABLE_SHA256


# ---------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------

def schoolbook_mul(a_mask, b_mask, poly):
    """Polynomial product coefficient by coefficient, then long division."""
    prod = 0
    for i in range(a_mask.bit_length()):
        if a_mask >> i & 1:
            for j in range(b_mask.bit_length()):
                if b_mask >> j & 1:
                    prod ^= 1 << (i + j)
    while prod and _poly_deg(prod) >= _poly_deg(poly):
        prod ^= poly << (_poly_deg(prod) - _poly_deg(poly))
    return prod


def has_small_factor(poly):
    """Reducibility witness by exhaustive divisor search (degree 1..n-1)."""
    n = _poly_deg(poly)
    for d in range(1, n):
        for q in range(1 << d, 1 << (d + 1)):
            if _poly_mod(poly, q) == 0:
                return True
    return False


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", sorted(_IRREDUCIBLE))
def test_polynomial_table_irreducible(n):
    assert is_irreducible(_IRREDUCIBLE[n])
    assert not has_small_factor(_IRREDUCIBLE[n])
    assert _poly_deg(_IRREDUCIBLE[n]) == n


@pytest.mark.parametrize("n", sorted(_IRREDUCIBLE))
def test_polynomial_table_primitive(n):
    # the powers of x, reduced one multiplication by x at a time, first
    # return to 1 at 2^n - 1: x generates every nonzero residue
    p, x, order = _IRREDUCIBLE[n], 1, 0
    while order < 2**n:
        x, order = _poly_mod(x << 1, p), order + 1
        if x == 1:
            break
    assert order == 2**n - 1


def test_a_non_primitive_table_polynomial_is_refused(monkeypatch):
    # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5 modulo it,
    # so the log tables of x would not reach every element
    monkeypatch.setitem(_IRREDUCIBLE, 4, 0b11111)
    assert is_irreducible(0b11111)
    with pytest.raises(AssertionError, match="not primitive"):
        Field(4)


def _table_digest(f):
    names = ("selfdual_basis", "basis_products", "bit_reversal", "_sd_to_poly", "_poly_to_sd",
             "_trace_poly")
    tables = {name: getattr(f, name) for name in names}
    return hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("n", range(1, 13))
def test_field_tables_match_their_frozen_digests(n):
    # every table a field builds is the one the carry-less-product field built
    assert _table_digest(field(n)) == FIELD_TABLE_SHA256[n]


@pytest.mark.parametrize("n", range(1, 9))
def test_selfdual_gram_identity(n):
    f = field(n)
    thetas = [f.from_poly(m) for m in f.selfdual_basis]
    for i, a in enumerate(thetas):
        for j, b in enumerate(thetas):
            assert (a * b).trace() == (1 if i == j else 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_selfdual_basis_spans(n):
    f = field(n)
    # the 2^n XOR combinations of the basis masks hit every element
    assert sorted(f._sd_to_poly) == list(range(f.size))


@pytest.mark.parametrize("n", range(1, 13))
def test_field_tables_match_the_per_element_oracles(n):
    # the parity trace, the bit-mask trace form and the doubled coordinate
    # table give what squaring every element and expanding every bit give
    f = field(n)
    assert f._trace_poly == squaring_traces(f)
    assert f.selfdual_basis == product_selfdual_basis(f)
    assert f._sd_to_poly == per_bit_selfdual_to_poly(f)
    assert all(f._poly_to_sd[x] == bits for bits, x in enumerate(f._sd_to_poly))


def test_gf4_matches_the_worked_example():
    # polynomial theta^2 + theta + 1; basis theta, theta^2; theta^3 = theta_1 + theta_2
    f = field(2)
    assert f.poly == 0b111
    assert f.selfdual_basis == (0b10, 0b11)  # theta, theta^2 = theta + 1
    theta1, theta2 = (f.from_poly(m) for m in f.selfdual_basis)
    assert (theta1 * theta2).coeffs() == (1, 1)


def test_gf2_base_field():
    f = field(1)
    assert f.selfdual_basis == (1,)
    assert f.one().trace() == 1


def test_unsupported_sizes_rejected():
    for bad in (0, -1, 13, 2.0):
        with pytest.raises(UnsupportedFieldSizeError):
            make_field(bad)


def test_element_coordinates_out_of_range():
    f = field(2)
    with pytest.raises(ValueError):
        f.element(4)
    with pytest.raises(ValueError):
        f.element(-1)


def test_elements_are_shared_within_a_field_and_frozen():
    f = Field(3)
    table = f.elements()
    assert f.zero() is table[0] and f.element(5) is table[5] and f.one() is f.from_poly(1)
    assert all(f.from_poly(a.poly) is a and f.from_index(a.index) is a for a in table)
    assert (table[3] * table[6]) is table[(table[3] * table[6]).bits]
    assert (table[3] + table[6]) is table[5]
    with pytest.raises(dataclasses.FrozenInstanceError):
        table[1].bits = 2


def test_fresh_fields_share_no_element_table():
    a, b = Field(3), Field(3)
    assert a == b and a.elements() == b.elements()
    assert not {id(x) for x in a.elements()} & {id(x) for x in b.elements()}


def test_make_field_deterministic():
    assert make_field(5).to_json() == make_field(5).to_json()


# ----------------------------------------------------------------------
# Multiplication
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_mul_matches_schoolbook_oracle_all_pairs(n):
    f = field(n)
    for a in range(f.size):
        ea = f.from_poly(a)
        for b in range(f.size):
            prod = ea * f.from_poly(b)
            assert prod.poly == schoolbook_mul(a, b, f.poly)


@pytest.mark.parametrize("n", range(7, 13))
def test_log_table_products_match_schoolbook_oracle(n):
    f = field(n)
    rng = np.random.default_rng(n)
    edges = [(a, b) for a in (0, 1) for b in (0, 1, f.size - 1, f.poly ^ f.size)]
    pairs = edges + [(b, a) for a, b in edges] + rng.integers(0, f.size, size=(200, 2)).tolist()
    for a, b in pairs:
        assert (f.from_poly(a) * f.from_poly(b)).poly == schoolbook_mul(a, b, f.poly)


def test_mul_axioms_random_triples():
    f = field(8)
    rng = np.random.default_rng(42)
    one = f.one()
    for _ in range(200):
        a, b, c = (f.element(int(x)) for x in rng.integers(0, f.size, size=3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert (a * f.zero()).bits == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_basis_products_are_the_products_of_the_selfdual_basis(n):
    f = field(n)
    for i in range(n):
        for j in range(n):
            theta = f.element(1 << i) * f.element(1 << j)
            assert f.basis_products[i][j] == theta.bits
            assert schoolbook_mul(f.selfdual_basis[i], f.selfdual_basis[j], f.poly) == theta.poly


def test_gf8_random_products_against_oracle():
    f = field(3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = (int(x) for x in rng.integers(0, 8, size=2))
        assert (f.from_poly(a) * f.from_poly(b)).poly == schoolbook_mul(a, b, f.poly)


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        field(2).one() * field(3).one()
    with pytest.raises(ContextMismatchError):
        field(2).one() + field(3).one()


# ----------------------------------------------------------------------
# Trace and Frobenius identities
# ----------------------------------------------------------------------

def test_gf4_trace_values():
    f = field(2)
    theta1 = f.from_poly(0b10)
    assert f.zero().trace() == 0
    assert f.one().trace() == 0  # 1 + 1
    assert theta1.trace() == 1  # theta + theta^2


@pytest.mark.parametrize("n", range(1, 13))
def test_trace_linearity_and_frobenius(n):
    f = field(n)
    elems = f.elements()
    for a in elems:
        assert a.trace() in (0, 1)
        assert a.square().trace() == a.trace()
        # a^(2^n) = a
        power = a
        for _ in range(n):
            power = power.square()
        assert power == a
    rng = np.random.default_rng(n)
    for _ in range(100):
        a, b = (f.element(int(x)) for x in rng.integers(0, f.size, size=2))
        assert (a + b).trace() == (a.trace() + b.trace()) % 2
        assert (a + b).square() == a.square() + b.square()


@pytest.mark.parametrize("n", range(1, 13))
def test_trace_balance(n):
    f = field(n)
    zeros = sum(1 for a in f.elements() if a.trace() == 0)
    assert zeros == f.size // 2


# ----------------------------------------------------------------------
# Coordinates, weight, round trips
# ----------------------------------------------------------------------

def test_weight_examples():
    f = field(2)
    assert f.zero().weight == 0
    assert f.element(0b11).weight == 2


@pytest.mark.parametrize("n", range(1, 9))
def test_weight_distribution_is_binomial(n):
    from math import comb

    f = field(n)
    counts = {}
    for a in f.elements():
        counts[a.weight] = counts.get(a.weight, 0) + 1
    assert counts == {w: comb(n, w) for w in range(n + 1) if comb(n, w)}


@pytest.mark.parametrize("n", range(1, 9))
def test_coordinate_round_trips(n):
    f = field(n)
    for a in f.elements():
        assert f.element(sum(c << i for i, c in enumerate(a.coeffs()))) == a
        assert f.from_index(a.index) == a
        assert f.from_poly(a.poly) == a
        assert a.coeffs()[0] == ((a * f.from_poly(f.selfdual_basis[0])).trace())


@pytest.mark.parametrize("n", range(1, 13))
def test_index_from_bits_is_string_bit_reversal(n):
    f = field(n)
    for bits in range(f.size):
        assert f.index_from_bits(bits) == int(f"{bits:0{n}b}"[::-1], 2)
    for bad in (-1, f.size):
        with pytest.raises(ValueError):
            f.index_from_bits(bad)


def test_addition_is_xor():
    f = field(4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = (f.element(int(x)) for x in rng.integers(0, 16, size=2))
        assert (a + b).bits == a.bits ^ b.bits


def test_field_json_export():
    f = field(3)
    obj = json.loads(json.dumps(f.to_json()))
    assert obj == {"n": 3, "irreducible_poly": 0b1011, "selfdual_basis": list(f.selfdual_basis)}
