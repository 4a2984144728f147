"""Frozen expected values, derived by hand and checked against independent oracles.

TWO_QUBIT_BASES: the five two-qubit measurement bases as unnormalized
component lists (the four +-1/+-i lists have norm 2, so a 1/2 normalization
applies; the computational list is already normalized).  Order within a
list is by the computational index of the state label.  Vectors are only
fixed up to a global phase each, so tests must match projectively.

THREE_QUBIT_ORBIT_CLASSES: (kind, m, l, s, size) rows of the 24 label
orbits for n = 3, where kind separates the computational (slope 0) and
vertical bases from proper slopes.  For the computational and vertical
bases the orbit is classified by l alone (s = l, m = 0 recorded).

SLOPE_ANCHOR_EXPONENTS: the exponents k of every proper slope anchor,
|0, mu> = i^k / sqrt(2^n), frozen from the earlier construction of the
family (joint eigenbasis by eigh, then the same three-rule gauge), which
was within 1.2e-12 of i^k / sqrt(2^n) entrywise for n <= 6.  One row per
slope mu with self-dual bits 1 .. 2^n - 1, entries by computational index.
SLOPE_ANCHOR_SHA256 holds, for n = 5 and 6, the sha256 of those rows packed
as uint8, row-major.
"""

I = 1j

TWO_QUBIT_BASES = {
    "computational": [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ],
    "slope_a": [
        (1, I, 1, -I),
        (I, 1, -I, 1),
        (1, -I, 1, I),
        (-I, 1, I, 1),
    ],
    "slope_b": [
        (1, 1, I, -I),
        (1, 1, -I, I),
        (I, -I, 1, 1),
        (-I, I, 1, 1),
    ],
    "slope_full": [
        (I, 1, 1, -I),
        (1, I, -I, 1),
        (1, -I, I, 1),
        (-I, 1, 1, I),
    ],
    "vertical": [
        (1, 1, 1, 1),
        (1, -1, 1, -1),
        (1, 1, -1, -1),
        (1, -1, -1, 1),
    ],
}

THREE_QUBIT_ORBIT_CLASSES = [
    ("computational", 0, 0, 0, 1),
    ("computational", 0, 1, 1, 3),
    ("computational", 0, 2, 2, 3),
    ("computational", 0, 3, 3, 1),
    ("vertical", 0, 0, 0, 1),
    ("vertical", 0, 1, 1, 3),
    ("vertical", 0, 2, 2, 3),
    ("vertical", 0, 3, 3, 1),
    ("slope", 1, 0, 1, 3),
    ("slope", 1, 1, 0, 3),
    ("slope", 1, 1, 2, 6),
    ("slope", 1, 2, 1, 6),
    ("slope", 1, 2, 3, 3),
    ("slope", 1, 3, 2, 3),
    ("slope", 2, 0, 2, 3),
    ("slope", 2, 1, 1, 6),
    ("slope", 2, 1, 3, 3),
    ("slope", 2, 2, 0, 3),
    ("slope", 2, 2, 2, 6),
    ("slope", 2, 3, 1, 3),
    ("slope", 3, 0, 3, 1),
    ("slope", 3, 1, 2, 3),
    ("slope", 3, 2, 1, 3),
    ("slope", 3, 3, 0, 1),
]

THREE_QUBIT_TOTAL_POINTS = 72

SLOPE_ANCHOR_EXPONENTS = {
    1: [
        [0, 3],
    ],
    2: [
        [0, 0, 3, 1],
        [0, 3, 0, 1],
        [0, 3, 3, 2],
    ],
    3: [
        [0, 3, 2, 1, 3, 0, 3, 0],
        [0, 2, 3, 3, 3, 1, 0, 0],
        [0, 3, 2, 3, 0, 3, 0, 1],
        [0, 3, 3, 0, 2, 3, 1, 0],
        [0, 2, 3, 1, 0, 0, 1, 1],
        [0, 2, 0, 0, 3, 3, 3, 1],
        [0, 3, 3, 2, 3, 2, 2, 1],
    ],
    4: [
        [0, 3, 2, 3, 1, 0, 3, 0, 1, 2, 1, 0, 0, 1, 0, 3],
        [0, 2, 0, 0, 3, 3, 1, 3, 3, 1, 1, 1, 0, 0, 0, 2],
        [0, 2, 3, 3, 2, 0, 1, 1, 0, 0, 1, 3, 0, 0, 1, 3],
        [0, 3, 3, 0, 0, 1, 1, 0, 2, 1, 3, 0, 0, 1, 3, 2],
        [0, 2, 3, 1, 3, 3, 0, 0, 1, 1, 0, 0, 0, 2, 1, 3],
        [0, 2, 3, 1, 1, 1, 0, 0, 2, 0, 3, 1, 3, 3, 0, 0],
        [0, 3, 0, 1, 3, 2, 1, 2, 0, 3, 0, 1, 1, 0, 3, 0],
        [0, 3, 3, 0, 2, 3, 1, 0, 1, 2, 0, 3, 1, 0, 0, 1],
        [0, 3, 2, 1, 2, 3, 0, 1, 1, 0, 1, 0, 3, 0, 3, 0],
        [0, 3, 1, 0, 3, 2, 2, 1, 0, 1, 3, 0, 3, 0, 0, 1],
        [0, 3, 2, 1, 0, 1, 0, 1, 0, 1, 2, 3, 0, 3, 0, 3],
        [0, 2, 0, 0, 3, 3, 3, 1, 0, 0, 0, 2, 1, 3, 1, 1],
        [0, 0, 2, 2, 0, 0, 0, 0, 3, 1, 3, 1, 3, 1, 1, 3],
        [0, 2, 3, 3, 0, 2, 1, 1, 1, 3, 0, 0, 3, 1, 0, 0],
        [0, 3, 3, 2, 3, 2, 2, 1, 3, 2, 2, 1, 2, 1, 1, 0],
    ],
}

SLOPE_ANCHOR_SHA256 = {
    5: "9f1c1213c606421fb90afccb0dac4a107b42630cf16853185ef4231bc6f85ea3",
    6: "f0500736f3017414dc9c9d4c784e44105dfba6dab31ff1b982f90057ec8af378",
}
