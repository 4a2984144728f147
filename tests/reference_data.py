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
SLOPE_ANCHOR_SHA256 holds, for n = 5 .. 10, the sha256 of those rows packed
as uint8, row-major.  The n = 7 and 8 digests were recorded from the
per-slope closed-form gauge (integer exponents, stable lexsort in rule 3)
that preceded the batched one, and the n = 9 and 10 digests from the
batched gauge that took G from a second multiplication pass.

FIELD_TABLE_SHA256: for n = 1 .. 12, the sha256 of the JSON object (sorted
keys, default separators) that maps the names ``selfdual_basis``,
``basis_products``, ``bit_reversal``, ``_sd_to_poly``, ``_poly_to_sd`` and
``_trace_poly`` to those tables of ``Field(n)``, recorded from the field
that multiplied by carry-less products and long division.

ORBIT_EXPORT_SHA256: for n = 1 .. 8, the sha256 of the bytes of
`pimub orbits --n n`: its JSON stdout, its `--csv` stdout and its stderr
report, recorded from the per-point enumeration.  The exports hold only
integers, so the digests do not depend on the platform.
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
    7: "2627b4291ebdeb65791ce64ae192b4b4263b0ce08c08c6540fd675c2552d4025",
    8: "41a35d37c39d28c841b4c7676f6d54b25be1ca9484a4676049560361da13a6bb",
    9: "c36accd248cbe5b982b65c57f712a68ab178f21146c0c572de360e6f6fe69a4c",
    10: "c33e3a604ee62bfe200344990941bc700f638909971d95e49811c807e2d1bb66",
}

FIELD_TABLE_SHA256 = {
    1: "199d357c529f1ed5fbfdfdace60166911766a9728982ab62fc4f278d5e937625",
    2: "87bf26bcf65e021627013182d6e6365957fc6306e50e9227fe473d7006c6da14",
    3: "4d7ad25ef106a1c26084b0ed5bd544bcf3e7eb55a85224cef254d71d34d17e2b",
    4: "a356984ea1b70b25f51133ce68dfb4eaf9d10a1fa0ea2c55eb1276d0a3f93cf1",
    5: "17511747df3c9640bc031153d9a474989277bda174ba97b5f7d8ca0c3255e8a4",
    6: "36ca792d4e1e8aa51f335e724e734a256d0e1253224a58e591b06229f4ad5c2d",
    7: "cee315b879012f8a381e9b3b9683b7ff4aff32d5b08bc4715e8d1714531da29b",
    8: "dd07e3866400486a7d96ed626d5b9054af9150a9a818e31d797c20c1b68cfa28",
    9: "d9de5ac431c3dc1888620c90d2abd12842cbda2b8553649de0df580626f65cbe",
    10: "6758c82821d5a7a3383c96c02c036838be422503314cb01e310c5d7793106dcf",
    11: "1771f02283d721175113a5348d2797806454536c443d81c9662a460e02c5a50f",
    12: "86d74217accfc145f1a4f60c1066f9b8287502ce3a6523f7b1763fc42266d284",
}

ORBIT_EXPORT_SHA256 = {
    1: ("81053ed6903d661971d605ecfbba99a662fd6c6d717416da9d240deaa33e2d17",
        "8a2c93d60ffba8f7339f9063f21eae3a560f7ebf488997f5c08490b632c68db8",
        "8e8391ec7b2a2ee951a0ba47f6d97ed42b07e32e1c42ea21f5584e90cc37ad98"),
    2: ("b5162b4f9ae2831d59451452e06eef95ff8eb2860cf9fedc59363cc90c244ad4",
        "25f3a67fd24723bc4fdbbc05af878d85142de741c17078efabeede483eac203b",
        "53980515a5ef03fd76245ba9f4fe7b842266f9fb6ecc5216ccca9606015c78c3"),
    3: ("9ea42a132e2c31dba49b5e27b164145625d15909c0d776b3f229064da8ed86e3",
        "432cd1e1395622a723b343d0a85cbbaf0803cc88a3b406dc952553d6186ec72a",
        "46447e45c40a3eb0f2143c0c9f93aa15de63894c6ab2d2f63051388691687690"),
    4: ("e31e8c512c2e3fea3c467bca7aed50e0dd7cea6b8266114bb07d653f3a33ed2d",
        "2f29993e7f9539a00b3528655e2cf3be9d0e607839a0f0cddde6370eebf5b0d5",
        "45652f34379f6bba6da57adf3040a1524ccaafac9b9448fbaae1ebc9c0f8c89a"),
    5: ("94baab819496cfe977d073cbfbeb55cfb066cd43b025b76b63671c9af7407122",
        "4c78652d4e243836b9270a58e4c13d7c8c1e358781b015f2bcb8ca3790560cb3",
        "00a1b461c769785282d7966fbb16607ee1c942b4d303db21adbb492129998a36"),
    6: ("4a9015b6afeded4e6cdad3109302e68112d9a040915776cac28ef7866dd28fa1",
        "149444dae78ecd1a8a2a3530b6d3dc4ef5eb24c723fe5bde726066230ed8d541",
        "d854b9a2e110071b8100823c0a41451cba1c5b82fd5b6d4d2908d084394f41ff"),
    7: ("602957c1845729470ecc9615cff80caa39b1ec4f42e477a10700088d8e107de6",
        "f54e13c4eafaca802eb92f3e06e88a0e8c641ac92028bde836856c99e1e98c3a",
        "611c4edab037cf4bf56fa79dfe8315568e4ecb2d0d92bd92e2e5e50e3aaeaff4"),
    8: ("17cb5a6cea83730fe1dd9ede0e53ee92bfb2dc0e1c455242ef21f707c00b135a",
        "a213e6b04bbc866d390a7cd4bce18a84d93b4803ceb560568b6b6246166d334e",
        "96ab2eaa72419e5a4b3daba0f6077bc4bfb9729bad06332c50357e34ae269e17"),
}
