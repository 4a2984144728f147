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

PI_STATE_SHA256: the ``conftest.dense_digest`` of each output of
``conftest.pinned_outputs``: ``random_pi_state`` of every method for
n = 1..8 and two seeds, and ``reconstruct`` of exact minimal-basis records
for n = 1..9, recorded from the producers that returned dense matrices.
The bytes are those of float64 arithmetic under numpy 2.4 with OpenBLAS.
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

PI_STATE_SHA256 = {
    'twirl n=1 seed=1': '3259ffbc2aad2b0e358cf0b0e15792808838862584ae9baf9faa780987669532',
    'twirl n=1 seed=101': '910ecb227eb8231566ee72a4a526aed6f45da468c859b63fcc626f776fd20b2c',
    'twirl n=2 seed=2': '8df614d1ddf6f7af4804795807a8eef4c7a89a315f04bf07e175a3819a58690e',
    'twirl n=2 seed=102': 'f3dfcebef6020bebd7b6ce58df308ff5fb01e99003b561a34280797c20fc6b17',
    'twirl n=3 seed=3': '9d05bff9714f28dd9f6b8124be70594386c7fd5a8855206bba2ff0cf8fbcf0c7',
    'twirl n=3 seed=103': 'e0dcc968c1841939d863fa657d9bb6664b16f602d67a007082852b33da54572f',
    'twirl n=4 seed=4': '8d8efd4c3e36d722c8d588b598c3fa6abb6c8b6e748c239f72fcc4751a531428',
    'twirl n=4 seed=104': 'f616d976d292a8d7be95efa56cff3e5ee498c1ceecf193cecd37d285c7ad9c83',
    'twirl n=5 seed=5': '717b380a267d196b24e2d1878c47a13ebb87385be72bb9cb8cd91cb4b0c118af',
    'twirl n=5 seed=105': '2af2069bc2d929249c5abcb32d99469dd911501e546c4626773c30ee868dfb05',
    'twirl n=6 seed=6': 'b263d5d816ecde76e951c6ee2b4d9c4df53dcd9c80ea51c553dbdc592b20be50',
    'twirl n=6 seed=106': '8730cdf117d776192a37886a8db752a54a4929c39c64509cf1eb30e494c04cde',
    'twirl n=7 seed=7': '709d8dc232bb6cdc43cb17bd63cd5e3db517c35f348ce00a9b250cbfcb3e29b8',
    'twirl n=7 seed=107': '8937aae085d1186f4b940497d43068a46f659ce63793975f07594b27b40ba1a2',
    'twirl n=8 seed=8': 'd0d5339badbd5079dd83ad92a9b50758c963b34d16fd95ebb042fccdbf8630f1',
    'twirl n=8 seed=108': '991cbf96c93041a5d9432c296a124da008eefa7868e4a8f9b816b9f439101ab7',
    'dicke n=1 seed=1': '48e2bb84b4beea3edf637bff0317985d5642c9d0a50cd205193598780d606c41',
    'dicke n=1 seed=101': 'fbd755b46b65f4b8fe790ac20fa8f89f9df927eb4728ec68983a247531a1f6ea',
    'dicke n=2 seed=2': '7bf5349dfc38bba9c23e494cdad57755512314941d87af72f53c8eb15b3f8f5c',
    'dicke n=2 seed=102': '1e6a02381e51ed059c0a17429b3cda5407602fa7e073267c1a26e8878b93baba',
    'dicke n=3 seed=3': '912b15010cd4089e68c35643078ee5bae5852cc5990fbec363ad0937967ab3ca',
    'dicke n=3 seed=103': 'df879db89290ba568c73d33f7008d4fd919ec33fd5edef1ab2c3b1651e6a2c68',
    'dicke n=4 seed=4': 'a5df2e02a43f16310c0dfc7940506aad195064ab955aa69da2d6436d16023af1',
    'dicke n=4 seed=104': 'c0979ff17267b82d9cf87283e60c6eb7c7e3806c201d4013e43acea02334a3ab',
    'dicke n=5 seed=5': 'acd270b2af411a0a2dbb7e54f9c086f12a1ff94653155d97578c5ed4e8fd3b23',
    'dicke n=5 seed=105': '569963471968a233f9683f1a336e59d1b888383ca8ee534b5e633e42ed6f64c6',
    'dicke n=6 seed=6': '461d9f914bab2191596d28e64fc1bfde9d46ab7c772243fb4960a965706b6e14',
    'dicke n=6 seed=106': 'd640ee88b80590fd73a375ca228331c510006d4809bb396257386701a63c3e71',
    'dicke n=7 seed=7': '24525e97b7a6122b04fc1c5da7dbfd4c1e519c4b1a3ca06246b25f66a48f7d12',
    'dicke n=7 seed=107': '21ccdb87661283fed93e5be1da6cab5bcfb4a40abf5d928215502201ab87c8d1',
    'dicke n=8 seed=8': '1ca7952f7c1fd26147c8685c7a02e03df80347c2bd0b5ec2a7fec8251a211cb6',
    'dicke n=8 seed=108': 'abcd0c497c6a71024ad4f4ece8ad135cff495c357caded8287125eb9fb3dd83b',
    'blocks n=1 seed=1': '81222b00baa36ebddaac059adb47ff0d380b73da9a75598d865855a890861006',
    'blocks n=1 seed=101': 'f630df80980211a9000cd6e9806aacfb7eb9cd1df4cb92c6f58757d2495c40d0',
    'blocks n=2 seed=2': '5b78adee29bb1d518ada3658b33a18c7935f4d368f75d5375c91f37ea26b068e',
    'blocks n=2 seed=102': 'e9c72a6f20eee31fabe6a66fb1e8b9c5be7ff49c1fe94b14296ace39f87a4f6f',
    'blocks n=3 seed=3': '9aeb2635251586c9c89f4788b737ecbaa58dee767926560986bfc1140a974918',
    'blocks n=3 seed=103': '120a71ed7cd4fbb1718d902652d0b7a5cc61b6ff90908f6396f5f90749b707c6',
    'blocks n=4 seed=4': 'bf3be181718dd1c6c781f7e870b0621b92e244afba857402565eafa1650adc39',
    'blocks n=4 seed=104': '6c96612bbadaf015ef23b1eb5f1f842cd786709dd8d31580523a493bb0381137',
    'blocks n=5 seed=5': '92379d3e68b03d55d76ea128c4c8448aefc8bc95a3cc37ca1d19f31798d5f41c',
    'blocks n=5 seed=105': 'ec5377173cc98463b0d7b64b1269e08d4eed1cfe3db9fd41ff17963d09199e5e',
    'blocks n=6 seed=6': 'e094a68669151f0188b0d93d1d911d452d56650b998ef6b9ed49ead7ed1c9fdb',
    'blocks n=6 seed=106': '6da2c2f31aa703b008913b45b75aed1e29d141f534823c4bab06f345436ff14c',
    'blocks n=7 seed=7': '33e8d873c6c6d3e76321af233f9745439d260ce8a312a30ece90d4784400b95d',
    'blocks n=7 seed=107': '0b36c8c6228fc6bcb8e3f40817e146a39ed5dd7a5159d6bf46281aef036d907e',
    'blocks n=8 seed=8': '1884e6bd7ff465342b0b6f88cfb79923ba1aad341bbeaed9f3cd0327697eaf15',
    'blocks n=8 seed=108': '5a9bdad15234fe3a73e6dd8324fcf89438b6940756609800654674df15c58c6f',
    'reconstruct n=1': '179da2d626df2b91c756254c04c929cdbc9974423d2c17eceeb7dc3bec6308b7',
    'reconstruct n=2': '28b4f320c1ccab7142ac1d0d8ff21b16863d2c33a2078f6d2d972a97440ef2e2',
    'reconstruct n=3': '230b0038500182350c01c84c7cb09fb978b9fc50cf04f210745673d587a439db',
    'reconstruct n=4': 'b26a0cc2fc5c0e41159ad3a567469956605aa5d827a5c487b0452f67794a9d03',
    'reconstruct n=5': '2a76eb75fe460fa75d135a46f5f0b1bddfb0e0925cf8f28a6622d34a42a0b3bc',
    'reconstruct n=6': '3b5a968da6d1d21a02752a431ec16e90448b6cb0378b7af0dc4db0af8ac74ccd',
    'reconstruct n=7': '851f4f14fd51c51c833c2df8c5069fb98fdea05757dcb4deca0c6f982d8e8965',
    'reconstruct n=8': '67312a151c73ece0a5d379da8672311ac7a19dab4eae8ed5f97e86d120d05d2d',
    'reconstruct n=9': 'ec872156341c3364a04733f074a24cfaeb41d176de20766b1ecd52ba1d03e4fb',
}
