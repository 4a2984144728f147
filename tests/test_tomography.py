"""PI states, measurement simulation, inversion, physicality projection."""

import itertools
import math

import numpy as np
import pytest

from pimub.errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    InvalidSpinError,
    MissingBasisError,
    NotNormalizedError,
    SchemaError,
)
from pimub.mub import (
    BasisLabel,
    MubFamily,
    pauli_expectations,
    reconstruct_identity_check,
    stabilizer_points,
)
from pimub.operators import build_x, build_z, is_density_matrix, permutation_matrix
from pimub.orbits import LabelPoint, expand_probabilities, minimal_bases
from pimub.tomography import (
    RECONSTRUCT_MODES,
    MeasurementRecord,
    PIStateSpec,
    dicke_state,
    exact_probabilities,
    fidelity,
    independent_parameter_count,
    is_permutation_invariant,
    multiplicity,
    pi_types,
    project_physical,
    random_density_matrix,
    random_pi_state,
    random_pure_state,
    reconstruct,
    record_from_json,
    record_to_json,
    sample_counts,
    spin_values,
    trace_distance,
    twirl,
    unmeasured_pi_types,
)
from pimub.tomography import _project_to_simplex

from conftest import family, field, orbit_table


# ----------------------------------------------------------------------
# Spin sector bookkeeping
# ----------------------------------------------------------------------

def test_spin_values():
    assert spin_values(2) == [1.0, 0.0]
    assert spin_values(3) == [1.5, 0.5]
    assert spin_values(5) == [2.5, 1.5, 0.5]


def test_multiplicity_worked_cases():
    assert multiplicity(2, 1) == 1
    assert multiplicity(2, 0) == 1
    assert multiplicity(3, 1.5) == 1
    assert multiplicity(3, 0.5) == 2
    for n in range(1, 9):
        assert multiplicity(n, n / 2) == 1


@pytest.mark.parametrize("n", range(1, 11))
def test_multiplicities_tile_the_hilbert_space(n):
    total = sum((int(2 * j) + 1) * multiplicity(n, j) for j in spin_values(n))
    assert total == 2**n


def test_multiplicity_rejects_bad_spins():
    for n, j in ((3, 1), (2, 0.5), (2, 2), (4, -1)):
        with pytest.raises(InvalidSpinError):
            multiplicity(n, j)


def test_independent_parameter_count_examples():
    assert independent_parameter_count(2) == 9
    assert independent_parameter_count(3) == 19
    assert independent_parameter_count(4) == 34


# ----------------------------------------------------------------------
# Twirl
# ----------------------------------------------------------------------

def literal_twirl(rho, n):
    """Oracle: the full n! average, permutation by permutation."""
    f = field(n)
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    for perm in itertools.permutations(range(n)):
        u = permutation_matrix(f, perm)
        out += u @ rho @ u.conj().T
    return out / math.factorial(n)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_twirl_matches_the_literal_group_average(n):
    rho = random_density_matrix(2**n, seed=n)
    assert np.abs(twirl(rho) - literal_twirl(rho, n)).max() < 1e-13


@pytest.mark.parametrize("n", (2, 3, 5))
def test_twirl_output_is_permutation_invariant(n):
    rho = twirl(random_density_matrix(2**n, seed=10 + n))
    assert is_permutation_invariant(rho, tol=1e-12)
    assert is_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-12)


def test_twirl_is_idempotent_and_caps_n():
    rho = twirl(random_density_matrix(8, seed=1))
    assert np.abs(twirl(rho) - rho).max() < 1e-13
    with pytest.raises(DimensionOverflowError):
        twirl(np.eye(2**9) / 2**9)


# ----------------------------------------------------------------------
# PI state generation
# ----------------------------------------------------------------------

def test_twirl_spec_requires_seed_and_cap():
    with pytest.raises(ValueError):
        random_pi_state(PIStateSpec(n=2, method="twirl"))
    with pytest.raises(DimensionOverflowError):
        random_pi_state(PIStateSpec.twirl(9, seed=0))


def test_twirl_state_is_reproducible():
    a = random_pi_state(PIStateSpec.twirl(3, seed=5))
    b = random_pi_state(PIStateSpec.twirl(3, seed=5))
    assert np.array_equal(a, b)


def test_dicke_point_mass_is_the_ground_projector():
    rho = random_pi_state(PIStateSpec.dicke(3, [1, 0, 0, 0]))
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() == 0.0


def test_dicke_states_are_symmetric_unit_vectors():
    for n in (2, 3, 4):
        for k in range(n + 1):
            vec = dicke_state(n, k)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-14
            rho = np.outer(vec, vec.conj())
            assert is_permutation_invariant(rho, tol=1e-14)


def test_dicke_mixture_validation():
    with pytest.raises(ValueError):
        random_pi_state(PIStateSpec.dicke(2, [0.5, 0.5]))  # needs n+1 weights
    with pytest.raises(ValueError):
        random_pi_state(PIStateSpec.dicke(2, [0.9, 0.2, -0.1]))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_spin_block_states_are_pi_densities(n):
    rng = np.random.default_rng(17)
    sectors = spin_values(n)
    probs = rng.dirichlet(np.ones(len(sectors)))
    blocks = [random_density_matrix(int(2 * j) + 1, seed=int(10 * j) + n) for j in sectors]
    rho = random_pi_state(PIStateSpec.spin_blocks(n, probs, blocks))
    assert is_density_matrix(rho, herm_tol=1e-12, trace_tol=1e-12)
    assert is_permutation_invariant(rho, tol=1e-12)


def test_symmetric_sector_point_mass_has_bounded_rank():
    for n in (2, 3):
        sectors = spin_values(n)
        blocks = [random_density_matrix(int(2 * j) + 1, seed=3) for j in sectors]
        probs = [1.0] + [0.0] * (len(sectors) - 1)
        rho = random_pi_state(PIStateSpec.spin_blocks(n, probs, blocks))
        rank = int((np.linalg.eigvalsh(rho) > 1e-12).sum())
        assert rank <= n + 1


@pytest.mark.parametrize("n", (2, 3))
def test_purity_respects_the_block_decomposition(n):
    # Tr(rho^2) = sum_j p_j^2 Tr(rho_j^2) / multiplicity(n, j)
    rng = np.random.default_rng(23 + n)
    sectors = spin_values(n)
    probs = rng.dirichlet(np.ones(len(sectors)))
    blocks = [random_density_matrix(int(2 * j) + 1, seed=int(2 * j) + 7) for j in sectors]
    rho = random_pi_state(PIStateSpec.spin_blocks(n, probs, blocks))
    direct = np.trace(rho @ rho).real
    predicted = sum(
        p**2 * np.trace(b @ b).real / multiplicity(n, j)
        for p, b, j in zip(probs, blocks, sectors)
    )
    assert abs(direct - predicted) < 1e-12


def test_spin_block_method_capped_at_three_qubits():
    with pytest.raises(DimensionOverflowError):
        random_pi_state(PIStateSpec.spin_blocks(4, [1, 0, 0], [np.eye(5) / 5, np.eye(3) / 3, np.eye(1)]))


# ----------------------------------------------------------------------
# Exact probabilities
# ----------------------------------------------------------------------

def test_maximally_mixed_gives_uniform_outcomes():
    f = field(3)
    fam = family(3)
    records = exact_probabilities(np.eye(8, dtype=complex) / 8.0, fam, fam.labels())
    assert len(records) == 9
    for rec in records:
        assert all(abs(p - 0.125) < 1e-12 for p in rec.data)


def test_projector_input_reproduces_the_overlap_law():
    f = field(2)
    fam = family(2)
    label = BasisLabel(f.element(0b01))
    nu0 = f.element(0b10)
    rho = fam.projector(label, nu0)
    for rec in exact_probabilities(rho, fam, fam.labels()):
        if rec.basis == label:
            assert abs(rec.data[nu0.bits] - 1.0) < 1e-12
            assert all(abs(p) < 1e-12 for b, p in enumerate(rec.data) if b != nu0.bits)
        else:
            assert all(abs(p - 0.25) < 1e-12 for p in rec.data)


def test_two_qubit_pi_state_has_equal_diagonal_slope_probabilities():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=21))
    theta1, theta2 = f.element(0b01), f.element(0b10)
    recs = {r.basis: r for r in exact_probabilities(rho, fam, fam.labels())}
    p11 = recs[BasisLabel(theta1)].data[theta1.bits]
    p22 = recs[BasisLabel(theta2)].data[theta2.bits]
    assert abs(p11 - p22) < 1e-12


def test_record_probabilities_sum_to_one():
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=2))
    for rec in exact_probabilities(rho, fam, fam.labels()):
        assert abs(rec.data.sum() - 1.0) < 1e-12


# ----------------------------------------------------------------------
# Shot sampling
# ----------------------------------------------------------------------

def _exact_record():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=31))
    return exact_probabilities(rho, fam, [fam.labels()[1]])[0]


def test_single_shot_yields_a_single_count():
    rec = sample_counts(_exact_record(), shots=1, seed=0)
    assert rec.shots == 1
    assert sorted(rec.data, reverse=True)[0] == 1
    assert rec.data.sum() == 1


def test_sampling_is_deterministic_for_fixed_seed():
    a = sample_counts(_exact_record(), shots=500, seed=77)
    b = sample_counts(_exact_record(), shots=500, seed=77)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(sample_counts(_exact_record(), shots=500, seed=78).data, a.data)


def test_counts_sum_to_shots_and_frequencies_normalize():
    rec = sample_counts(_exact_record(), shots=1234, seed=5)
    assert rec.data.sum() == 1234
    assert abs(rec.frequencies().sum() - 1.0) < 1e-12


def test_empirical_frequencies_converge_in_expectation():
    exact = _exact_record()
    p = exact.data

    def mean_l1(shots):
        devs = []
        for seed in range(10):
            rec = sample_counts(exact, shots=shots, seed=seed)
            freq = rec.frequencies()
            devs.append(np.abs(freq - p).sum())
        return np.mean(devs)

    errs = [mean_l1(s) for s in (1000, 10000, 100000)]
    assert errs[0] > errs[1] > errs[2]


def test_sampling_rejects_invalid_input():
    with pytest.raises(ValueError):
        sample_counts(_exact_record(), shots=0, seed=1)
    sampled = sample_counts(_exact_record(), shots=10, seed=1)
    with pytest.raises(ValueError):
        sample_counts(sampled, shots=10, seed=1)


def test_record_json_round_trip():
    f = field(2)
    exact = _exact_record()
    assert np.array_equal(record_from_json(f, record_to_json(exact)).data, exact.data)
    sampled = sample_counts(exact, shots=100, seed=9)
    again = record_from_json(f, record_to_json(sampled))
    assert again.shots == 100
    assert np.array_equal(again.data, sampled.data)


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------

def test_reconstruct_uniform_probabilities_gives_maximally_mixed():
    f = field(2)
    fam = family(2)
    rho = np.eye(4, dtype=complex) / 4.0
    records = exact_probabilities(rho, fam, minimal_bases(f))
    rho_hat = reconstruct(records, orbit_table(2), fam)
    assert np.abs(rho_hat - rho).max() < 1e-12


def test_two_qubit_exact_round_trip():
    f = field(2)
    fam = family(2)
    for seed in range(10):
        rho = random_pi_state(PIStateSpec.twirl(2, seed=seed))
        records = exact_probabilities(rho, fam, minimal_bases(f))
        rho_hat = reconstruct(records, orbit_table(2), fam)
        assert trace_distance(rho, rho_hat) < 1e-9


def test_reconstruct_requires_the_minimal_bases():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=3))
    records = exact_probabilities(rho, fam, minimal_bases(f)[:-1])
    with pytest.raises(MissingBasisError):
        reconstruct(records, orbit_table(2), fam)


def test_reconstruct_accepts_extra_bases():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=4))
    records = exact_probabilities(rho, fam, fam.labels())
    rho_hat = reconstruct(records, orbit_table(2), fam)
    assert trace_distance(rho, rho_hat) < 1e-9


def test_non_pi_state_is_not_recovered():
    # the scheme is complete only on the PI subspace
    f = field(2)
    fam = family(2)
    rho = random_pure_state(4, seed=8)
    records = exact_probabilities(rho, fam, minimal_bases(f))
    rho_hat = reconstruct(records, orbit_table(2), fam)
    assert trace_distance(rho, rho_hat) > 1e-3


@pytest.mark.parametrize("n", (1, 2, 3))
def test_stabilizer_expectations_match_direct_traces(n):
    # oracle: Tr(rho P) with P = (-i)^|alpha & beta| Z_alpha X_beta built from
    # the tensor-product operators; any state will do, PI or not
    f = field(n)
    fam = family(n)
    rho = random_density_matrix(f.size, seed=50 + n)
    for rec in exact_probabilities(rho, fam, fam.labels()):
        probs = np.array([rec.data[bits] for bits in range(f.size)])
        values = pauli_expectations(fam, rec.basis, probs)
        for (alpha, beta), value in zip(stabilizer_points(f, rec.basis), values):
            phase = (-1j) ** (alpha.bits & beta.bits).bit_count()
            direct = (phase * np.trace(rho @ build_z(alpha) @ build_x(beta))).real
            assert abs(value - direct) < 1e-12


@pytest.mark.parametrize("n", range(1, 8))
def test_exact_probabilities_match_dense_projectors(n):
    # oracle: Tr(rho P) with the dense projector of every vector of every
    # family basis, on a state that is not PI
    f = field(n)
    fam = family(n)
    rho = random_density_matrix(f.size, seed=70 + n)
    for rec in exact_probabilities(rho, fam, fam.labels()):
        assert rec.data.shape == (f.size,)
        for nu in f.elements():
            direct = np.sum(rho * fam.projector(rec.basis, nu).T).real  # Tr(rho P)
            assert abs(rec.data[nu.bits] - direct) <= 1e-12


def test_out_of_range_record_key_is_rejected():
    # an outcome key exists only in JSON; past it, a record of another
    # length (or of another n) is the same fault
    f = field(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=9))
    obj = record_to_json(exact_probabilities(rho, family(2), minimal_bases(f))[0])
    for bad in (-1, 4):
        obj["data"][3]["nu_bitmask"] = bad
        with pytest.raises(SchemaError, match="out of range"):
            record_from_json(f, obj)
    records, _, _ = _three_qubit_records()
    other_n = exact_probabilities(rho, family(2), minimal_bases(f)[1:2])[0]
    short = MeasurementRecord(n=3, basis=records[1].basis, data=records[1].data[:-1])
    for mode in RECONSTRUCT_MODES:
        for wrong in (other_n, short):
            records[1] = wrong
            with pytest.raises(SchemaError, match="outcome shape"):
                reconstruct(records, orbit_table(3), family(3), mode=mode)


def test_record_json_rejects_bad_shots_n_and_duplicate_outcomes():
    f = field(3)
    exact, = exact_probabilities(np.eye(8, dtype=complex) / 8.0, family(3), [minimal_bases(f)[1]])
    for shots in (0, -5, "x", 2.5, True):
        obj = record_to_json(sample_counts(exact, shots=100, seed=1))
        obj["shots"] = shots
        with pytest.raises(SchemaError, match="shots"):
            record_from_json(f, obj)
    obj = record_to_json(exact)
    with pytest.raises(SchemaError, match="n=3"):
        record_from_json(field(2), obj)
    del obj["n"]  # a record without its own n takes the file's
    assert np.array_equal(record_from_json(f, obj).data, exact.data)
    obj["data"].append(dict(obj["data"][0]))
    with pytest.raises(SchemaError, match="listed twice"):
        record_from_json(f, obj)


def test_pi_type_counts():
    for n in range(1, 7):
        assert len(pi_types(n)) == math.comb(n + 3, 3)
    assert pi_types(1) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_unmeasured_pi_types_of_the_minimal_bases():
    for n in (1, 2, 3, 4):
        assert unmeasured_pi_types(field(n), minimal_bases(field(n))) == []
    assert unmeasured_pi_types(field(5), minimal_bases(field(5))) == [(1, 4, 0), (4, 1, 0)]
    assert unmeasured_pi_types(field(5), family(5).labels()) == []


def test_full_family_recovers_five_qubit_pi_states():
    # the minimal bases miss two types at n = 5; the whole family misses none
    fam = family(5)
    for seed in range(3):
        rho = random_pi_state(PIStateSpec.twirl(5, seed=seed))
        rho_hat = reconstruct(exact_probabilities(rho, fam, fam.labels()), orbit_table(5), fam)
        assert trace_distance(rho, rho_hat) < 1e-9


def test_pi_subspace_estimate_is_permutation_invariant():
    f = field(3)
    fam = family(3)
    rho = random_pure_state(8, seed=12)
    rho_hat = reconstruct(exact_probabilities(rho, fam, minimal_bases(f)), orbit_table(3), fam)
    assert is_permutation_invariant(rho_hat, tol=1e-12)
    assert abs(np.trace(rho_hat) - 1.0) < 1e-12


def test_orbit_expansion_modes_remain_biased_for_three_qubits():
    f = field(3)
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=6))
    records = exact_probabilities(rho, fam, minimal_bases(f))
    assert trace_distance(rho, reconstruct(records, orbit_table(3), fam)) < 1e-9
    for mode in ("representative", "average"):
        rho_hat = reconstruct(records, orbit_table(3), fam, mode=mode)
        assert trace_distance(rho, rho_hat) > 1e-3


def _dense_orbit_sum(records, table, fam, mode):
    """Oracle: sum_(k,nu) p_(nu,k) P_(nu,k) - identity over the expanded
    orbit values, with every family basis expanded to a dense matrix."""
    f = fam.field
    measured = {
        rec.basis: np.array([rec.frequencies()[bits] for bits in range(f.size)])
        for rec in records
    }
    expanded = expand_probabilities(measured, table, mode=mode)
    rho = -np.eye(f.size, dtype=complex)
    for label in fam.labels():
        v = fam.basis(label)
        probs = expanded[label][[f.bits_from_index(i) for i in range(f.size)]]
        rho += (v * probs) @ v.conj().T
    return rho, expanded


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("mode", ("representative", "average"))
def test_orbit_modes_match_dense_projector_sum(n, mode):
    f = field(n)
    fam = family(n)
    table = orbit_table(n)
    rho = random_pi_state(PIStateSpec.twirl(n, seed=20 + n))
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=1000, seed=i) for i, r in enumerate(exact)]
    worst_total = 0.0
    for records in (exact, sampled):
        dense, expanded = _dense_orbit_sum(records, table, fam, mode)
        assert np.abs(reconstruct(records, table, fam, mode=mode) - dense).max() <= 1e-12
        totals = {label: probs.sum() for label, probs in expanded.items()}
        worst_total = max(worst_total, max(abs(t - 1.0) for t in totals.values()))
    # the representative expansion need not sum to one on unmeasured bases,
    # so the identity coefficient is not a fixed 2^n + 1 - 2^n
    if mode == "representative" and n >= 3:
        assert worst_total > 1e-3


def test_estimators_never_expand_a_basis(monkeypatch):
    def refuse(self, label):
        raise AssertionError(f"basis {label!r} expanded")

    monkeypatch.setattr(MubFamily, "basis", refuse)
    f = field(3)
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=31))
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=1000, seed=i) for i, r in enumerate(exact)]
    for mode in ("pi-subspace", "representative", "average"):
        project_physical(reconstruct(sampled, orbit_table(3), fam, mode=mode))
    assert np.abs(reconstruct_identity_check(fam, rho) - rho).max() < 1e-12


def test_reconstruct_rejects_unknown_mode_and_unnormalized_records():
    f = field(2)
    fam = family(2)
    records = exact_probabilities(np.eye(4, dtype=complex) / 4.0, fam, minimal_bases(f))
    with pytest.raises(ValueError):
        reconstruct(records, orbit_table(2), fam, mode="median")
    records[1].data[0] += 0.1
    with pytest.raises(NotNormalizedError):
        reconstruct(records, orbit_table(2), fam)


def test_estimators_never_hash_label_points(monkeypatch):
    def refuse(self):
        raise AssertionError(f"label point {self!r} hashed")

    f = field(3)
    fam = family(3)
    table = orbit_table(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=33))
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=1000, seed=i) for i, r in enumerate(exact)]
    monkeypatch.setattr(LabelPoint, "__hash__", refuse)
    for mode in RECONSTRUCT_MODES:
        reconstruct(sampled, table, fam, mode=mode)


def _three_qubit_records(seed=35):
    """Exact minimal-basis records of a PI state, and the smallest outcome
    of record 1 with another outcome of the same record."""
    fam = family(3)
    rho = random_pi_state(PIStateSpec.twirl(3, seed=seed))
    records = exact_probabilities(rho, fam, minimal_bases(field(3)))
    low = int(np.argmin(records[1].data))
    return records, low, (low + 1) % 8


@pytest.mark.parametrize("mode", RECONSTRUCT_MODES)
@pytest.mark.parametrize("bad", ("nan", "inf", "-inf", "pair"))
def test_reconstruct_rejects_non_finite_and_negative_entries(mode, bad):
    records, low, other = _three_qubit_records()
    data = records[1].data
    if bad == "pair":
        data[other] += 0.5
        data[low] -= 0.5
    else:
        data[low] = float(bad)
    with pytest.raises(NotNormalizedError) as info:
        reconstruct(records, orbit_table(3), family(3), mode=mode)
    assert "np.float64" not in str(info.value)


@pytest.mark.parametrize("mode", RECONSTRUCT_MODES)
def test_reconstruct_rejects_a_duplicated_basis(mode):
    records, _, _ = _three_qubit_records()
    with pytest.raises(SchemaError, match="more than once"):
        reconstruct(records + records[1:2], orbit_table(3), family(3), mode=mode)


@pytest.mark.parametrize("mode", RECONSTRUCT_MODES)
def test_roundoff_below_zero_is_accepted(mode):
    # exact records of pure and Dicke states hold entries down to about -3e-17
    records, low, other = _three_qubit_records()
    data = records[1].data
    data[other] += data[low] + 1e-17
    data[low] = -1e-17
    assert np.isfinite(reconstruct(records, orbit_table(3), family(3), mode=mode)).all()


@pytest.mark.parametrize("mode", RECONSTRUCT_MODES)
def test_omitted_outcome_reads_as_zero(mode):
    records, low, other = _three_qubit_records()
    data = records[1].data
    data[other] += data[low]
    data[low] = 0.0
    explicit = reconstruct(records, orbit_table(3), family(3), mode=mode)
    obj = record_to_json(records[1])
    del obj["data"][low]
    records[1] = record_from_json(field(3), obj)
    assert records[1].data[low] == 0.0
    omitted = reconstruct(records, orbit_table(3), family(3), mode=mode)
    assert np.array_equal(omitted, explicit)


# ----------------------------------------------------------------------
# Physicality projection
# ----------------------------------------------------------------------

def test_projection_is_idempotent_on_valid_pi_states():
    rho = random_pi_state(PIStateSpec.twirl(2, seed=13))
    assert np.abs(project_physical(rho) - rho).max() < 1e-10


def test_projection_solves_the_hand_case():
    out = project_physical(np.diag([1.1, -0.1]).astype(complex))
    assert np.abs(out - np.diag([1.0, 0.0])).max() < 1e-12


def test_projection_clips_and_renormalizes():
    out = project_physical(np.diag([0.8, 0.7, -0.3, -0.2]).astype(complex))
    evals = np.linalg.eigvalsh(out)
    assert evals.min() >= -1e-14
    assert abs(evals.sum() - 1.0) < 1e-12


def test_projection_is_the_nearest_pi_state_for_non_pi_input():
    # twirl-then-clip is the Frobenius-nearest PI state; clip-then-twirl is
    # PI and physical too, but farther away when the input is not PI
    rng = np.random.default_rng(17)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    herm = random_density_matrix(8, seed=17) + 0.2 * (g + g.conj().T)
    assert not is_permutation_invariant(herm)
    out = project_physical(herm)
    assert is_density_matrix(out, herm_tol=1e-12, trace_tol=1e-12)
    assert is_permutation_invariant(out, tol=1e-12)
    evals, evecs = np.linalg.eigh(herm)
    clip_then_twirl = twirl((evecs * _project_to_simplex(evals)) @ evecs.conj().T)
    assert np.linalg.norm(out - herm) < np.linalg.norm(clip_then_twirl - herm) - 1e-6


def test_noisy_reconstruction_projects_to_a_physical_pi_state():
    f = field(2)
    fam = family(2)
    rho = random_pi_state(PIStateSpec.twirl(2, seed=41))
    exact = exact_probabilities(rho, fam, minimal_bases(f))
    sampled = [sample_counts(r, shots=10000, seed=i) for i, r in enumerate(exact)]
    rho_hat = project_physical(reconstruct(sampled, orbit_table(2), fam))
    assert is_density_matrix(rho_hat, herm_tol=1e-12, trace_tol=1e-10)
    assert is_permutation_invariant(rho_hat, tol=1e-10)
    assert fidelity(rho, rho_hat) > 0.98


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def test_metrics_on_identical_and_orthogonal_states():
    rho = random_density_matrix(4, seed=2)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-12
    assert trace_distance(rho, rho) < 1e-12
    a = np.zeros((2, 2), dtype=complex)
    a[0, 0] = 1.0
    b = np.zeros((2, 2), dtype=complex)
    b[1, 1] = 1.0
    assert fidelity(a, b) < 1e-12
    assert abs(trace_distance(a, b) - 1.0) < 1e-12


def test_fidelity_mixed_vs_pure_against_direct_oracle():
    # for pure sigma the Uhlmann value collapses to sqrt(<psi|rho|psi>)
    rng = np.random.default_rng(6)
    rho = random_density_matrix(4, seed=6)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    sigma = np.outer(psi, psi.conj())
    expected = math.sqrt(float(np.vdot(psi, rho @ psi).real))
    assert abs(fidelity(rho, sigma) - expected) < 1e-12
    uniform = np.eye(4, dtype=complex) / 4.0
    assert abs(fidelity(uniform, sigma) ** 2 - 0.25) < 1e-12


def test_metrics_reject_mismatched_dimensions():
    with pytest.raises(DimensionMismatchError):
        fidelity(np.eye(2) / 2, np.eye(4) / 4)
    with pytest.raises(DimensionMismatchError):
        trace_distance(np.eye(2) / 2, np.eye(4) / 4)


def test_symmetry_of_metrics():
    a = random_density_matrix(8, seed=14)
    b = twirl(random_density_matrix(8, seed=15))
    assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10
    assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
