"""Command line: pipeline composability, determinism, exit codes."""

import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

import pimub.cli
from pimub.cli import main
from pimub.errors import PimubError
from pimub.gf2n import make_field
from pimub.mub import build_family
from pimub.operators import matrix_from_json, matrix_to_json
from pimub.orbits import enumerate_orbits, minimal_bases
from pimub.tomography import (PIStateSpec, exact_probabilities, project_physical,
                              random_density_matrix, random_pi_state, reconstruct,
                              record_from_json, record_to_json)

from conftest import (ESTIMATES, dense_fidelity, dense_trace_distance, estimate, family,
                      orbit_estimate, orbit_table)
from reference_data import ORBIT_EXPORT_SHA256


def run_cli(*argv):
    return main(list(argv))


# ----------------------------------------------------------------------
# field
# ----------------------------------------------------------------------

def test_field_export(tmp_path, capsys):
    out = tmp_path / "field.json"
    assert run_cli("field", "--n", "2", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 2
    assert obj["irreducible_poly"] == 0b111
    assert len(obj["selfdual_basis"]) == 2


def test_field_has_no_verify_flag(capsys):
    # every field make_field returns is irreducible and self-dual: Field() raises otherwise
    with pytest.raises(SystemExit) as exc:
        run_cli("field", "--n", "2", "--verify")
    assert exc.value.code == 2
    assert "unrecognized arguments: --verify" in capsys.readouterr().err


def test_field_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("field", "--n", "0")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("field", "--n", "13")
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", (
    (("--seed", "-1", "--exact"), "--seed must be >= 0"),
    (("--seed", "1", "--shots", str(10**20)), "--shots must lie in 1..9223372036854775807"),
    (("--seed", "1", "--shots", "0"), "--shots must lie in 1..9223372036854775807"),
))
def test_simulate_seed_and_shots_out_of_range_exit_2(argv, message, capsys):
    # numpy would otherwise raise ValueError (negative seed) or OverflowError
    # (shots past int64) with a traceback and exit 1
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--n", "3", *argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_simulate_accepts_the_largest_shot_count(tmp_path):
    out = tmp_path / "records.json"
    assert run_cli("simulate", "--n", "1", "--seed", "0", "--shots", str(2**63 - 1),
                   "--out", str(out)) == 0
    assert json.loads(out.read_text())["shots"] == 2**63 - 1


# ----------------------------------------------------------------------
# mubs / orbits
# ----------------------------------------------------------------------

def test_mubs_export_schema(tmp_path):
    out = tmp_path / "mubs.json"
    assert run_cli("mubs", "--n", "2", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 2
    assert len(obj["bases"]) == 5
    labels = [b["label"] for b in obj["bases"]]
    assert "vertical" in labels
    assert {"slope": 0} in labels
    for basis in obj["bases"]:
        assert len(basis["vectors"]) == 4


def test_mubs_export_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("mubs", "--n", "3", "--out", str(a))
    run_cli("mubs", "--n", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_orbits_json_and_csv(tmp_path, capsys):
    out = tmp_path / "orbits.json"
    assert run_cli("orbits", "--n", "3", "--out", str(out)) == 0
    report = capsys.readouterr().err
    assert "24" in report
    obj = json.loads(out.read_text())
    assert obj["orbit_count"] == 24
    assert obj["independent_count"] == 19

    csv_out = tmp_path / "orbits.csv"
    assert run_cli("orbits", "--n", "3", "--csv", "--out", str(csv_out)) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert len(lines) == 25  # header + 24 orbits


@pytest.mark.parametrize("n", range(1, 9))
def test_orbit_exports_match_their_frozen_digests(n, capsys):
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert run_cli("orbits", "--n", str(n)) == 0
    json_out = capsys.readouterr()
    assert run_cli("orbits", "--n", str(n), "--csv") == 0
    csv_out = capsys.readouterr()
    assert csv_out.err == json_out.err
    assert (digest(json_out.out), digest(csv_out.out), digest(json_out.err)) == ORBIT_EXPORT_SHA256[n]


# ----------------------------------------------------------------------
# simulate / reconstruct pipeline
# ----------------------------------------------------------------------

def test_exact_pipeline_round_trip(tmp_path):
    rec = tmp_path / "records.json"
    rep = tmp_path / "report.json"
    assert run_cli("simulate", "--n", "2", "--seed", "3", "--exact", "--out", str(rec)) == 0
    assert run_cli("reconstruct", "--records", str(rec), "--out", str(rep)) == 0
    report = json.loads(rep.read_text())
    assert report["n"] == 2
    assert report["orbit_count"] == 13
    assert report["independent_count"] == 9
    assert report["physical"]
    assert report["trace_distance"] < 1e-9
    assert report["fidelity"] > 1 - 1e-9
    assert len(report["bases_used"]) == 4


def test_default_mode_is_exact_for_three_qubits(tmp_path):
    rec = tmp_path / "records.json"
    out = tmp_path / "report.json"
    assert run_cli("simulate", "--n", "3", "--seed", "5", "--exact", "--out", str(rec)) == 0
    assert run_cli("reconstruct", "--records", str(rec), "--out", str(out)) == 0
    assert json.loads(out.read_text())["trace_distance"] < 1e-9
    # the paper's orbit expansion of the same records is exact only for n <= 2
    payload = json.loads(rec.read_text())
    records = [record_from_json(make_field(3), obj) for obj in payload["records"]]
    expanded = orbit_estimate(family(3), orbit_table(3), [r.basis for r in records],
                              np.array([r.data for r in records]))
    assert dense_trace_distance(matrix_from_json(payload["truth"]), expanded) > 1e-3


def test_reconstruct_has_no_mode_flag(tmp_path, capsys):
    rec = tmp_path / "records.json"
    assert run_cli("simulate", "--n", "2", "--seed", "3", "--exact", "--out", str(rec)) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("reconstruct", "--records", str(rec), "--mode", "pi-subspace")
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("reconstruct", "--help")
    assert exc.value.code == 0
    assert "--mode" not in capsys.readouterr().out


@pytest.mark.parametrize("n", (2, 5))
def test_cli_builds_only_the_bases_it_reads(tmp_path, monkeypatch, n):
    calls = []

    def spy(field, labels=None):
        calls.append(labels)
        return build_family(field, labels)

    monkeypatch.setattr(pimub.cli, "build_family", spy)
    rec = tmp_path / "records.json"
    assert run_cli("simulate", "--n", str(n), "--seed", "1", "--exact", "--out", str(rec)) == 0
    assert run_cli("reconstruct", "--records", str(rec), "--out", str(tmp_path / "report.json")) == 0
    minimal = minimal_bases(make_field(n))
    assert calls == [minimal, minimal]


@pytest.mark.parametrize("n", range(1, 7))
def test_default_report_state_is_the_full_family_estimate(tmp_path, n):
    rec = tmp_path / "records.json"
    rep = tmp_path / "report.json"
    assert run_cli("simulate", "--n", str(n), "--seed", "4", "--shots", "2000",
                   "--out", str(rec)) == 0
    assert run_cli("reconstruct", "--records", str(rec), "--project", "--out", str(rep)) == 0
    f = make_field(n)
    records = [record_from_json(f, obj) for obj in json.loads(rec.read_text())["records"]]
    full = project_physical(reconstruct(records, enumerate_orbits(f), build_family(f)))
    assert json.loads(rep.read_text())["state"] == matrix_to_json(full)


def test_reconstruct_past_the_spin_block_cap(tmp_path):
    # n = 9 has no spin-block table, and the PI-subspace estimate takes the same path as below it
    n = 9
    f = make_field(n)
    bases = minimal_bases(f)
    fam = build_family(f, bases)
    weights = np.random.default_rng(9).dirichlet(np.ones(n + 1))
    records = exact_probabilities(random_pi_state(PIStateSpec.dicke(n, weights)), fam, bases)
    rec = tmp_path / "records.json"
    rep = tmp_path / "report.json"
    rec.write_text(json.dumps({"n": n, "records": [record_to_json(r) for r in records]}))
    assert run_cli("reconstruct", "--records", str(rec), "--out", str(rep)) == 0
    state = matrix_from_json(json.loads(rep.read_text())["state"])
    assert np.abs(state - reconstruct(records, None, fam)).max() <= 1e-13


def test_sampled_pipeline_with_projection(tmp_path):
    rec = tmp_path / "records.json"
    rep = tmp_path / "report.json"
    assert run_cli(
        "simulate", "--n", "2", "--seed", "4", "--shots", "20000", "--out", str(rec)
    ) == 0
    payload = json.loads(rec.read_text())
    assert payload["shots"] == 20000
    assert all(r.get("shots") == 20000 for r in payload["records"])
    assert run_cli("reconstruct", "--records", str(rec), "--project", "--out", str(rep)) == 0
    report = json.loads(rep.read_text())
    assert report["physical"]
    assert report["fidelity"] > 0.97


@pytest.mark.parametrize("method", ("twirl", "dicke", "blocks"))
def test_simulate_methods_are_deterministic(tmp_path, method):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("simulate", "--n", "2", "--seed", "11", "--method", method, "--exact", "--out", str(a))
    run_cli("simulate", "--n", "2", "--seed", "11", "--method", method, "--exact", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_from_state_file(tmp_path):
    state = tmp_path / "state.json"
    rec = tmp_path / "records.json"
    rep = tmp_path / "report.json"
    rho = random_pi_state(PIStateSpec.twirl(2, seed=8))
    state.write_text(json.dumps(matrix_to_json(rho)))
    assert run_cli(
        "simulate", "--n", "2", "--seed", "1", "--exact",
        "--state", str(state), "--out", str(rec),
    ) == 0
    assert run_cli("reconstruct", "--records", str(rec), "--state", str(state), "--out", str(rep)) == 0
    report = json.loads(rep.read_text())
    assert report["trace_distance"] < 1e-9
    rho_hat = matrix_from_json(report["state"])
    assert np.abs(rho_hat - rho).max() < 1e-9


def test_non_pi_truth_is_scored_by_the_dense_metrics(tmp_path):
    # at n = 5 the metrics score PI pairs on spin blocks; a non-PI truth
    # must still get the 2^n-sided values
    state, rec, rep = tmp_path / "state.json", tmp_path / "records.json", tmp_path / "report.json"
    state.write_text(json.dumps(matrix_to_json(random_density_matrix(32, seed=5))))
    assert run_cli("simulate", "--n", "5", "--seed", "5", "--shots", "1000", "--state", str(state),
                   "--out", str(rec)) == 0
    assert run_cli("reconstruct", "--records", str(rec), "--project", "--state", str(state),
                   "--out", str(rep)) == 0
    report = json.loads(rep.read_text())
    truth = matrix_from_json(json.loads(state.read_text()))
    rho_hat = matrix_from_json(report["state"])
    assert report["fidelity"] == dense_fidelity(truth, rho_hat)
    assert report["trace_distance"] == dense_trace_distance(truth, rho_hat)


def test_unphysical_estimate_reports_no_fidelity(tmp_path):
    # two slope bases both claiming a deterministic outcome are jointly
    # impossible, so the linear inversion leaves the state set; the report
    # must flag it and withhold the fidelity number
    records = []
    for basis in ({"slope": 0}, {"slope": 1}, {"slope": 3}, "vertical"):
        point = {"nu_bitmask": 0, "p": 1.0}
        rest = [{"nu_bitmask": b, "p": 0.0} for b in (1, 2, 3)]
        records.append({"basis": basis, "data": [point] + rest})
    rec = tmp_path / "records.json"
    rec.write_text(json.dumps({
        "n": 2,
        "records": records,
        "truth": matrix_to_json(np.eye(4, dtype=complex) / 4.0),
    }))
    rep = tmp_path / "report.json"
    assert run_cli("reconstruct", "--records", str(rec), "--out", str(rep)) == 0
    report = json.loads(rep.read_text())
    assert not report["physical"]
    assert report["fidelity"] is None
    assert report["trace_distance"] is not None
    # projecting restores a physical state and with it a fidelity value
    rep2 = tmp_path / "report2.json"
    assert run_cli("reconstruct", "--records", str(rec), "--project", "--out", str(rep2)) == 0
    report2 = json.loads(rep2.read_text())
    assert report2["physical"]
    assert 0.0 <= report2["fidelity"] <= 1.0


def test_reconstruct_missing_file_reports_json_error(tmp_path, capsys):
    assert run_cli("reconstruct", "--records", str(tmp_path / "nope.json")) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "error"
    assert "nope.json" in err["message"]


def _json_error(capsys) -> dict:
    """The one stderr line of a failed command, parsed: {"error", "message"}."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert set(err) == {"error", "message"}
    return err


def _reconstruct_input(tmp_path, flag, path):
    """``reconstruct`` argv that reads ``path`` through ``flag``, --records or --state."""
    if flag == "--records":
        return ["reconstruct", "--records", str(path)]
    records = tmp_path / "records.json"
    assert run_cli("simulate", "--n", "2", "--seed", "1", "--exact", "--out", str(records)) == 0
    return ["reconstruct", "--records", str(records), "--state", str(path)]


@pytest.mark.parametrize("flag", ("--records", "--state"))
def test_an_input_that_is_a_directory_reports_json_error(tmp_path, capsys, flag):
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run_cli(*_reconstruct_input(tmp_path, flag, folder)) == 1
    err = _json_error(capsys)
    assert err["error"] == "error"
    assert err["message"].startswith(f"cannot read {folder}: ")


@pytest.mark.parametrize("content", (b"\xff\xfe{}", b'{"n": 1' + b"0" * 5000 + b"}",
                                     b"[" * 100_000 + b"]" * 100_000),
                         ids=("utf16-byte-order-mark", "overlong-integer", "deeply-nested"))
@pytest.mark.parametrize("flag", ("--records", "--state"))
def test_an_input_that_does_not_decode_reports_json_error(tmp_path, capsys, flag, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert run_cli(*_reconstruct_input(tmp_path, flag, bad)) == 1
    err = _json_error(capsys)
    assert err["error"] == "schema"
    assert err["message"].startswith(f"invalid JSON in {bad}: ")


def test_an_output_that_cannot_be_written_reports_json_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert run_cli("field", "--n", "2", "--out", str(out)) == 1
    err = _json_error(capsys)
    assert err["error"] == "error"
    assert err["message"].startswith(f"cannot write {out}: ")


def test_reconstruct_rejects_malformed_records(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for payload in ({"n": 2, "records": [{"basis": "nosuch"}]}, {"n": "x", "records": []}):
        bad.write_text(json.dumps(payload))
        assert run_cli("reconstruct", "--records", str(bad)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema"


@pytest.mark.parametrize("records", (5, None, "abc", {}))
def test_reconstruct_rejects_records_that_are_not_a_list(tmp_path, capsys, records):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 2, "records": records}))
    assert run_cli("reconstruct", "--records", str(bad)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "schema"


def test_reconstruct_rejects_out_of_range_nu_bitmask(tmp_path):
    records = tmp_path / "records.json"
    assert run_cli("simulate", "--n", "2", "--seed", "1", "--exact", "--out", str(records)) == 0
    payload = json.loads(records.read_text())
    payload["records"][0]["data"][0]["nu_bitmask"] = 99
    records.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "pimub.cli", "reconstruct", "--records", str(records)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "schema"
    assert "99" in err["message"]


@pytest.mark.parametrize("mode", ESTIMATES)
@pytest.mark.parametrize("bad", ("nan", "inf", "pair", "duplicate"))
def test_reconstruct_rejects_invalid_records_as_json(tmp_path, capsys, mode, bad):
    records = tmp_path / "records.json"
    assert run_cli("simulate", "--n", "3", "--seed", "1", "--exact", "--out", str(records)) == 0
    payload = json.loads(records.read_text())
    data = payload["records"][1]["data"]
    low = min(data, key=lambda item: item["p"])
    if bad == "duplicate":
        payload["records"].append(payload["records"][1])
    elif bad == "pair":
        next(item for item in data if item is not low)["p"] += 0.5
        low["p"] -= 0.5
    else:
        low["p"] = float(bad)
    records.write_text(json.dumps(payload))
    code = run_cli("reconstruct", "--records", str(records), "--project")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == ("schema" if bad == "duplicate" else "not-normalized")
    assert "np.float64" not in err["message"]
    # the command reports the error that each estimate of the same records raises
    parsed = [record_from_json(make_field(3), obj) for obj in payload["records"]]
    with pytest.raises(PimubError) as info:
        estimate(parsed, orbit_table(3), family(3), mode)
    assert (info.value.code, str(info.value)) == (err["error"], err["message"])


@pytest.mark.parametrize("bad", ("shots-0", "shots-x", "other-n", "nu-twice"))
def test_reconstruct_rejects_bad_record_fields_as_json(tmp_path, capsys, bad):
    records, small = tmp_path / "records.json", tmp_path / "small.json"
    assert run_cli("simulate", "--n", "3", "--seed", "1", "--shots", "100", "--out", str(records)) == 0
    payload = json.loads(records.read_text())
    record = payload["records"][1]
    if bad == "shots-0":
        record["shots"] = 0
    elif bad == "shots-x":
        record["shots"] = "x"
    elif bad == "other-n":
        assert run_cli("simulate", "--n", "2", "--seed", "1", "--shots", "100", "--out", str(small)) == 0
        payload["records"][1] = json.loads(small.read_text())["records"][1]
    else:
        record["data"].append(dict(record["data"][0]))
    records.write_text(json.dumps(payload))
    assert run_cli("reconstruct", "--records", str(records)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "schema"


@pytest.mark.parametrize("bad", ("nu-fraction", "count-fraction", "nu-string", "n-fraction"))
def test_reconstruct_rejects_non_integer_fields_as_json(tmp_path, bad):
    records = tmp_path / "records.json"
    assert run_cli("simulate", "--n", "2", "--seed", "1", "--shots", "9", "--out", str(records)) == 0
    payload = json.loads(records.read_text())
    data = payload["records"][0]["data"]
    if bad == "nu-fraction":
        data[1]["nu_bitmask"] = 1.5
    elif bad == "count-fraction":
        data[1]["count"] += 0.5
        data[2]["count"] -= 0.5
    elif bad == "nu-string":
        data[1]["nu_bitmask"] = "1"
    else:
        payload["n"] = 2.5
    records.write_text(json.dumps(payload))
    proc = subprocess.run(
        [sys.executable, "-m", "pimub.cli", "reconstruct", "--records", str(records)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "schema"
    assert "must be an integer" in err["message"]


_PURE = matrix_to_json(np.diag([1.0, 0.0, 0.0, 0.0]))
# state JSON and the fragment of the schema error it must raise.  The bool and
# string entries would read as the valid entry [1.0, 0.0] if numpy converted them
_BAD_STATES = {
    "non-hermitian": (matrix_to_json(np.eye(4) / 4 + 0.3 * np.eye(4, k=1)), "state is not"),
    "negative": (matrix_to_json(np.diag([0.75, 0.5, 0.25, -0.5])), "state is not"),
    "trace": (matrix_to_json(np.eye(4) * 0.35), "state is not"),
    **{name: ({**_PURE, "entries": [entry] + _PURE["entries"][1:]}, "malformed matrix JSON")
       for name, entry in (("bool-entry", [True, 0.0]), ("string-entry", ["1", 0.0]),
                           ("null-entry", [None, 0.0]), ("short-entry", [1.0]),
                           ("long-entry", [1.0, 0.0, 0.0]), ("non-list-entry", 1.0))},
}


@pytest.mark.parametrize("where", ("simulate", "reconstruct", "truth"))
@pytest.mark.parametrize("bad", list(_BAD_STATES))
def test_state_files_must_hold_density_matrices(tmp_path, capsys, where, bad):
    obj, message = _BAD_STATES[bad]
    state, records = tmp_path / "state.json", tmp_path / "records.json"
    state.write_text(json.dumps(obj))
    if where == "simulate":
        argv = ["simulate", "--n", "2", "--seed", "1", "--exact", "--state", str(state),
                "--out", str(records)]
    else:
        assert run_cli("simulate", "--n", "2", "--seed", "1", "--exact", "--out", str(records)) == 0
        argv = ["reconstruct", "--records", str(records)]
        if where == "reconstruct":
            argv += ["--state", str(state)]
        else:
            payload = json.loads(records.read_text())
            payload["truth"] = obj
            records.write_text(json.dumps(payload))
    assert run_cli(*argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "schema"
    assert message in err["message"]


def test_simulate_rejects_a_state_asymmetric_beyond_the_tolerance(tmp_path, capsys):
    # positive, of trace 1, and Hermitian only to 5e-7: outside the 1e-12 gate
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_json(np.array([[0.5, 0.1 + 5e-7], [0.1, 0.5]]))))
    argv = ["simulate", "--n", "1", "--seed", "1", "--exact", "--state", str(state),
            "--out", str(tmp_path / "records.json")]
    assert run_cli(*argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "schema"


@pytest.mark.parametrize("n", (1, 2, 3))
@pytest.mark.parametrize("method", ("twirl", "dicke", "blocks"))
def test_simulated_truths_pass_the_state_check(tmp_path, n, method):
    records = tmp_path / "records.json"
    assert run_cli("simulate", "--n", str(n), "--seed", "2", "--method", method, "--exact",
                   "--out", str(records)) == 0
    assert run_cli("reconstruct", "--records", str(records), "--out", str(tmp_path / "r.json")) == 0


def test_blocks_method_round_trips_past_three_qubits(tmp_path):
    records, report = tmp_path / "records.json", tmp_path / "report.json"
    assert run_cli("simulate", "--n", "4", "--seed", "2", "--method", "blocks", "--exact",
                   "--out", str(records)) == 0
    assert run_cli("reconstruct", "--records", str(records), "--project", "--out", str(report)) == 0
    assert json.loads(report.read_text())["fidelity"] > 1 - 1e-9


def test_simulate_rejects_dimension_mismatch(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_json(np.eye(8) / 8)))
    code = run_cli(
        "simulate", "--n", "2", "--seed", "1", "--exact",
        "--state", str(state), "--out", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


@pytest.mark.parametrize("bad", ("p-string", "slope-float", "dim-float"))
def test_reconstruct_rejects_non_number_fields_as_json(tmp_path, capsys, bad):
    records = tmp_path / "records.json"
    assert run_cli("simulate", "--n", "2", "--seed", "1", "--exact", "--out", str(records)) == 0
    payload = json.loads(records.read_text())
    record = next(rec for rec in payload["records"] if rec["basis"] != "vertical")
    if bad == "p-string":
        record["data"][0]["p"] = str(record["data"][0]["p"])
    elif bad == "slope-float":
        record["basis"]["slope"] = float(record["basis"]["slope"])
    else:
        payload["truth"]["dim"] = 4.0
    records.write_text(json.dumps(payload))
    assert run_cli("reconstruct", "--records", str(records)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "schema"


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_prints_its_rows_in_a_fixed_order(capsys):
    assert run_cli("verify", "--n", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "verification suites for n=2"
    assert lines[-1] == "all suites passed"
    assert [line.split("  (")[0] for line in lines[1:-1]] == [
        "  [PASS] field: polynomial irreducible",
        "  [PASS] field: self-dual Gram identity",
        "  [PASS] operators: commutation signs",
        "  [PASS] operators: X = F Z F",
        "  [PASS] operators: F is the tensor-power transform",
        "  [PASS] operators: swap matrix equals its field form",
        "  [PASS] operators: label swap equals bit swap",
        "  [PASS] operators: [swap, F] = 0",
        "  [PASS] mub: within-basis Gram identity",
        "  [PASS] mub: cross-basis overlaps 1/2^n",
        "  [PASS] mub: completeness sum",
        "  [PASS] mub: swap escapes match field arithmetic",
        "  [PASS] mub: both-index swap rule verified",
        "  [INFO] mub: alternate (nu-trace) rule",
        "  [PASS] orbits: partition covers all label points",
        "  [PASS] orbits: independent count matches spin-block parameters",
        "  [INFO] orbits: closed-form orbit count",
        "  [PASS] tomography: minimal-basis exact round trip",
        "  [PASS] tomography: PI-subspace exact round trip",
    ]


@pytest.mark.parametrize("value", ("0", "-1", "nan", "inf"))
def test_verify_tolerance_must_be_positive_and_finite(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--n", "2", "--tolerance", value)
    assert exc.value.code == 2
    assert "--tolerance must be positive and finite" in capsys.readouterr().err


def test_verify_passes_for_one_and_two_qubits(capsys):
    assert run_cli("verify", "--n", "1") == 0
    assert run_cli("verify", "--n", "2") == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "both-index swap rule verified" in out


def test_verify_reports_the_orbit_expansion_as_info_above_two_qubits(capsys):
    # the expansion is exact only for n <= 2, so above that its row shows the
    # bias and gates nothing: n = 3 and 4 pass on every other row
    for n in (3, 4):
        assert run_cli("verify", "--n", str(n)) == 0
        out = capsys.readouterr().out
        assert "[PASS] mub: swap escapes match field arithmetic" in out
        assert "[PASS] mub: both-index swap rule verified" in out
        assert "closed-form orbit count" in out
        assert out.splitlines()[-1] == "all suites passed"
        row = re.search(r"\[INFO\] tomography: minimal-basis exact round trip  "
                        r"\(orbit expansion, max trace distance (\S+)\)$", out, re.MULTILINE)
        assert float(row.group(1)) > 0.1


def test_verify_gates_the_orbit_expansion_up_to_two_qubits(capsys):
    # exact at n = 2, so a tolerance below roundoff fails the row
    assert run_cli("verify", "--n", "2", "--tolerance", "1e-20") == 1
    out = capsys.readouterr().out
    assert "[FAIL] tomography: minimal-basis exact round trip  (orbit expansion" in out


def test_verify_reports_the_pi_subspace_round_trip(capsys):
    assert run_cli("verify", "--n", "3") == 0
    assert "[PASS] tomography: PI-subspace exact round trip" in capsys.readouterr().out
    assert run_cli("verify", "--n", "5") == 1
    out = capsys.readouterr().out
    assert "[FAIL] tomography: PI-subspace exact round trip" in out
    assert "(1, 4, 0), (4, 1, 0)" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pimub.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pimub" in proc.stdout


def test_family_export_is_deterministic_across_processes(tmp_path):
    outs = []
    for name in ("p1.json", "p2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "pimub.cli", "mubs", "--n", "2", "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
