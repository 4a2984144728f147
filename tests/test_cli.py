"""Command line: pipeline composability, determinism, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from pimub.cli import main
from pimub.operators import matrix_from_json, matrix_to_json
from pimub.tomography import PIStateSpec, random_pi_state


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


def test_field_verify_flag(tmp_path):
    out = tmp_path / "field8.json"
    assert run_cli("field", "--n", "8", "--verify", "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["checks"] == {"irreducible": True, "selfdual_gram_identity": True}


def test_field_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("field", "--n", "0")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("field", "--n", "13")
    assert exc.value.code == 2


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
    # exact inputs: orbit-average combination agrees with the default
    rep2 = tmp_path / "report_avg.json"
    assert run_cli(
        "reconstruct", "--records", str(rec), "--mode", "average", "--out", str(rep2)
    ) == 0
    assert json.loads(rep2.read_text())["trace_distance"] < 1e-9


def test_default_mode_is_exact_for_three_qubits(tmp_path):
    rec = tmp_path / "records.json"
    assert run_cli("simulate", "--n", "3", "--seed", "5", "--exact", "--out", str(rec)) == 0
    reports = {}
    for mode in (None, "pi-subspace", "representative", "average"):
        out = tmp_path / f"report-{mode}.json"
        extra = [] if mode is None else ["--mode", mode]
        assert run_cli("reconstruct", "--records", str(rec), *extra, "--out", str(out)) == 0
        reports[mode] = out.read_bytes()
    assert reports[None] == reports["pi-subspace"]
    assert json.loads(reports[None])["trace_distance"] < 1e-9
    # the orbit expansion is exact only for n <= 2
    assert json.loads(reports["representative"])["trace_distance"] > 1e-3
    assert json.loads(reports["average"])["trace_distance"] > 1e-3


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


def test_reconstruct_rejects_malformed_records(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for payload in ({"n": 2, "records": [{"basis": "nosuch"}]}, {"n": "x", "records": []}):
        bad.write_text(json.dumps(payload))
        assert run_cli("reconstruct", "--records", str(bad)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "schema"


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


@pytest.mark.parametrize("mode", ("pi-subspace", "representative", "average"))
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
    code = run_cli("reconstruct", "--records", str(records), "--mode", mode, "--project")
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == ("schema" if bad == "duplicate" else "not-normalized")
    assert "np.float64" not in err["message"]


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


_BAD_STATES = {
    "non-hermitian": np.eye(4) / 4 + 0.3 * np.eye(4, k=1),
    "negative": np.diag([0.75, 0.5, 0.25, -0.5]),
    "trace": np.eye(4) * 0.35,
}


@pytest.mark.parametrize("where", ("simulate", "reconstruct", "truth"))
@pytest.mark.parametrize("bad", list(_BAD_STATES))
def test_state_files_must_hold_density_matrices(tmp_path, capsys, where, bad):
    state, records = tmp_path / "state.json", tmp_path / "records.json"
    state.write_text(json.dumps(matrix_to_json(_BAD_STATES[bad])))
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
            payload["truth"] = matrix_to_json(_BAD_STATES[bad])
            records.write_text(json.dumps(payload))
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


def test_simulate_rejects_dimension_mismatch(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(matrix_to_json(np.eye(8) / 8)))
    code = run_cli(
        "simulate", "--n", "2", "--seed", "1", "--exact",
        "--state", str(state), "--out", str(tmp_path / "r.json"),
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "schema"


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_passes_for_one_and_two_qubits(capsys):
    assert run_cli("verify", "--n", "1") == 0
    assert run_cli("verify", "--n", "2") == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert "both-index swap rule verified" in out


def test_verify_fails_for_three_qubits_and_says_why(capsys):
    assert run_cli("verify", "--n", "3") == 1
    out = capsys.readouterr().out
    assert "[PASS] mub: swap escapes match field arithmetic" in out
    assert "[PASS] mub: both-index swap rule verified" in out
    assert "[FAIL] tomography: minimal-basis exact round trip" in out
    assert "closed-form orbit count" in out


def test_verify_reports_the_pi_subspace_round_trip(capsys):
    assert run_cli("verify", "--n", "3") == 1
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
