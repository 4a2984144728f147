"""The three benchmark workloads and the metrics they report.

Every workload is a closed loop: one client issues one operation (a CLI
round trip or an in-process trial), waits for it, then issues the next.
Operations run for at least ``seconds`` and at least a minimum count, so
that every percentile has samples beyond it.  Outputs are checked outside
the timed part; each operation that raised, exited nonzero or failed a check
counts once in ``failed``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pimub import gf2n, mub, operators, orbits, tomography
from pimub.errors import PimubError

from tracing import Tracer, per_op_count, per_op_median, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "cli_roundtrip_n6": {"kind": "cli", "n": 6, "shots": 10_000},
    "study_n6": {"kind": "study", "n": 6, "shots": 10_000},
    "study_n3": {"kind": "study", "n": 3, "shots": 100_000},
}

MIN_ROUNDTRIPS = 3
MIN_TRIALS = 100  # so that at least ten trials lie beyond p90
# set-up is timed in two batches, before and after the measured loop, so
# that its median spans the run instead of one moment of it; a batch
# repeats set-up until this long has been spent (and a minimum count)
SETUP_BATCH_S = 1.0
CLI_TIMEOUT_S = 120
MATCH_TOL = 1e-9  # CLI estimate against the in-process library estimate
SEED_STRIDE = 100_000  # operation i of workload seed s uses seed s * stride + i

END_TO_END_UNITS = {
    "roundtrip_s": "s",
    "simulate_s": "s",
    "reconstruct_s": "s",
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_p90_ms": "ms",
    "setup_s": "s",
    "fidelity_median": "1",
    "trace_distance_median": "1",
    "peak_rss_mb": "MB",
}

# On a shared host the machine's speed drifts by up to 1.5x in phases of
# seconds to minutes, and slowdowns only ever add time.  A run's mean or
# median trial time follows the share of the run spent in slow phases, so
# across seeds it spread by 0.3.  Every run of a study has hundreds of
# trials, and its fastest ones land in fast phases: the study part times
# are this percentile of the run's trial times, which spread by about 0.1.
# The CLI workload has only a few round trips per run, too few for a low
# percentile to be steady, so its command times are means.
FASTEST_PERCENTILE = 1

# Printed and stored, but left out of the result line and BENCHMARK.json,
# because their spread across seeds came too close to the largest bound:
# cli_roundtrip_n6 scores only a few states per run, so its median trace
# distance spreads by about a fifth; a per-run trial median and the trial
# throughput follow the host's slow phases (see FASTEST_PERCENTILE).
PRINTED_ONLY = {"trace_distance_median", "trial_p50_ms", "trials_per_s"}

# metric -> (span names summed per operation, self time instead of inclusive)
LAYER_TIMES = {
    "gf2n.field_s": ({"gf2n.make_field"}, False),
    "operators.fourier_s": ({"operators.fourier"}, False),
    "mub.build_family_s": ({"mub.build_family"}, False),
    "mub.build_slope_basis_s": ({"mub.build_slope_basis"}, False),
    "mub.build_vertical_s": ({"mub.build_vertical"}, False),
    "orbits.enumerate_orbits_s": ({"orbits.enumerate_orbits"}, False),
    "orbits.expand_probabilities_s": ({"orbits.expand_probabilities"}, False),
    "tomography.reconstruct_self_s": ({"tomography.reconstruct"}, True),
    "tomography.exact_probabilities_s": ({"tomography.exact_probabilities"}, False),
    "tomography.project_physical_s": ({"tomography.project_physical"}, False),
    "tomography.random_pi_state_s": ({"tomography.random_pi_state"}, False),
    "tomography.sample_counts_s": ({"tomography.sample_counts"}, False),
    "tomography.metrics_s": ({"tomography.fidelity", "tomography.trace_distance"}, False),
    "cli.simulate_self_s": ({"cli.simulate"}, True),
    "cli.reconstruct_self_s": ({"cli.reconstruct"}, True),
}

PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    "mub.bases_used_ratio": "1",
    "cli.json_bytes_written": "bytes",
    "cli.json_bytes_read": "bytes",
    "process.startup_s": "s",
    "mub.slope_bases_built": "count",
    "tomography.bases_measured": "count",
    "orbits.label_points": "count",
    "tomography.trials": "count",
    "trace.overhead_s": "s",
}


class CommandFailed(Exception):
    pass


class NoneCompleted(Exception):
    """Every operation failed, so there is nothing to measure."""


@dataclass
class Library:
    """The in-process pipeline context that trials and checks read."""

    field: gf2n.Field
    family: mub.MubFamily
    table: orbits.OrbitTable
    bases: list


def build_library(n: int) -> Library:
    field_ = gf2n.make_field(n)
    family = mub.build_family(field_)
    table = orbits.enumerate_orbits(field_)
    return Library(field_, family, table, orbits.minimal_bases(field_))


@dataclass
class Run:
    """One benchmark run: its inputs, what was attempted, failed and measured."""

    kind: str
    n: int
    shots: int
    seed: int
    seconds: float
    trace: bool
    work: Path
    tracer: Tracer | None = None
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    child_families: list = field(default_factory=list)
    child_table_points: list = field(default_factory=list)
    startups: list = field(default_factory=list)
    bytes_written: list = field(default_factory=list)
    bytes_read: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    # per-operation times in seconds, in the order the operations ran
    samples: dict = field(default_factory=dict)
    overhead_s: float = 0.0
    operations: int = 0

    def fail(self, op: str, message: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(f"{op}: {message}")

    def set_op(self, op: str | None) -> None:
        if self.tracer is not None:
            self.tracer.op = op

    def op_seed(self, i: int) -> int:
        return self.seed * SEED_STRIDE + i

    # -- CLI subprocesses -------------------------------------------------

    def cli(self, op: str, args: list[str], traced: bool) -> float:
        """Run one pimub command; return its wall time in seconds."""
        spans_path = self.work / f"{op}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), op, "--", *args]
        else:
            cmd = [sys.executable, "-m", "pimub.cli", *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise CommandFailed(f"{args[0]} timed out after {CLI_TIMEOUT_S} s") from exc
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise CommandFailed(f"{args[0]} exited {proc.returncode}: {tail[0]}")
        if traced:
            data = json.loads(spans_path.read_text())
            spans = self.tracer.spans
            offset = len(spans)
            spans.extend([name, s, e, parent + offset if parent >= 0 else -1, span_op]
                         for name, s, e, parent, span_op in data["spans"])
            self.child_families.extend(data["families"])
            self.child_table_points.extend(data["table_points"])
            self.startups.append(data["ready"] - start)
        return wall

    def roundtrip(self, tag: str, seed: int, traced: bool) -> tuple[float, float, Path, Path]:
        records = self.work / f"{tag}.records.json"
        report = self.work / f"{tag}.report.json"
        simulate_s = self.cli(
            f"{tag}.simulate",
            ["simulate", "--n", str(self.n), "--seed", str(seed),
             "--shots", str(self.shots), "--out", str(records)],
            traced,
        )
        reconstruct_s = self.cli(
            f"{tag}.reconstruct",
            ["reconstruct", "--records", str(records), "--project", "--out", str(report)],
            traced,
        )
        self.bytes_written.append(records.stat().st_size + report.stat().st_size)
        self.bytes_read.append(records.stat().st_size)
        return simulate_s, reconstruct_s, records, report


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------

def estimate_problems(est: np.ndarray) -> list[str]:
    problems = []
    if not operators.is_density_matrix(est, herm_tol=1e-9, trace_tol=1e-9):
        problems.append("projected estimate is not a density matrix")
    if not tomography.is_permutation_invariant(est):
        problems.append("projected estimate is not permutation invariant")
    return problems


def verify_roundtrip(lib: Library, records_path: Path, report_path: Path) -> list[str]:
    """Compare a CLI report with the library's reconstruction of its records."""
    try:
        payload = json.loads(records_path.read_text())
        report = json.loads(report_path.read_text())
        if int(payload["n"]) != lib.field.n:
            return [f"records are for n={payload['n']}, expected n={lib.field.n}"]
        records = [tomography.record_from_json(lib.field, obj) for obj in payload["records"]]
        expected = tomography.project_physical(
            tomography.reconstruct(records, lib.table, lib.family)
        )
        got = operators.matrix_from_json(report["state"])
    except (PimubError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot check the round trip: {exc!r}"]
    problems = estimate_problems(got)
    deviation = float(np.abs(got - expected).max())
    if deviation > MATCH_TOL:
        problems.append(f"CLI estimate differs from the library's by {deviation:.3e}")
    if report.get("fidelity") is None:
        problems.append("CLI report has no fidelity")
    return problems


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def repeat_setup(setup, count: int, first: int = 0):
    """Wall times of ``setup(k)`` calls, k = first, first + 1, ..., and the last result.

    Set-up runs at least ``count`` times and until SETUP_BATCH_S has been spent.
    """
    times: list[float] = []
    while len(times) < count or sum(times) < SETUP_BATCH_S:
        start = time.perf_counter()
        result = setup(first + len(times))
        times.append(time.perf_counter() - start)
    return times, result


def run_cli_roundtrip(run: Run) -> None:
    def setup(_: int) -> None:
        subprocess.run([sys.executable, "-c", "import pimub"], cwd=ROOT, env=child_env(),
                       check=True, timeout=CLI_TIMEOUT_S)

    setups, _ = repeat_setup(setup, 2)

    done = []  # (tag, simulate_s, reconstruct_s, records, report)
    start = time.perf_counter()
    i = 0
    while i < MIN_ROUNDTRIPS or time.perf_counter() - start < run.seconds:
        tag = f"rt{i}"
        run.attempted += 1
        try:
            done.append((tag, *run.roundtrip(tag, run.op_seed(i), run.trace)))
        except CommandFailed as exc:
            run.fail(tag, str(exc))
        i += 1
    elapsed = time.perf_counter() - start
    setups += repeat_setup(setup, 1, len(setups))[0]
    run.operations = len(done)
    if not done:
        raise NoneCompleted(run.problems)

    lib = build_library(run.n)
    fidelities, distances = [], []
    for tag, _, _, records, report in done:
        for problem in verify_roundtrip(lib, records, report):
            run.fail(tag, problem)
        payload = json.loads(report.read_text())
        if payload.get("fidelity") is not None:
            fidelities.append(payload["fidelity"])
        distances.append(payload["trace_distance"])

    # a repeated seed must reproduce the records byte for byte; the repeat
    # is untraced, so it also gives the tracing overhead of one command
    tag, first_simulate_s, _, records, _ = done[0]
    repeat = run.work / f"{tag}.repeat.json"
    try:
        repeat_s = run.cli(
            f"{tag}.repeat",
            ["simulate", "--n", str(run.n), "--seed", str(run.op_seed(0)),
             "--shots", str(run.shots), "--out", str(repeat)],
            traced=False,
        )
        run.overhead_s = first_simulate_s - repeat_s
        if repeat.read_bytes() != records.read_bytes():
            run.fail(tag, "a repeated seed gave different simulate output")
    except CommandFailed as exc:
        run.fail(tag, str(exc))

    sims = [d[1] for d in done]
    recs = [d[2] for d in done]
    trips = [s + r for s, r in zip(sims, recs)]
    run.samples = {"simulate_s": sims, "reconstruct_s": recs}
    # means, not medians, for the command times (see FASTEST_PERCENTILE)
    run.metrics = {
        "roundtrip_s": statistics.fmean(trips),
        "simulate_s": statistics.fmean(sims),
        "reconstruct_s": statistics.fmean(recs),
        "trials_per_s": len(done) / elapsed,
        "trial_p50_ms": 1e3 * float(np.percentile(trips, 50)),
        "trial_p90_ms": 1e3 * float(np.percentile(trips, 90)),
        "setup_s": statistics.median(setups),
        # a report without fidelity is already a failure; score it as 0
        "fidelity_median": statistics.median(fidelities) if fidelities else 0.0,
        "trace_distance_median": statistics.median(distances),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


def trial(lib: Library, shots: int, seed: int):
    """One in-process simulate -> reconstruct -> project -> score pass."""
    t0 = time.perf_counter()
    rho = tomography.random_pi_state(tomography.PIStateSpec.twirl(lib.field.n, seed))
    records = [
        tomography.sample_counts(rec, shots, seed=seed * 1000 + i)
        for i, rec in enumerate(tomography.exact_probabilities(rho, lib.family, lib.bases))
    ]
    t1 = time.perf_counter()
    est = tomography.project_physical(tomography.reconstruct(records, lib.table, lib.family))
    t2 = time.perf_counter()
    fid = tomography.fidelity(rho, est)
    dist = tomography.trace_distance(rho, est)
    t3 = time.perf_counter()
    return {"simulate": t1 - t0, "reconstruct": t2 - t1, "total": t3 - t0,
            "estimate": est, "fidelity": fid, "trace_distance": dist}


def run_study(run: Run) -> None:
    def setup(k: int) -> Library:
        gf2n.make_field.cache_clear()  # time the field, not the cache
        run.set_op(f"setup{k}")
        lib = build_library(run.n)
        run.set_op(None)
        return lib

    setups, lib = repeat_setup(setup, 2)

    done = []  # (index, trial result without its estimate)
    checking = 0.0
    start = time.perf_counter()
    i = 0
    while i < MIN_TRIALS or time.perf_counter() - start < run.seconds:
        run.attempted += 1
        run.set_op(f"trial{i}")
        try:
            result = trial(lib, run.shots, run.op_seed(i))
        except (PimubError, ValueError, AssertionError) as exc:
            run.fail(f"trial{i}", repr(exc))
        else:
            # checked here rather than kept, so that memory does not grow
            # with the number of trials; the check is not trial time
            run.set_op(None)
            check_start = time.perf_counter()
            for problem in estimate_problems(result.pop("estimate")):
                run.fail(f"trial{i}", problem)
            checking += time.perf_counter() - check_start
            done.append((i, result))
        i += 1
    run.set_op(None)
    elapsed = time.perf_counter() - start - checking
    setups += repeat_setup(setup, 1, len(setups))[0]
    run.operations = len(done)
    if not done:
        raise NoneCompleted(run.problems)

    if run.trace:
        trace_study_extras(run, lib, done)

    sims = [r["simulate"] for _, r in done]
    recs = [r["reconstruct"] for _, r in done]
    totals = [r["total"] for _, r in done]
    run.samples = {"simulate_s": sims, "reconstruct_s": recs}

    def fastest(times) -> float:
        return float(np.percentile(list(times), FASTEST_PERCENTILE))

    run.metrics = {
        "roundtrip_s": fastest(s + r for s, r in zip(sims, recs)),
        "simulate_s": fastest(sims),
        "reconstruct_s": fastest(recs),
        "trials_per_s": len(done) / elapsed,
        "trial_p50_ms": 1e3 * float(np.percentile(totals, 50)),
        "trial_p90_ms": 1e3 * float(np.percentile(totals, 90)),
        "setup_s": statistics.median(setups),
        "fidelity_median": statistics.median(r["fidelity"] for _, r in done),
        "trace_distance_median": statistics.median(r["trace_distance"] for _, r in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_study_extras(run: Run, lib: Library, done: list) -> None:
    """Traced-run extras: tracing overhead and one CLI round trip at this n.

    The overhead replays the first trials twice each, traced and untraced
    back to back in alternating order, so that both copies of a trial see
    the same host load and neither always runs second.  The replayed spans
    are discarded.  The round trip gives the cli and process layers a value
    on every workload and checks the CLI against this process's library.
    """
    tracer = run.tracer
    mark = len(tracer.spans)

    def replay(i: int, traced: bool) -> float:
        if traced:
            tracer.op = "replay"
        else:
            tracer.uninstall()
        seconds = trial(lib, run.shots, run.op_seed(i))["total"]
        if traced:
            tracer.op = None
        else:
            tracer.install()
        return seconds

    budget = min(2.0, run.seconds / 5)
    difference = 0.0
    replayed = 0
    replay_start = time.perf_counter()
    for i, _ in done:
        order = (True, False) if replayed % 2 == 0 else (False, True)
        times = {traced: replay(i, traced) for traced in order}
        difference += times[True] - times[False]
        replayed += 1
        if time.perf_counter() - replay_start > budget:
            break
    del tracer.spans[mark:]
    run.overhead_s = difference / replayed

    tag = "cli"
    run.attempted += 1
    try:
        _, _, records, report = run.roundtrip(tag, run.op_seed(0), traced=True)
    except CommandFailed as exc:
        run.fail(tag, str(exc))
        return
    for problem in verify_roundtrip(lib, records, report):
        run.fail(tag, problem)


# ----------------------------------------------------------------------
# Per-layer summary of a traced run
# ----------------------------------------------------------------------

def layer_metrics(run: Run) -> dict:
    spans = run.tracer.spans
    selves = self_times(spans)
    out = {
        metric: per_op_median(spans, names, use_self, selves)
        for metric, (names, use_self) in LAYER_TIMES.items()
    }
    families = [[built, len(read)] for _, built, read in run.tracer.families.values()]
    used = [(built, read) for built, read in families + run.child_families if read]
    out["mub.bases_used_ratio"] = sum(r for _, r in used) / max(1, sum(b for b, _ in used))
    out["cli.json_bytes_written"] = statistics.median(run.bytes_written)
    out["cli.json_bytes_read"] = statistics.median(run.bytes_read)
    out["process.startup_s"] = statistics.median(run.startups)
    out["mub.slope_bases_built"] = per_op_count(spans, "mub.build_slope_basis")
    out["tomography.bases_measured"] = per_op_count(spans, "tomography.sample_counts")
    out["orbits.label_points"] = max(run.tracer.table_points + run.child_table_points)
    out["tomography.trials"] = run.operations
    out["trace.overhead_s"] = run.overhead_s
    return out


def execute(run: Run) -> dict:
    """Run the workload; return its metrics (end-to-end, or per-layer when traced)."""
    if run.trace:
        run.tracer = Tracer()
        run.tracer.install()
    try:
        if run.kind == "cli":
            run_cli_roundtrip(run)
        else:
            run_study(run)
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
    return layer_metrics(run) if run.trace else run.metrics
