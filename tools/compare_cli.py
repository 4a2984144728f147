"""Run the pimub CLI from two source trees side by side and compare the bytes.

    python tools/compare_cli.py PARENT_SRC CHANGE_SRC [--max-n 8]

Each SRC is a directory holding the ``pimub`` package (a checkout's
``src``).  Whatever ``--max-n`` is, ``field --n k`` runs for every k <= 12
and ``orbits --n k`` (JSON and CSV) for every k <= 10: their exports hold
only integers and cost little, and they pin the field and the orbit table
past the sizes the pipeline reaches.  ``orbits`` accepts n <= 8 on the
command line, so for k = 9 and 10 each tree runs the command through the
CLI's own parser and command body without that cap (``UNCAPPED``, one
``python -c``).  The other cases are, for every n up to ``--max-n``,
``mubs --n k`` for k <= 5, ``verify --n k`` for k <= 6, and ``simulate``
with each state method, exact and sampled, each followed by
``reconstruct`` with and without ``--project``.  One case past the
spin-block cap always runs too:
each tree writes exact n = 9 Dicke-mixture records with its own library
(``RECORDS_N9``, one ``python -c``) and runs ``reconstruct`` on them.  For
every n, each tree also reverses the order of the records of its last
``simulate`` case (``REVERSED``, one ``python -c``) and reconstructs them,
so the bases reach ``reconstruct`` in another order than ``simulate``
wrote them.  One more case runs the library path that the benchmark's
study workloads time (``TRIALS``, one ``python -c``): seeded trials at
n = 3 (10^5 shots) and n = 6 (10^4 shots), each a twirl state, sampled
minimal-basis records, the projected estimate, its fidelity and its trace
distance, printed as JSON.  Four error paths run once (``ERRORS``), each with a one-line
JSON error on stderr and exit 1 expected: ``reconstruct`` of a directory
(``.``), of a file that is not UTF-8 (``bad.json``, a UTF-16 byte-order
mark) and of a missing file, and ``simulate --out`` into a missing
directory.  They run in the shared working directory with relative paths,
so both trees print the same bytes.  A pipeline runs within one tree: the
change's reconstruct reads the change's records.  Where the two trees'
records differ, each ``reconstruct`` case also runs in both trees on the
parent's records, so a change of the records does not hide a change of
``reconstruct`` itself; where they are byte-identical nothing more runs.
For every case the exit code, stdout and stderr are compared byte for
byte.  Where stdout differs but both sides parse as JSON of the same shape,
the largest absolute difference between their numbers is reported instead,
with the JSON path where it sits (e.g. ``at fidelity``).  Where stdout is text on both sides (``verify``) and the
two texts match once every number is masked, it is the largest difference
between their numbers, with the line where it sits.  The summary gives the
largest deviation by n and by kind of case (field, orbits, mubs, verify,
simulate per state method, reconstruct, reconstruct of the parent's
records, trials, errors), 0 where every case of it is byte-identical.  Exit status
0 when every case matches byte for byte, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("twirl", "dicke", "blocks")
FIELD_MAX_N = 12  # field cases run up to this n, and orbit cases up to ORBITS_MAX_N,
ORBITS_MAX_N = 10  # at any --max-n
CLI_ORBITS_MAX_N = 8  # the largest n that `pimub orbits` accepts
# a command past the command line's n cap: the CLI's parser and command body, without main's
# range checks; argv as for `pimub`
UNCAPPED = """
import sys
from pimub.cli import _build_parser
args = _build_parser().parse_args(sys.argv[1:])
sys.exit(args.func(args))
"""
SAMPLING = (("--exact",), ("--shots", "1000"))
# exact records of a seeded n = 9 Dicke mixture on the minimal bases, as JSON on stdout
RECORDS_N9 = """
import json, sys
import numpy as np
from pimub import PIStateSpec, build_family, exact_probabilities, make_field, minimal_bases
from pimub.tomography import random_pi_state, record_to_json
n = 9
f = make_field(n)
bases = minimal_bases(f)
rho = random_pi_state(PIStateSpec.dicke(n, np.random.default_rng(n).dirichlet(np.ones(n + 1))))
records = exact_probabilities(rho, build_family(f, bases), bases)
json.dump({"n": n, "records": [record_to_json(r) for r in records]}, sys.stdout)
"""
# seeded study trials through the library, as the benchmark's study workloads run them:
# the projected estimate, its fidelity and its trace distance, as JSON on stdout
TRIALS = """
import json, sys
from pimub import (PIStateSpec, build_family, exact_probabilities, fidelity, make_field,
                   minimal_bases, project_physical, random_pi_state, reconstruct, sample_counts,
                   trace_distance)
from pimub.operators import matrix_to_json
trials = []
for n, shots in ((3, 10**5), (6, 10**4)):
    f = make_field(n)
    bases = minimal_bases(f)
    family = build_family(f, bases)
    for seed in range(10):
        rho = random_pi_state(PIStateSpec.twirl(n, seed))
        records = [sample_counts(r, shots, seed=seed * 1000 + i)
                   for i, r in enumerate(exact_probabilities(rho, family, bases))]
        est = project_physical(reconstruct(records, None, family))
        trials.append({"n": n, "seed": seed, "estimate": matrix_to_json(est),
                       "fidelity": fidelity(rho, est), "trace_distance": trace_distance(rho, est)})
json.dump(trials, sys.stdout)
"""
# the records file named by argv[1] with its records, so its bases, in reverse order
REVERSED = """
import json, sys
with open(sys.argv[1]) as handle:
    payload = json.load(handle)
payload["records"].reverse()
json.dump(payload, sys.stdout)
"""
# file errors: each case must end in one JSON line on stderr, never a traceback
ERRORS = (["reconstruct", "--records", "."], ["reconstruct", "--records", "bad.json"],
          ["reconstruct", "--records", "missing.json"],
          ["simulate", "--n", "2", "--seed", "1", "--exact", "--out", "missing/x.json"])


def run(src: str, argv: list[str], cwd: str,
        command=("-m", "pimub.cli")) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, *command, *argv], cwd=cwd, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def deviation(a, b, path: str = "") -> tuple[float, str]:
    """Largest |a - b| over the numbers of two JSON values, and the path to it.

    The deviation is inf where their shapes differ; the path reads like
    ``state.entries[5][0]``, the first one on a tie.
    """
    parts = None
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        parts = ((a[k], b[k], f"{path}.{k}" if path else k) for k in a)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        parts = ((x, y, f"{path}[{i}]") for i, (x, y) in enumerate(zip(a, b)))
    if parts is not None:
        return max((deviation(*part) for part in parts), key=lambda found: found[0],
                   default=(0.0, path))
    numbers = (int, float)
    if isinstance(a, numbers) and isinstance(b, numbers) and type(a) is type(b) \
            and not isinstance(a, bool):
        return abs(a - b), path
    return 0.0 if a == b else float("inf"), path


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def text_deviation(a: str, b: str) -> tuple[float, str]:
    """Largest |x - y| over the numbers of two texts, and the line that holds it.

    The deviation is inf, at the first such line, where the texts differ
    once their numbers are masked, or where their line counts differ.
    """
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return float("inf"), ""
    worst = (0.0, "")
    for k, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        where = f"line {k}: {x.strip()[:60]}"
        if NUMBER.sub("#", x) != NUMBER.sub("#", y):
            return float("inf"), where
        for u, v in zip(NUMBER.findall(x), NUMBER.findall(y)):
            if abs(float(u) - float(v)) > worst[0]:
                worst = (abs(float(u) - float(v)), where)
    return worst


def compare(name: str, parent: tuple, change: tuple) -> tuple[bool, float]:
    """(byte-identical, numeric deviation of stdout); prints one line per case."""
    if parent == change:
        print(f"same  {name}")
        return True, 0.0
    dev, where = float("inf"), ""
    if parent[0] == change[0] and parent[2] == change[2]:
        try:
            dev, where = deviation(json.loads(parent[1]), json.loads(change[1]))
        except ValueError:
            dev, where = text_deviation(parent[1].decode(errors="replace"),
                                        change[1].decode(errors="replace"))
    print(f"DIFF  {name}  exit {parent[0]}/{change[0]}, "
          f"stderr {'same' if parent[2] == change[2] else 'differs'}, stdout deviation {dev:.3g}"
          + (f" at {where}" if where and dev > 0 else ""))
    return False, dev


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source directory of the parent")
    parser.add_argument("change", help="source directory of the change")
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()
    trees = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.change).resolve())}
    worst: dict[int, float] = {}
    by_kind = dict.fromkeys(["field", "orbits", "mubs", "verify",
                             *(f"simulate {m}" for m in METHODS), "reconstruct",
                             "reconstruct of parent's records", "trials", "errors"], 0.0)
    identical = True

    def record(n: int | None, kind: str, name: str, outputs: dict) -> None:
        nonlocal identical
        same, dev = compare(name, outputs["parent"], outputs["change"])
        identical &= same
        if n is not None:
            worst[n] = max(worst.get(n, 0.0), dev)
        by_kind[kind] = max(by_kind[kind], dev)

    def reconstructs(n: int, name: str, outputs: dict, tails) -> None:
        """Each tree reconstructs its own records, and both the parent's where they differ."""
        for side, (_, stdout, _) in outputs.items():
            Path(tmp, f"{side}.json").write_bytes(stdout)
        # (kind of case, whose records each tree reads: None for its own)
        sources = [("reconstruct", None)]
        if outputs["parent"][1] != outputs["change"][1]:
            sources.append(("reconstruct of parent's records", "parent"))
        for tail in tails:
            for kind, reader in sources:
                record(n, kind, " ".join([name, "|", kind, *tail]), {
                    side: run(src, ["reconstruct", "--records", f"{reader or side}.json", *tail],
                              tmp)
                    for side, src in trees.items()
                })

    with tempfile.TemporaryDirectory() as tmp:
        for n in range(1, FIELD_MAX_N + 1):
            argv = ["field", "--n", str(n)]
            record(n, "field", " ".join(argv),
                   {side: run(src, argv, tmp) for side, src in trees.items()})
        for n in range(1, ORBITS_MAX_N + 1):
            command = ("-m", "pimub.cli") if n <= CLI_ORBITS_MAX_N else ("-c", UNCAPPED)
            for argv in (["orbits", "--n", str(n)], ["orbits", "--n", str(n), "--csv"]):
                record(n, "orbits", " ".join(argv),
                       {side: run(src, argv, tmp, command) for side, src in trees.items()})
        for n in range(1, args.max_n + 1):
            # mubs stops at n = 5 (2.5 MB of JSON, ~0.6 s per side) and verify at n = 6,
            # because verify --n 7 takes ~25 s per side; verify's round-trip rows
            # score through the metrics' PI gate
            cases = [["mubs", "--n", str(n)]] if n <= 5 else []
            cases += [["verify", "--n", str(n)]] if n <= 6 else []
            for argv in cases:
                record(n, argv[0], " ".join(argv),
                       {side: run(src, argv, tmp) for side, src in trees.items()})
            for method in METHODS:
                for sampling in SAMPLING:
                    argv = ["simulate", "--n", str(n), "--seed", str(n), "--method", method,
                            *sampling]
                    outputs = {side: run(src, argv, tmp) for side, src in trees.items()}
                    record(n, f"simulate {method}", " ".join(argv), outputs)
                    reconstructs(n, " ".join(argv), outputs, [[], ["--project"]])
            # the last simulate's records, each tree's own, with the bases reversed
            outputs = {side: run(src, [f"{side}.json"], tmp, ("-c", REVERSED))
                       for side, src in trees.items()}
            record(n, f"simulate {METHODS[-1]}", f"python -c REVERSED n={n}", outputs)
            reconstructs(n, f"python -c REVERSED n={n}", outputs, [[]])
        outputs = {side: run(src, [], tmp, ("-c", RECORDS_N9)) for side, src in trees.items()}
        record(9, "simulate dicke", "python -c RECORDS_N9", outputs)
        reconstructs(9, "python -c RECORDS_N9", outputs, [[]])
        record(None, "trials", "python -c TRIALS",
               {side: run(src, [], tmp, ("-c", TRIALS)) for side, src in trees.items()})
        Path(tmp, "bad.json").write_bytes(b"\xff\xfe{}")
        for argv in ERRORS:
            record(None, "errors", " ".join(argv),
                   {side: run(src, argv, tmp) for side, src in trees.items()})
    print("largest stdout deviation by n: "
          + ", ".join(f"{n}: {dev:.3g}" for n, dev in sorted(worst.items())))
    print("largest stdout deviation by kind: "
          + ", ".join(f"{kind}: {dev:.3g}" for kind, dev in by_kind.items()))
    print("all cases byte-identical" if identical else "some cases differ")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
