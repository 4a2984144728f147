"""Command line front end: every pipeline stage as a deterministic subcommand.

Subcommands
-----------
field        export the GF(2^n) context (polynomial, self-dual basis)
mubs         build and export the full MUB family
orbits       enumerate label orbits; JSON or CSV table plus a text report
simulate     generate a PI state, measure the minimal bases, write records
reconstruct  invert a records file back to a density matrix report
verify       run the invariant suites; exit 0 only if all of them pass

Outputs are byte-identical across runs for fixed flags and seeds.  Errors
are reported as one-line JSON objects on stderr; exit codes are 0 (success),
1 (failure of an invariant or of input validation), 2 (usage).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import PimubError, SchemaError, json_int
from .gf2n import MAX_N, is_irreducible, make_field
from .mub import (
    build_family,
    completeness_deviation,
    family_operator,
    family_to_json,
    predicted_swap_escapes,
    swap_covariance_report,
    unbiasedness_deviation,
)
from .operators import (
    build_x,
    build_z,
    fourier,
    is_density_matrix,
    matrix_from_json,
    matrix_to_json,
    permute_label,
    swap_index,
    swap_matrix,
)
from .orbits import (
    closed_form_orbit_count,
    enumerate_orbits,
    expand_probabilities,
    independent_count,
    minimal_bases,
    orbit_report,
    orbit_table_to_csv,
    orbit_table_to_json,
)
from .tomography import (
    PIStateSpec,
    exact_probabilities,
    fidelity,
    independent_parameter_count,
    project_physical,
    random_density_matrix,
    random_pi_state,
    reconstruct,
    record_from_json,
    record_to_json,
    sample_counts,
    spin_values,
    trace_distance,
    unmeasured_pi_types,
)


def _write(text: str, path: str | None) -> None:
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PimubError(f"cannot write {path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _dump(obj, path: str | None) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise PimubError(f"missing file: {path}") from exc
    except OSError as exc:
        raise PimubError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:
        # malformed JSON, bytes that are not UTF-8, an overlong integer, nesting past the stack
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _read_state(obj, n: int) -> np.ndarray:
    """A state from its matrix JSON: a 2^n x 2^n density matrix, else ``SchemaError``."""
    rho = matrix_from_json(obj)
    if rho.shape[0] != 1 << n:
        raise SchemaError(f"state dimension {rho.shape[0]} does not match n={n}")
    if not is_density_matrix(rho):
        raise SchemaError("state is not Hermitian, positive semidefinite and of trace 1")
    return rho


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_field(args) -> int:
    _dump(make_field(args.n).to_json(), args.out)
    return 0


def cmd_mubs(args) -> int:
    family = build_family(make_field(args.n))
    _dump(family_to_json(family), args.out)
    return 0


def cmd_orbits(args) -> int:
    table = enumerate_orbits(make_field(args.n))
    if args.csv:
        _write(orbit_table_to_csv(table), args.out)
    else:
        _dump(orbit_table_to_json(table), args.out)
    print(orbit_report(table), file=sys.stderr)
    return 0


def _generated_state(n: int, method: str, seed: int) -> np.ndarray:
    if method == "twirl":
        return random_pi_state(PIStateSpec.twirl(n, seed))
    rng = np.random.default_rng(seed)
    if method == "dicke":
        weights = rng.dirichlet(np.ones(n + 1))
        return random_pi_state(PIStateSpec.dicke(n, weights))
    if method == "blocks":
        sectors = spin_values(n)
        probs = rng.dirichlet(np.ones(len(sectors)))
        blocks = [
            random_density_matrix(int(2 * j) + 1, seed=int(rng.integers(2**31)))
            for j in sectors
        ]
        return random_pi_state(PIStateSpec.spin_blocks(n, probs, blocks))
    raise PimubError(f"unknown method: {method}")


def cmd_simulate(args) -> int:
    field = make_field(args.n)
    if args.state:
        rho = _read_state(_load_json(args.state), args.n)
    else:
        rho = _generated_state(args.n, args.method, args.seed)

    bases = minimal_bases(field)
    records = exact_probabilities(rho, build_family(field, bases), bases)
    if not args.exact:
        records = [
            sample_counts(rec, args.shots, seed=args.seed * 1000 + i)
            for i, rec in enumerate(records)
        ]
    payload = {
        "n": args.n,
        "seed": args.seed,
        "method": None if args.state else args.method,
        "shots": None if args.exact else args.shots,
        "truth": matrix_to_json(rho),
        "records": [record_to_json(rec) for rec in records],
    }
    _dump(payload, args.out)
    return 0


def cmd_reconstruct(args) -> int:
    payload = _load_json(args.records)
    try:
        n = json_int(payload["n"], "n")
        record_objs = payload["records"]
        if not isinstance(record_objs, list):
            raise TypeError(f"'records' must be a list, got {type(record_objs).__name__}")
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed records file: {exc}") from exc
    field = make_field(n)
    records = [record_from_json(field, obj) for obj in record_objs]
    # the fit reads only the recorded bases
    family = build_family(field, [rec.basis for rec in records])
    table = enumerate_orbits(field)

    rho_hat = reconstruct(records, table, family)
    if args.project:
        rho_hat = project_physical(rho_hat)

    truth = None
    if args.state:
        truth = _read_state(_load_json(args.state), n)
    elif payload.get("truth") is not None:
        truth = _read_state(payload["truth"], n)

    physical = is_density_matrix(rho_hat, herm_tol=1e-9, trace_tol=1e-9)
    report = {
        "n": n,
        "bases_used": [rec.basis.to_json() for rec in records],
        # Uhlmann fidelity is only meaningful between states; an unprojected
        # estimate with negative eigenvalues gets no number rather than a
        # clipped one
        "fidelity": fidelity(truth, rho_hat) if truth is not None and physical else None,
        "trace_distance": None if truth is None else trace_distance(truth, rho_hat),
        "physical": physical,
        "orbit_count": len(table.orbits),
        "independent_count": independent_count(field, table),
        "state": matrix_to_json(rho_hat),
    }
    _dump(report, args.out)
    return 0


# ----------------------------------------------------------------------
# Verification suites
# ----------------------------------------------------------------------

# default gates for exact operator identities, family overlaps and round trips
_TOLERANCES = (1e-12, 1e-10, 1e-9)


def _verify_rows(n: int, tolerance: float | None) -> list[tuple[str, bool | None, str]]:
    """The verification rows (name, ok, detail) in print order; ``ok`` is None on INFO rows."""
    exact, overlap, round_trip = _TOLERANCES if tolerance is None else (tolerance,) * 3
    field = make_field(n)
    dim = field.size
    rows = [
        ("field: polynomial irreducible", is_irreducible(field.poly), ""),
        ("field: self-dual Gram identity", field.selfdual_gram_identity(), ""),
    ]

    elems = field.elements()
    xs = [build_x(b) for b in elems]
    f_mat = fourier(field)
    commute = fzf = 0.0
    for a, xa in zip(elems, xs):
        za = build_z(a)
        for b, xb in zip(elems, xs):
            sign = -1.0 if (a * b).trace() else 1.0
            commute = max(commute, float(np.abs(za @ xb - sign * xb @ za).max()))
        fzf = max(fzf, float(np.abs(xa - f_mat @ za @ f_mat).max()))
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    tensor = np.array([[1.0]])
    for _ in range(n):
        tensor = np.kron(tensor, had)
    rows += [
        ("operators: commutation signs", commute <= exact, f"max dev {commute:.2e}"),
        ("operators: X = F Z F", fzf <= exact, f"max dev {fzf:.2e}"),
        ("operators: F is the tensor-power transform",
         float(np.abs(f_mat - tensor).max()) <= exact, ""),
    ]

    swap_ok = True
    perm_ok = True
    commute_f = 0.0
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            pi = swap_matrix(field, p, q)
            eps = field.element((1 << (p - 1)) ^ (1 << (q - 1)))
            direct = np.zeros((dim, dim), dtype=complex)
            for kappa in elems:
                shift = eps if (eps * kappa).trace() else field.zero()
                direct[(kappa + shift).index, kappa.index] = 1.0
            swap_ok &= bool(np.abs(pi - direct).max() <= exact)
            commute_f = max(commute_f, float(np.abs(pi @ f_mat - f_mat @ pi).max()))
            perm = swap_index(n, p, q)
            perm_ok &= all(permute_label(kappa, p, q).index == perm[kappa.index]
                           for kappa in elems)
    if n > 1:
        rows += [
            ("operators: swap matrix equals its field form", swap_ok, ""),
            ("operators: label swap equals bit swap", perm_ok, ""),
            ("operators: [swap, F] = 0", commute_f <= exact, f"max dev {commute_f:.2e}"),
        ]

    family = build_family(field)
    dev = unbiasedness_deviation(family)
    comp_dev = completeness_deviation(family)
    rows += [
        ("mub: within-basis Gram identity", dev["max_gram_dev"] <= overlap,
         f"max dev {dev['max_gram_dev']:.2e}"),
        ("mub: cross-basis overlaps 1/2^n", dev["max_cross_dev"] <= overlap,
         f"max dev {dev['max_cross_dev']:.2e}"),
        ("mub: completeness sum", comp_dev <= overlap, f"max dev {comp_dev:.2e}"),
    ]

    if n > 1:
        # qubit swaps cannot map the family to itself once n >= 3 (see
        # orbits); the gate is that the escapes are exactly the predicted ones
        cov = swap_covariance_report(family)
        predicted = predicted_swap_escapes(field)
        rows += [
            ("mub: swap escapes match field arithmetic",
             set(cov["failures"]) == predicted and len(cov["failures"]) == len(predicted),
             f"{len(cov['failures'])} escaping basis/swap pairs, {len(predicted)} predicted"),
            ("mub: both-index swap rule verified", cov["both_swap_rule_holds"],
             f"on {cov['bases_checked']} landing conjugations"),
            ("mub: alternate (nu-trace) rule", None,
             "holds" if cov["display_rule_holds"] else "refuted numerically"),
        ]

    table = enumerate_orbits(field)
    enumerated = len(table.orbits)
    indep = independent_count(field, table)
    closed = closed_form_orbit_count(n)
    rows += [
        ("orbits: partition covers all label points", table.total_points == (dim + 1) * dim,
         f"{table.total_points} points"),
        ("orbits: independent count matches spin-block parameters",
         indep == independent_parameter_count(n),
         f"enumerated {indep}, blocks {independent_parameter_count(n)}"),
        ("orbits: closed-form orbit count", None,
         f"formula {closed} vs enumerated {enumerated}"
         + ("" if closed == enumerated else " -- DISAGREES; enumeration is authoritative")
         + f"; exact count C(n+3,3) + n + 1 = {independent_parameter_count(n) + n + 2}"),
    ]

    bases = minimal_bases(field)
    worst_orbit = worst_fit = 0.0
    for seed in range(3):
        rho = random_pi_state(PIStateSpec.twirl(n, seed))
        recs = exact_probabilities(rho, family, bases)
        # the paper's orbit expansion, summed over the family: exact only for n <= 2
        expanded = expand_probabilities(table, bases, np.array([rec.data for rec in recs]))
        rho_orbit = family_operator(family, table.labels, expanded)
        worst_orbit = max(worst_orbit, trace_distance(rho, rho_orbit))
        worst_fit = max(worst_fit, trace_distance(rho, reconstruct(recs, table, family)))
    unmeasured = unmeasured_pi_types(field, bases)
    rows += [
        ("tomography: minimal-basis exact round trip",
         worst_orbit <= round_trip if n <= 2 else None,
         f"orbit expansion, max trace distance {worst_orbit:.2e}"),
        ("tomography: PI-subspace exact round trip", worst_fit <= round_trip,
         f"max trace distance {worst_fit:.2e}; "
         + (f"unmeasured Pauli types (kX, kY, kZ) {unmeasured}" if unmeasured
            else "bases informationally complete for PI states")),
    ]
    return rows


def cmd_verify(args) -> int:
    print(f"verification suites for n={args.n}")
    failures = 0
    for name, ok, detail in _verify_rows(args.n, args.tolerance):
        status = "INFO" if ok is None else "PASS" if ok else "FAIL"
        failures += status == "FAIL"
        print(f"  [{status}] {name}" + (f"  ({detail})" if detail else ""))
    print("all suites passed" if failures == 0 else f"{failures} suite(s) failed")
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pimub",
        description="Minimal-MUB tomography toolkit for permutationally invariant qubits",
    )
    parser.add_argument("--version", action="version", version=f"pimub {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_n(p):
        p.add_argument("--n", type=int, required=True, help=f"number of qubits (1..{MAX_N})")

    p = sub.add_parser("field", help="export the finite-field context")
    add_n(p)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_field, max_n=MAX_N)

    p = sub.add_parser("mubs", help="export the full MUB family")
    add_n(p)
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_mubs, max_n=8)

    p = sub.add_parser("orbits", help="enumerate label orbits")
    add_n(p)
    p.add_argument("--csv", action="store_true", help="emit CSV instead of JSON")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_orbits, max_n=8)

    p = sub.add_parser("simulate", help="measure a PI state in the minimal bases")
    add_n(p)
    p.add_argument("--seed", type=int, required=True, help="state/sampling seed")
    p.add_argument("--method", choices=("twirl", "dicke", "blocks"), default="twirl")
    p.add_argument("--state", help="measure this state file instead of generating one")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exact", action="store_true", help="exact probabilities")
    group.add_argument("--shots", type=int, help="multinomial shots per basis")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_simulate, max_n=8)

    p = sub.add_parser("reconstruct", help="invert a records file")
    p.add_argument("--records", required=True, help="records file from simulate")
    p.add_argument("--state", help="truth state file for fidelity metrics")
    p.add_argument("--project", action="store_true", help="project onto physical PI states")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=cmd_reconstruct, max_n=None)

    p = sub.add_parser("verify", help="run the invariant suites")
    add_n(p)
    p.add_argument("--tolerance", type=float, help="override the gate tolerances")
    p.set_defaults(func=cmd_verify, max_n=8)

    return parser


_MAX_SHOTS = 2**63 - 1  # numpy's multinomial draws int64 counts


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    max_n = getattr(args, "max_n", None)
    if max_n is not None and not 1 <= args.n <= max_n:
        parser.error(f"--n must lie in 1..{max_n}")
    if getattr(args, "shots", None) is not None and not 1 <= args.shots <= _MAX_SHOTS:
        parser.error(f"--shots must lie in 1..{_MAX_SHOTS}")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if getattr(args, "tolerance", None) is not None and not 0 < args.tolerance < math.inf:
        parser.error("--tolerance must be positive and finite")
    try:
        return args.func(args)
    except PimubError as exc:
        print(json.dumps({"error": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
