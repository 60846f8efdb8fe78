"""Command line front end.

    ncgp check <experiment> [--lambda X] [--mu X] [--n N] [--tol X] [--json PATH]
    ncgp sweep <sweep> [--trials N] [--seed N] [--lambda-steps N] [--tol X]
                       [--json PATH] [--csv PATH]
    ncgp distance --triple FILE --states FILE [--tol X] [--json PATH]
    ncgp w1 --space FILE --mu FILE --nu FILE [--json PATH]
    ncgp khomology [--json PATH]

Exit status: 0 if every assertion passed, 1 on a failed assertion, 2 on usage
errors and bad input.  NCGP_SEED overrides the default seed 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

from .algebra import state_from_json
from .distance import distance_result_to_json, spectral_distance
from .experiments import CHECKS, SWEEPS, check_khomology
from .tolerances import DEFAULT_TOL
from .triples import triple_from_json
from .wasserstein import measure_from_json, space_from_json, w1

# what loading and validating input files can raise; each means exit 2
INPUT_ERRORS = (ValueError, KeyError, TypeError, OSError)


def _default_seed() -> int:
    return int(os.environ.get("NCGP_SEED", "0"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ncgp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a named reproduction experiment")
    check.add_argument("experiment", choices=sorted(CHECKS))
    check.add_argument("--lambda", dest="lam", type=float, default=None)
    check.add_argument("--mu", type=float, default=None)
    check.add_argument("--n", type=int, default=None, help="lattice size")
    check.add_argument("--tol", type=float, default=None)
    check.add_argument("--json", dest="json_path", default=None)

    sweep = sub.add_parser("sweep", help="run a randomized or gridded sweep")
    sweep.add_argument("sweep", choices=sorted(SWEEPS))
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--lambda-steps", dest="lambda_steps", type=int, default=None)
    sweep.add_argument("--tol", type=float, default=None)
    sweep.add_argument("--json", dest="json_path", default=None)
    sweep.add_argument("--csv", dest="csv_path", default=None)

    dist = sub.add_parser("distance", help="spectral distance from JSON or catalog inputs")
    dist.add_argument("--triple", required=True,
                      help="triple JSON file, or a catalog expression such as "
                           "two_point:lambda=3 or product(two_point:lambda=2,"
                           "amplified_two_point:mu=1)")
    dist.add_argument("--states", default=None,
                      help="JSON file with a two-element list of states")
    dist.add_argument("--pure", default=None,
                      help="pick two pure states by index, e.g. 0,1 (commutative algebras)")
    dist.add_argument("--tol", type=float, default=DEFAULT_TOL)
    dist.add_argument("--json", dest="json_path", default=None)

    wass = sub.add_parser("w1", help="Wasserstein-1 distance from JSON inputs")
    wass.add_argument("--space", required=True)
    wass.add_argument("--mu", required=True)
    wass.add_argument("--nu", required=True)
    wass.add_argument("--json", dest="json_path", default=None)

    kh = sub.add_parser("khomology", help="print the catalog pairing table")
    kh.add_argument("--json", dest="json_path", default=None)
    return parser


def _emit(payload: dict, json_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _run_check(args) -> int:
    kwargs = {}
    if args.lam is not None:
        kwargs["lam"] = args.lam
    if args.mu is not None:
        kwargs["mu"] = args.mu
    if args.n is not None:
        kwargs["n"] = args.n
    if args.tol is not None:
        kwargs["tol"] = args.tol
    try:
        report = CHECKS[args.experiment](**kwargs)
    except (TypeError, ValueError) as exc:
        print(f"ncgp: bad parameters for {args.experiment}: {exc}", file=sys.stderr)
        return 2
    _emit(report.to_json(), args.json_path)
    return 0 if report.passed else 1


def _run_sweep(args) -> int:
    kwargs = {}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.lambda_steps is not None:
        kwargs["lambda_steps"] = args.lambda_steps
    if args.tol is not None:
        kwargs["tol"] = args.tol
    if args.sweep != "wasserstein-rsquare":
        kwargs["seed"] = args.seed if args.seed is not None else _default_seed()
    try:
        report = SWEEPS[args.sweep](**kwargs)
    except (TypeError, ValueError) as exc:
        print(f"ncgp: bad parameters for {args.sweep}: {exc}", file=sys.stderr)
        return 2
    if args.csv_path:
        rows = report.details.get("rows", [])
        if rows:
            with open(args.csv_path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                writer.writerows(rows)
    _emit(report.to_json(), args.json_path)
    return 0 if report.passed else 1


def parse_triple_spec(spec: str):
    """Build a catalog triple from a constructor expression.

    Grammar: name[:key=value,...] for the leaf constructors two_point,
    amplified_two_point, pullback, lattice_line, two_sheeted_line, and
    name(inner[,inner]) for amplify and product, e.g.
    "product(two_point:lambda=2,amplified_two_point:mu=1)".
    """
    from . import khomology, triples

    spec = spec.strip()
    if "(" in spec and spec.endswith(")"):
        name, _, rest = spec.partition("(")
        inner = rest[:-1]
        depth, raw, start = 0, [], 0
        for i, ch in enumerate(inner):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 0:
                raw.append(inner[start:i])
                start = i + 1
        raw.append(inner[start:])
        # a comma only separates arguments when what follows opens a new
        # constructor; otherwise it continues the previous parameter list
        parts = []
        for piece in raw:
            if parts and not re.match(r"\s*[A-Za-z_][A-Za-z_0-9]*\s*($|[:(])", piece):
                parts[-1] += "," + piece
            else:
                parts.append(piece)
        name = name.strip()
        if name == "amplify" and len(parts) == 1:
            return triples.amplify(parse_triple_spec(parts[0]))
        if name == "product" and len(parts) == 2:
            return triples.product(parse_triple_spec(parts[0]),
                                   parse_triple_spec(parts[1]))
        raise ValueError(f"unknown composite constructor {spec!r}")
    name, _, raw_params = spec.partition(":")
    params = {}
    if raw_params:
        for item in raw_params.split(","):
            key, _, value = item.partition("=")
            params[key.strip()] = value.strip()
    name = name.strip()
    if name == "two_point":
        return triples.two_point(float(params.get("lambda", 1.0)))
    if name == "amplified_two_point":
        return triples.amplified_two_point(float(params.get("mu", 1.0)))
    if name == "lattice_line":
        return triples.lattice_line(int(params.get("n", 5)), float(params.get("h", 1.0)))
    if name == "two_sheeted_line":
        return triples.two_sheeted_line(int(params.get("n", 5)), float(params.get("h", 1.0)))
    if name == "pullback":
        sign = params.get("sign", "+")
        mod = khomology.module_f_plus() if sign == "+" else khomology.module_f_minus()
        return mod.as_spectral_triple()
    raise ValueError(f"unknown catalog constructor {name!r}")


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_triple(arg: str):
    if arg.endswith(".json"):
        return triple_from_json(_load_json(arg))
    return parse_triple_spec(arg)


def _run_distance(args) -> int:
    try:
        triple = _load_triple(args.triple)
    except INPUT_ERRORS as exc:
        print(f"ncgp: {exc}", file=sys.stderr)
        return 2
    if args.pure is not None:
        from .algebra import pure_states
        try:
            i, j = (int(v) for v in args.pure.split(","))
            if min(i, j) < 0:
                raise ValueError(f"indices must be non-negative, got {args.pure}")
            states = pure_states(triple.algebra)
            phi, phi2 = states[i], states[j]
        except (ValueError, IndexError) as exc:
            print(f"ncgp: bad --pure selection: {exc}", file=sys.stderr)
            return 2
    else:
        if args.states is None:
            print("ncgp: need --states FILE or --pure i,j", file=sys.stderr)
            return 2
        try:
            raw = _load_json(args.states)
            if not isinstance(raw, list) or len(raw) != 2:
                raise ValueError("must hold a two-element list")
            phi, phi2 = (state_from_json(obj) for obj in raw)
            if phi.algebra != triple.algebra or phi2.algebra != triple.algebra:
                raise ValueError("states must live on the triple's algebra")
        except INPUT_ERRORS as exc:
            print(f"ncgp: bad --states file: {exc}", file=sys.stderr)
            return 2
    try:
        result = spectral_distance(triple, phi, phi2, args.tol)
    except ValueError as exc:
        print(f"ncgp: {exc}", file=sys.stderr)
        return 2
    _emit(distance_result_to_json(result), args.json_path)
    return 0


def _run_w1(args) -> int:
    try:
        space = space_from_json(_load_json(args.space))
        mu = measure_from_json(space, _load_json(args.mu))
        nu = measure_from_json(space, _load_json(args.nu))
    except INPUT_ERRORS as exc:
        print(f"ncgp: bad w1 input: {exc}", file=sys.stderr)
        return 2
    res = w1(space, mu, nu)
    _emit({"value": res.value,
           "potential": [float(v) for v in res.potential],
           "plan": [[float(v) for v in row] for row in res.plan]}, args.json_path)
    return 0


def _run_khomology(args) -> int:
    report = check_khomology()
    table = report.computed
    payload = {"modules": [
        {"module": name, "pairings": {"p+": table[name][0], "p-": table[name][1]}}
        for name in ("F+", "F-", "F1", "F2")
    ], "rank_over_C": table["rank"], "pass": report.passed}
    _emit(payload, args.json_path)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return _run_check(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "distance":
        return _run_distance(args)
    if args.command == "w1":
        return _run_w1(args)
    if args.command == "khomology":
        return _run_khomology(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
