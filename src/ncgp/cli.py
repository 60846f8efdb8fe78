"""Command line front end.

    ncgp check <experiment> [--lambda X] [--mu X] [--n N] [--tol X] [--json PATH]
    ncgp sweep <sweep> [--trials N] [--seed N] [--lambda-steps N] [--tol X]
                       [--json PATH] [--csv PATH]
    ncgp distance --triple FILE --states FILE [--tol X] [--json PATH]
    ncgp w1 --space FILE --mu FILE --nu FILE [--json PATH]
    ncgp khomology [--json PATH]

Exit status: 0 if every assertion passed, 1 on a failed assertion, 2 on any
usage error, bad input or refused computation, with one `ncgp: ` line on
stderr and nothing on stdout: argparse's own errors, `--states` given together
with `--pure` and a failed `w1` LP check included.  NCGP_SEED overrides the
default seed 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys

from . import khomology, triples
from .algebra import pure_states, state_from_json
from .distance import distance_result_to_json, spectral_distance
from .experiments import CHECKS, SWEEPS, check_khomology
from .tolerances import DEFAULT_TOL
from .wasserstein import measure_from_json, space_from_json, w1

# what parsing, loading and validating input can raise; each means exit 2
INPUT_ERRORS = (ValueError, KeyError, TypeError, OSError)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are raised for `main` to report;
    its subparsers are of the same class."""

    def error(self, message):
        raise ValueError(message)


def _reason(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _pullback(sign: str):
    if sign not in ("+", "-"):
        raise ValueError(f"pullback sign must be + or -, got {sign!r}")
    mod = khomology.module_f_plus() if sign == "+" else khomology.module_f_minus()
    return mod.as_spectral_triple()


# each catalog leaf: its constructor and its keys with their defaults, in
# argument order; a given value is parsed with its default's type
CATALOG = {
    "two_point": (triples.two_point, {"lambda": 1.0}),
    "amplified_two_point": (triples.amplified_two_point, {"mu": 1.0}),
    "pullback": (_pullback, {"sign": "+"}),
    "lattice_line": (triples.lattice_line, {"n": 5, "h": 1.0}),
    "two_sheeted_line": (triples.two_sheeted_line, {"n": 5, "h": 1.0}),
}
# a depth-0 comma separates arguments only when a constructor follows it;
# otherwise it continues the previous leaf's parameter list
_NEXT_ARGUMENT = re.compile(r"\s*[A-Za-z_][A-Za-z_0-9]*\s*($|[:(,])")


def _default_seed() -> int:
    try:
        return int(os.environ.get("NCGP_SEED", "0"))
    except ValueError:
        raise ValueError(f"NCGP_SEED must be an integer, got {os.environ['NCGP_SEED']!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncgp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a named reproduction experiment")
    check.set_defaults(run=_run_check)
    check.add_argument("experiment", choices=sorted(CHECKS))
    check.add_argument("--lambda", dest="lam", type=float, default=None)
    check.add_argument("--mu", type=float, default=None)
    check.add_argument("--n", type=int, default=None, help="lattice size")
    check.add_argument("--tol", type=float, default=None)
    check.add_argument("--json", dest="json_path", default=None)

    sweep = sub.add_parser("sweep", help="run a randomized or gridded sweep")
    sweep.set_defaults(run=_run_sweep)
    sweep.add_argument("sweep", choices=sorted(SWEEPS))
    sweep.add_argument("--trials", type=int, default=None)
    sweep.add_argument("--seed", type=int, default=None)
    sweep.add_argument("--lambda-steps", dest="lambda_steps", type=int, default=None)
    sweep.add_argument("--tol", type=float, default=None)
    sweep.add_argument("--json", dest="json_path", default=None)
    sweep.add_argument("--csv", dest="csv_path", default=None)

    dist = sub.add_parser("distance", help="spectral distance from JSON or catalog inputs")
    dist.set_defaults(run=_run_distance)
    dist.add_argument("--triple", required=True,
                      help="triple JSON file, or a catalog expression such as "
                           "two_point:lambda=3 or product(two_point:lambda=2,"
                           "amplified_two_point:mu=1)")
    states = dist.add_mutually_exclusive_group(required=True)
    states.add_argument("--states", help="JSON file with a two-element list of states")
    states.add_argument("--pure",
                        help="pick two pure states by index, e.g. 0,1 (commutative algebras)")
    dist.add_argument("--tol", type=float, default=DEFAULT_TOL)
    dist.add_argument("--json", dest="json_path", default=None)

    wass = sub.add_parser("w1", help="Wasserstein-1 distance from JSON inputs")
    wass.set_defaults(run=_run_w1)
    wass.add_argument("--space", required=True)
    wass.add_argument("--mu", required=True)
    wass.add_argument("--nu", required=True)
    wass.add_argument("--json", dest="json_path", default=None)

    kh = sub.add_parser("khomology", help="print the catalog pairing table")
    kh.set_defaults(run=_run_khomology)
    kh.add_argument("--json", dest="json_path", default=None)
    return parser


def _emit(payload: dict, json_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _given(args, *names) -> dict:
    """The named options that were given, as keyword arguments: an option
    the experiment does not take is then refused by its signature (exit 2)."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _run_check(args) -> int:
    report = CHECKS[args.experiment](**_given(args, "lam", "mu", "n", "tol"))
    _emit(report.to_json(), args.json_path)
    return 0 if report.passed else 1


def _run_sweep(args) -> int:
    kwargs = _given(args, "trials", "lambda_steps", "tol")
    if args.csv_path and args.sweep == "lemmas":
        raise ValueError("--csv needs a sweep with rows; lemmas reports only counts")
    # the W1 sweep is not seeded: an explicit --seed is refused there
    if args.seed is not None or args.sweep != "wasserstein-rsquare":
        kwargs["seed"] = args.seed if args.seed is not None else _default_seed()
    report = SWEEPS[args.sweep](**kwargs)
    if args.csv_path:
        rows = report.details["rows"]
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
    spec = spec.strip()
    if "(" in spec and spec.endswith(")"):
        name, _, rest = spec.partition("(")
        inner = rest[:-1]
        depth, parts, start = 0, [], 0
        for i, ch in enumerate(inner):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 0 and _NEXT_ARGUMENT.match(inner, i + 1):
                parts.append(inner[start:i])
                start = i + 1
        parts.append(inner[start:])
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
    if name not in CATALOG:
        raise ValueError(f"unknown catalog constructor {name!r}")
    build, defaults = CATALOG[name]
    if not params.keys() <= defaults.keys():
        raise ValueError(f"{name} accepts only the keys {sorted(defaults)}, got {spec!r}")
    return build(*(type(d)(params.get(key, d)) for key, d in defaults.items()))


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _load_triple(arg: str):
    if arg.endswith(".json"):
        return triples.triple_from_json(_load_json(arg))
    return parse_triple_spec(arg)


def _pure_pair(triple, pure: str):
    states = pure_states(triple.algebra)
    picks = re.fullmatch(r"\s*(\d+)\s*,\s*(\d+)\s*", pure)
    if not picks or max(int(i) for i in picks.groups()) >= len(states):
        raise ValueError(f"--pure needs two indices in 0..{len(states) - 1}, got {pure!r}")
    return [states[int(i)] for i in picks.groups()]


def _run_distance(args) -> int:
    triple = _load_triple(args.triple)
    if args.pure is not None:
        phi, phi2 = _pure_pair(triple, args.pure)
    else:
        try:
            raw = _load_json(args.states)
            if not isinstance(raw, list) or len(raw) != 2:
                raise ValueError("must hold a two-element list")
            phi, phi2 = (state_from_json(obj) for obj in raw)
            if phi.algebra != triple.algebra or phi2.algebra != triple.algebra:
                raise ValueError("states must live on the triple's algebra")
        except INPUT_ERRORS as exc:
            raise ValueError(f"bad --states file: {_reason(exc)}") from None
    result = spectral_distance(triple, phi, phi2, args.tol)
    _emit(distance_result_to_json(result), args.json_path)
    return 0


def _run_w1(args) -> int:
    space = space_from_json(_load_json(args.space))
    mu = measure_from_json(space, _load_json(args.mu))
    nu = measure_from_json(space, _load_json(args.nu))
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
    """Run one command; the one place where an input error becomes exit 2."""
    try:
        args = build_parser().parse_args(argv)
        tol = getattr(args, "tol", None)
        if tol is not None and not 0.0 < tol < math.inf:
            raise ValueError(f"tol must be finite and > 0, got {tol}")
        return args.run(args)
    except INPUT_ERRORS as exc:
        print(f"ncgp: {_reason(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
