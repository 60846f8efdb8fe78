"""The CLI contract on mutated input documents: `ncgp distance` and `ncgp w1`
exit 0, 1 or 2 whatever their JSON files hold, never with a traceback, and a
usage error is one `ncgp: ` line on stderr.  The same holds for malformed
command lines, argparse's own errors included, and for catalog scales that
are not finite and positive, or whose reciprocal is not finite, and a report
of an extreme but valid scale is written as JSON."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgp.algebra import pure_states, state_to_json
from ncgp import wasserstein
from ncgp.cli import main, parse_triple_spec
from ncgp.experiments import CHECKS, SWEEPS
from ncgp.triples import product, triple_to_json, two_point
from ncgp.wasserstein import (
    FiniteMetricSpace,
    Measure,
    lambda_measure,
    measure_to_json,
    space_to_json,
)

_SEG = FiniteMetricSpace.segment()
_PT = product(two_point(2.0), two_point(1.0))   # its algebra JSON carries factors
VALID = {
    "triple": triple_to_json(_PT),
    "states": [state_to_json(s) for s in pure_states(_PT.algebra)[::3]],
    "space": space_to_json(_SEG),
    "mu": measure_to_json(lambda_measure(_SEG, 0.3)),
    "nu": measure_to_json(lambda_measure(_SEG, 0.0)),
}
ARGV = {
    "distance": ["distance", "--triple", "{triple}", "--states", "{states}"],
    "w1": ["w1", "--space", "{space}", "--mu", "{mu}", "--nu", "{nu}"],
}

OTHER_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                         st.floats(-10.0, 10.0), st.text(max_size=3),
                         st.just([]), st.just({}))


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutated(data, doc):
    """doc with one node dropped, retyped, made non-integral or NaN, or nested
    one level deeper or shallower."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))))
    kind = data.draw(st.sampled_from(["drop", "retype", "non-integral", "nan",
                                      "nest", "unnest"]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]] if path else doc
    if kind == "drop":
        if not path:
            return {}
        del parent[path[-1]]
        return doc
    if kind == "retype":
        new = data.draw(OTHER_VALUES)
    elif kind == "non-integral":
        numeric = isinstance(node, (int, float)) and not isinstance(node, bool)
        new = node + 0.5 if numeric else 2.7
    elif kind == "nan":
        new = math.nan
    elif kind == "nest":
        new = [node]
    else:
        children = list(node.values()) if isinstance(node, dict) else node
        new = children[0] if isinstance(children, list) and children else node
    if not path:
        return new
    parent[path[-1]] = new
    return doc


def _main(argv):
    """main(argv) with its exit code, stdout and stderr; an exception,
    SystemExit included, propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_line(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("ncgp: ") and len(err.splitlines()) == 1
    assert not err.startswith("ncgp: ncgp")


def _run(command, docs):
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, doc in docs.items():
            files[name] = str(Path(tmp) / f"{name}.json")
            Path(files[name]).write_text(json.dumps(doc))
        code, _, err = _main([arg.format(**files) for arg in ARGV[command]])
    return code, err


@pytest.mark.parametrize("command,doc", [("distance", "triple"), ("distance", "states"),
                                         ("w1", "space"), ("w1", "mu"), ("w1", "nu")])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_exit_contract(command, doc, data):
    docs = {name: VALID[name] for name in VALID if "{%s}" % name in ARGV[command]}
    docs[doc] = _mutated(data, docs[doc])
    code, err = _run(command, docs)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("ncgp: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["check", "two-point", "--lambda", "inf"],
    ["check", "amplified-two-point", "--mu", "inf"],
    ["check", "prop-indep", "--mu", "inf"],
    ["check", "prop-bound", "--lambda", "inf"],
    ["check", "lattice-bound", "--n", "3", "--lambda", "inf"],
    ["check", "two-point", "--lambda", "nan"],
    ["distance", "--triple", "two_point:lambda=inf", "--pure", "0,1"],
    ["distance", "--triple", "lattice_line:n=4,h=inf", "--pure", "0,1"],
    # subnormal scales: D would divide by them to an infinite entry
    ["distance", "--triple", "two_point:lambda=1e-320", "--pure", "0,1"],
    ["distance", "--triple", "amplified_two_point:mu=1e-308", "--pure", "0,1"],
    ["distance", "--triple", "lattice_line:n=4,h=1e-309", "--pure", "0,1"],
    ["distance", "--triple", "two_sheeted_line:n=3,h=2e-309", "--pure", "0,1"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_catalog_scale_is_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("ncgp: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    # an option the named sweep does not take: the W1 sweep is not seeded,
    # and only the W1 sweep has a lambda grid
    ["sweep", "wasserstein-rsquare", "--seed", "5"],
    ["sweep", "theorem1", "--lambda-steps", "3"],
], ids=lambda argv: " ".join(argv))
def test_option_foreign_to_the_sweep_is_usage_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("ncgp: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,code", [
    (["check", "two-point", "--lambda", "1e300"], 0),
    (["check", "two-point", "--lambda", "1e-300"], 0),
    # D near 1e308: no step of the solve overflows, and the suite's
    # filterwarnings = error turns any numpy overflow warning into a failure
    (["check", "two-point", "--lambda", "1e-308"], 0),
    # the product solve reports this pair infinite; its report still holds
    # upper = inf, which strict JSON cannot, and must be written
    (["check", "prop-indep", "--lambda", "1e-300"], 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_extreme_finite_scale_writes_a_json_report(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["pass"] is (code == 0)


@pytest.mark.parametrize("argv,named", [
    (["check", "two-point", "--lambda", "abc"], "--lambda"),
    (["check", "no-such-experiment"], "no-such-experiment"),
    (["bogus"], "bogus"),
    ([], "command"),
    (["distance", "--pure", "0,1"], "--triple"),
    (["distance", "--triple", "two_point", "--pure", "0,1", "--states", "s.json"],
     "not allowed with"),
    (["distance", "--triple", "two_point", "--pure", "0,5"], "--pure"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_usage_error_is_one_line_naming_it(argv, named):
    code, out, err = _main(argv)
    _assert_one_line(code, out, err)
    assert named in err


def test_amplify_takes_one_argument():
    with pytest.raises(ValueError, match=r"unknown composite constructor 'amplify\(two_point,"):
        parse_triple_spec("amplify(two_point,two_point)")


@pytest.mark.parametrize("command,doc,drop", [("w1", "mu", "weights"),
                                              ("distance", "triple", "dirac")])
def test_missing_json_key_reads_as_missing_key(command, doc, drop):
    docs = {name: VALID[name] for name in VALID if "{%s}" % name in ARGV[command]}
    docs[doc] = {key: v for key, v in docs[doc].items() if key != drop}
    code, err = _run(command, docs)
    assert code == 2 and err == f"ncgp: missing key '{drop}'\n"


def test_failed_w1_lp_check_is_one_line(monkeypatch):
    def gave_up(*args, **kwargs):
        raise ValueError("transport LP failed: the solver gave up")

    monkeypatch.setattr(wasserstein, "linprog", gave_up)
    code, err = _run("w1", {name: VALID[name] for name in ("space", "mu", "nu")})
    assert code == 2 and err == "ncgp: transport LP failed: the solver gave up\n"


_LINE3 = FiniteMetricSpace.euclidean(("a", "b", "c"), [[0.0], [1.0], [2.0]])
# a Dirac mass at a against half at b and half at c: two demand rows, so the
# column duals shape the potential (with one, its gauge f[0] = 0 removes them)
W1_LINE3 = {"space": space_to_json(_LINE3),
            "mu": measure_to_json(Measure.dirac(_LINE3, 0)),
            "nu": measure_to_json(Measure(_LINE3, [0.0, 0.5, 0.5]))}


@pytest.mark.parametrize("perturb,message", [
    pytest.param(lambda x, fun, duals: (x * (1.0 + 1e-6), fun, duals),
                 "transport plan violates its marginals", id="plan"),
    pytest.param(lambda x, fun, duals: (x, fun, duals + [0.0, 0.5, 0.0]),
                 "duality gap 0.25 times the largest distance exceeds", id="duals"),
])
def test_failed_w1_check_is_one_line(monkeypatch, perturb, message):
    solve = wasserstein.linprog
    monkeypatch.setattr(wasserstein, "linprog", lambda *args: perturb(*solve(*args)))
    code, err = _run("w1", W1_LINE3)
    assert code == 2 and err.startswith(f"ncgp: {message}") and err.count("\n") == 1


# a small vocabulary of command-line words, valid and not; every value keeps a
# command fast: no --trials above 2, no --n above 4
COMMANDS = ["check", "sweep", "distance", "w1", "khomology", "bogus"]
NAMES = sorted(CHECKS) + sorted(SWEEPS) + ["no-such-experiment"]
OPTIONS = ["--lambda", "--mu", "--n", "--tol", "--trials", "--seed", "--lambda-steps",
           "--triple", "--states", "--pure", "--space", "--nu"]
VALUES = ["abc", "-1", "nan", "1e-300", "inf", "0", "1", "2", "4", "0,1", "0,5", "-1,0",
          "two_point", "two_point:lambda=abc", "product(two_point,two_point)",
          "absent.json"]


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(COMMANDS),
       name=st.lists(st.sampled_from(NAMES), max_size=1),
       options=st.lists(st.tuples(st.sampled_from(OPTIONS),
                                  st.lists(st.sampled_from(VALUES), max_size=1)),
                        max_size=3))
def test_malformed_argv_keeps_exit_contract(command, name, options):
    argv = [command, *name] + [word for option, value in options for word in [option, *value]]
    # the defaults of these two run many solves: bound them when not drawn
    if "sweep" in argv and "--trials" not in argv:
        argv += ["--trials", "1"]
    if "lattice-bound" in argv and "--n" not in argv:
        argv += ["--n", "3"]
    code, out, err = _main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        _assert_one_line(code, out, err)
