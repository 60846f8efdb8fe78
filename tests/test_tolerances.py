"""Every threshold the package compares against is a name in ncgp.tolerances."""

import ast
import pathlib

import ncgp

SRC = pathlib.Path(ncgp.__file__).parent
# solver settings, not thresholds that the package's results are compared
# against: the options handed to HiGHS and the step rules of the tests' oracle
SETTINGS = {"HIGHS_OPTIONS", "ratio_ascent"}


def small_literals(path: pathlib.Path) -> list[tuple[int, float]]:
    """Float literals with 0 < |v| < 1e-3 outside default arguments and the
    functions and assignments named in SETTINGS.

    Docstrings are string constants, so their numbers are never float nodes.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                exempt.update(id(n) for n in ast.walk(default))
        if (isinstance(node, ast.FunctionDef) and node.name in SETTINGS) or (
                isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in SETTINGS for t in node.targets)):
            exempt.update(id(n) for n in ast.walk(node))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0.0 < abs(node.value) < 1e-3 and id(node) not in exempt]


def test_thresholds_live_in_tolerances():
    found = {path.name: small_literals(path) for path in sorted(SRC.glob("*.py"))
             if path.name != "tolerances.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_scan_sees_code_and_skips_defaults(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('"""A docstring that mentions 1e-12."""\n'
                     "def f(x, tol=1e-9, *, eps=-1e-7):\n"
                     "    return x > 1e-12 and x < -2.5e-4 and x > 0.5\n"
                     "HIGHS_OPTIONS = {'primal_feasibility_tolerance': 1e-10}\n"
                     "OTHER = {'tolerance': 1e-10}\n"
                     "def ratio_ascent(g):\n"
                     "    return g < 1e-15\n")
    assert sorted(small_literals(probe)) == [(3, 1e-12), (3, 2.5e-4), (5, 1e-10)]
