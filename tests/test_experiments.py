"""Experiment registry, reports, random triple generator, and the CLI."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncgp
from ncgp import experiments
from ncgp.algebra import random_state
from ncgp.cli import CATALOG, main
from ncgp.distance import DistanceResult
from ncgp.experiments import (
    CHECKS,
    check_amplified_two_point,
    check_prop_indep,
    check_two_point,
    random_triple,
    sweep_lemmas,
    sweep_theorem1,
    sweep_wasserstein,
)
from ncgp.triples import product, triple_to_json
from ncgp.wasserstein import space_to_json, measure_to_json, lambda_measure, FiniteMetricSpace


class TestRandomTriple:
    def test_seed_zero_invariants(self):
        t = random_triple(0, (1, 1))
        g = t.grading
        assert np.abs(g @ g - np.eye(t.hilbert_dim)).max() < 1e-12
        assert np.abs(g @ t.dirac + t.dirac @ g).max() < 1e-12
        assert t.is_unital

    def test_hundred_seeds_all_valid(self):
        # SpectralTriple construction enforces every invariant, so surviving
        # construction is the assertion
        for seed in range(100):
            blocks = ((1, 1), (2,), (1, 2))[seed % 3]
            t = random_triple(seed, blocks, unital=bool(seed % 2), even=True)
            assert t.is_unital == bool(seed % 2)

    def test_unitality_flag(self):
        assert random_triple(5, (2,), unital=True).is_unital
        assert not random_triple(5, (2,), unital=False).is_unital

    def test_odd_variant_has_no_grading(self):
        assert random_triple(1, (1, 1), even=False).grading is None

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            random_triple(0, (5, 4))

    def test_generated_pair_satisfies_sandwich(self):
        rng = np.random.default_rng(11)
        t1 = random_triple(rng, (1, 1))
        t2 = random_triple(rng, (1, 1))
        pt = product(t1, t2)
        tol = 1e-4
        phi1, phi1p = random_state(t1.algebra, rng), random_state(t1.algebra, rng)
        phi2, phi2p = random_state(t2.algebra, rng), random_state(t2.algebra, rng)
        r1 = ncgp.spectral_distance(t1, phi1, phi1p, tol)
        r2 = ncgp.spectral_distance(t2, phi2, phi2p, tol)
        r = ncgp.spectral_distance(pt, ncgp.product_state(phi1, phi2, pt.algebra),
                                   ncgp.product_state(phi1p, phi2p, pt.algebra), tol)
        assert math.hypot(r1.lower, r2.lower) - 3 * tol <= r.lower
        assert r.lower <= r1.upper + r2.upper + 3 * tol


class TestReports:
    def test_all_checks_pass_at_defaults(self):
        for name, fn in CHECKS.items():
            if name == "lattice-bound":
                report = fn(n=3)
            else:
                report = fn()
            assert report.passed, f"{name} failed: {report.to_json()}"
            assert report.experiment_id == name
            assert report.runtime >= 0.0

    def test_reports_reproducible_modulo_runtime(self):
        a = sweep_theorem1(trials=3, seed=42).to_json()
        b = sweep_theorem1(trials=3, seed=42).to_json()
        a.pop("runtime"), b.pop("runtime")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_seed_changes_draws(self):
        a = sweep_theorem1(trials=2, seed=0).details["rows"]
        b = sweep_theorem1(trials=2, seed=1).details["rows"]
        assert a != b

    def test_prng_identifier_embedded(self):
        r = sweep_lemmas(trials=2, seed=0)
        assert r.to_json()["prng"] == "numpy-pcg64"

    def test_check_report_fields(self):
        r = check_two_point(2.0)
        obj = r.to_json()
        assert set(obj) >= {"experiment_id", "inputs", "claimed", "computed",
                            "pass", "tolerance", "runtime"}
        assert obj["pass"] is True and obj["claimed"] == 2.0

    def test_prop_indep_reports_ratio(self):
        r = check_prop_indep(lam=2.0, mu=1.0)
        assert r.passed
        assert r.details["ratio"] == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-5)

    @pytest.mark.parametrize("check,kwargs", [
        (check_two_point, {"lam": 1e-8}),
        (check_amplified_two_point, {"mu": 1e-8}),
        (check_prop_indep, {"lam": 1.0, "mu": 1e-8}),
    ], ids=["two-point", "amplified-two-point", "prop-indep"])
    def test_closed_form_is_compared_relatively(self, monkeypatch, check, kwargs):
        # a `finite` bracket 10 % off the closed form d = 1e-8: below scale 1,
        # a tolerance taken on max(1, scale) would pass it
        off = DistanceResult(1.1e-8, 1.1e-8, None, "finite")
        monkeypatch.setattr(experiments, "spectral_distance", lambda *args: off)
        assert not check(**kwargs).passed


class TestCli:
    def test_check_exit_zero(self, capsys):
        assert main(["check", "two-point", "--lambda", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True and out["computed"] == pytest.approx(3.0, abs=1e-5)

    def test_python_m_ncgp_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(ncgp.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "ncgp", "check", "two-point",
                               "--lambda", "3"], capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True

    @pytest.mark.usefixtures("no_fallback")
    def test_check_exit_one_on_failed_assertion(self, capsys):
        # demand an unattainable tolerance: the bracket cannot reach 1e-16,
        # and the unconverged solve reports its own bracket
        assert main(["check", "prop-indep", "--lambda", "1", "--mu", "1",
                     "--tol", "1e-16"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is False and out["details"]["status"] == "bracket"

    def test_unknown_experiment_is_usage_error(self, capsys):
        self._assert_input_error(["check", "no-such-experiment"], capsys)

    def test_invalid_parameter_value_is_usage_error(self, capsys):
        assert main(["check", "prop-bound", "--lambda", "0.5"]) == 2
        assert main(["check", "two-point", "--mu", "3"]) == 2
        capsys.readouterr()

    def test_sweep_csv_matches_formula(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main(["sweep", "wasserstein-rsquare", "--lambda-steps", "20",
                     "--csv", str(csv_path)])
        assert code == 0
        capsys.readouterr()
        with open(csv_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        for row in rows:
            lam = float(row["lambda"])
            k = lam + math.sqrt(2.0) * (1.0 - lam)
            assert float(row["ratio"]) == pytest.approx(k, abs=1e-9)
            assert float(row["w1"]) == pytest.approx(lam, abs=1e-9)

    def test_sweep_theorem1_cli(self, capsys):
        assert main(["sweep", "theorem1", "--trials", "2", "--seed", "7"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["computed"] == {"violations": 0} and out["seed"] == 7

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("NCGP_SEED", "13")
        assert main(["sweep", "lemmas", "--trials", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 13

    def test_env_seed_not_integer_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("NCGP_SEED", "abc")
        self._assert_input_error(["sweep", "theorem1", "--trials", "1"], capsys)

    def test_distance_subcommand(self, tmp_path, capsys):
        t = ncgp.two_point(2.0)
        plus, minus = ncgp.pure_states(t.algebra)
        triple_file = tmp_path / "triple.json"
        states_file = tmp_path / "states.json"
        triple_file.write_text(json.dumps(triple_to_json(t)))
        from ncgp.algebra import state_to_json
        states_file.write_text(json.dumps([state_to_json(plus), state_to_json(minus)]))
        out_file = tmp_path / "result.json"
        code = main(["distance", "--triple", str(triple_file),
                     "--states", str(states_file), "--json", str(out_file)])
        assert code == 0
        capsys.readouterr()
        result = json.loads(out_file.read_text())
        assert result["lower"] == pytest.approx(2.0, abs=1e-5)
        assert result["status"] == "finite"

    def test_w1_subcommand(self, tmp_path, capsys):
        seg = FiniteMetricSpace.segment()
        (tmp_path / "space.json").write_text(json.dumps(space_to_json(seg)))
        (tmp_path / "mu.json").write_text(json.dumps(measure_to_json(lambda_measure(seg, 0.3))))
        (tmp_path / "nu.json").write_text(json.dumps(measure_to_json(lambda_measure(seg, 0.0))))
        code = main(["w1", "--space", str(tmp_path / "space.json"),
                     "--mu", str(tmp_path / "mu.json"),
                     "--nu", str(tmp_path / "nu.json")])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(0.3, abs=1e-10)

    def test_khomology_subcommand(self, capsys):
        assert main(["khomology"]) == 0
        out = json.loads(capsys.readouterr().out)
        table = {row["module"]: row["pairings"] for row in out["modules"]}
        assert table["F1"] == {"p+": 1, "p-": -1}
        assert table["F2"] == {"p+": 1, "p-": 1}
        assert out["rank_over_C"] == 1

    def test_distance_catalog_expression(self, capsys):
        assert main(["distance", "--triple", "two_point:lambda=3",
                     "--pure", "0,1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] == pytest.approx(3.0, abs=1e-5)

    def test_distance_composite_catalog_expression(self, capsys):
        spec = "product(two_point:lambda=2,amplified_two_point:mu=1)"
        assert main(["distance", "--triple", spec, "--pure", "0,3",
                     "--tol", "1e-6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] == pytest.approx(1.0, abs=1e-5)

    def test_distance_pullback_catalog_is_infinite(self, capsys):
        assert main(["distance", "--triple", "pullback:sign=+",
                     "--pure", "0,1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "infinite" and out["upper"] == "inf"

    def test_catalog_expression_with_multiparam_leaf(self, capsys):
        assert main(["distance", "--triple", "amplify(lattice_line:n=4,h=0.5)",
                     "--pure", "0,3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] in ("finite", "bracket")
        # nested composite with a trailing two-parameter leaf
        assert main(["distance", "--triple",
                     "product(two_point:lambda=2,two_sheeted_line:n=3,h=1.0)",
                     "--pure", "0,5", "--tol", "1e-5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower"] <= 1.0 + 1e-5

    def test_distance_bad_catalog_name_is_usage_error(self, capsys):
        assert main(["distance", "--triple", "no_such_triple",
                     "--pure", "0,1"]) == 2

    @pytest.mark.parametrize("spec", ["two_point:lamda=3", "two_point:mu=1",
                                      "amplified_two_point:lambda=1", "lattice_line:n=4,k=2",
                                      "two_sheeted_line:lambda=2", "pullback:sign=x",
                                      "pullback:lambda=1",
                                      "product(two_point:lambda=2,amplified_two_point:m=1)"])
    def test_distance_catalog_unknown_key_is_usage_error(self, capsys, spec):
        self._assert_input_error(["distance", "--triple", spec, "--pure", "0,1"], capsys)

    @pytest.mark.parametrize("blocks,hilbert_dim,dirac_rows",
                             [([1.9, 1.2], 2, 2), ([1, 1], 2.7, 2), ([1.9, 1.2], 2.7, 2),
                              ([1, 1], 10 ** 400, 2), ([1, math.inf], 2, 2), ([1, 1], 2, 2.7)],
                             ids=["blocks", "hilbert_dim", "both", "huge", "infinite",
                                  "dirac_rows"])
    def test_distance_non_integral_sizes_are_usage_errors(self, tmp_path, capsys,
                                                          blocks, hilbert_dim, dirac_rows):
        doc = triple_to_json(ncgp.two_point(2.0))
        doc["algebra"]["blocks"] = doc["representation"]["algebra"]["blocks"] = blocks
        doc["representation"]["hilbert_dim"] = hilbert_dim
        doc["dirac"]["rows"] = dirac_rows
        (tmp_path / "triple.json").write_text(json.dumps(doc))
        self._assert_input_error(["distance", "--triple", str(tmp_path / "triple.json"),
                                  "--pure", "0,1"], capsys)

    def test_integral_float_sizes_are_accepted(self, tmp_path, capsys):
        doc = triple_to_json(ncgp.two_point(2.0))
        doc["algebra"]["blocks"] = doc["representation"]["algebra"]["blocks"] = [1.0, 1.0]
        doc["representation"]["hilbert_dim"] = 2.0
        doc["dirac"]["rows"] = 2.0
        (tmp_path / "triple.json").write_text(json.dumps(doc))
        assert main(["distance", "--triple", str(tmp_path / "triple.json"),
                     "--pure", "0,1"]) == 0
        assert json.loads(capsys.readouterr().out)["lower"] == pytest.approx(2.0, abs=1e-5)

    def test_csv_of_sweep_without_rows_is_usage_error(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        self._assert_input_error(["sweep", "lemmas", "--csv", str(csv_path)], capsys)
        assert not csv_path.exists()

    @staticmethod
    def _assert_input_error(argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ncgp: ") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["malformed", "missing", "non-metric", "unnormalized",
                                      "nan-weight", "nan-distance"])
    def test_w1_bad_input_is_usage_error(self, tmp_path, capsys, case):
        seg = FiniteMetricSpace.segment()
        space = space_to_json(seg)
        mu = measure_to_json(lambda_measure(seg, 0.3))
        if case == "non-metric":
            space["dist"] = [[0.0, 1.0], [2.0, 0.0]]
        if case == "unnormalized":
            mu = {"weights": [0.7, 0.7]}
        # json writes and reads NaN as the bare token NaN
        if case == "nan-weight":
            mu = {"weights": [math.nan, 1.0]}
        if case == "nan-distance":
            space["dist"] = [[0.0, math.nan], [math.nan, 0.0]]
        (tmp_path / "space.json").write_text(json.dumps(space))
        (tmp_path / "mu.json").write_text("{not json" if case == "malformed" else json.dumps(mu))
        nu = "absent.json" if case == "missing" else "mu.json"
        self._assert_input_error(["w1", "--space", str(tmp_path / "space.json"),
                                  "--mu", str(tmp_path / "mu.json"),
                                  "--nu", str(tmp_path / nu)], capsys)

    def test_distance_malformed_states_is_usage_error(self, tmp_path, capsys):
        states_file = tmp_path / "states.json"
        states_file.write_text("[{not json")
        self._assert_input_error(["distance", "--triple", "two_point:lambda=2",
                                  "--states", str(states_file)], capsys)

    def test_distance_states_on_other_algebra_is_usage_error(self, tmp_path, capsys):
        from ncgp.algebra import state_to_json
        plus, minus = ncgp.pure_states(ncgp.FiniteAlgebra((1, 1)))
        states_file = tmp_path / "states.json"
        states_file.write_text(json.dumps([state_to_json(plus), state_to_json(minus)]))
        assert main(["distance", "--triple", "lattice_line:n=3",
                     "--states", str(states_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ncgp: bad --states file: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--pure", "0,1", "--tol", "-1"],
                                      ["--pure", "0,1", "--tol", "nan"],
                                      ["--pure=-1,0"]],
                             ids=["negative-tol", "nan-tol", "negative-pure"])
    def test_distance_bad_tol_or_pure_is_usage_error(self, capsys, argv):
        self._assert_input_error(["distance", "--triple", "two_point:lambda=2", *argv], capsys)

    @pytest.mark.parametrize("argv", [["theorem1", "--trials", "0"],
                                      ["lemmas", "--trials", "0"],
                                      ["wasserstein-rsquare", "--lambda-steps", "0"]],
                             ids=["theorem1", "lemmas", "wasserstein-rsquare"])
    def test_sweep_without_trials_is_usage_error(self, capsys, argv):
        self._assert_input_error(["sweep", *argv], capsys)

    # commands whose --tol reaches no distance solve, so only the command
    # line can refuse it
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    @pytest.mark.parametrize("argv", [["check", "wasserstein-point"],
                                      ["check", "khomology-pairings"],
                                      ["sweep", "wasserstein-rsquare"],
                                      ["sweep", "lemmas", "--trials", "1"]],
                             ids=lambda argv: " ".join(argv))
    def test_bad_tol_is_usage_error_on_every_command(self, capsys, argv, tol):
        self._assert_input_error([*argv, "--tol", tol], capsys)

    @pytest.mark.parametrize("argv", [["check", "two-point", "--json"],
                                      ["khomology", "--json"],
                                      ["sweep", "wasserstein-rsquare", "--csv"]],
                             ids=lambda argv: " ".join(argv))
    def test_unwritable_output_path_is_usage_error(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "r.json"
        self._assert_input_error([*argv, str(path)], capsys)
        assert not path.parent.exists()

    def test_readme_leaf_table_matches_catalog(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| leaf | keys |\n| --- | --- |\n")[1].split("\n\n")[0]
        documented = {}
        for row in table.splitlines():
            leaves, keys = row.strip("|").split("|")
            for leaf in re.findall(r"`(\w+)`", leaves):
                documented[leaf] = set(re.findall(r"`([A-Za-z_]\w*)`", keys))
        assert documented == {leaf: set(defaults) for leaf, (_, defaults) in CATALOG.items()}


def test_wasserstein_sweep_report():
    r = sweep_wasserstein(lambda_steps=9)
    assert r.passed and r.computed["max_abs_error"] <= 1e-9
    assert len(r.details["rows"]) == 9
