import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from levynoise import apps, experiments, ito, mc
from levynoise.cli import bundled_config_text, main
from levynoise.experiments import (
    PARAMS,
    REGISTRY,
    ConfigError,
    _csv,
    _tol_row,
    _worst,
    parse_config,
    run_experiment,
)

EXPERIMENTS = sorted(REGISTRY)


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def assert_bad_param(tmp_path, capsys, name, key, value):
    """params.<key> = value in the bundled config: a ConfigError naming it,
    exit 2 from validate and run, no traceback and no output written."""
    raw = json.loads(bundled_config_text(name))
    raw["params"][key] = value
    assert_refused(tmp_path, capsys, raw, key)


def assert_refused(tmp_path, capsys, raw, key):
    """The config is a ConfigError naming params.<key>: exit 2 from validate
    and run, no traceback and no output written."""
    with pytest.raises(ConfigError, match=rf"^params\.{key}: "):
        parse_config(raw)
    path = write_config(tmp_path, raw)
    assert main(["validate", path]) == 2
    assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"params.{key}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def small_simulate_config():
    raw = json.loads(bundled_config_text("simulate"))
    raw["replicates"] = 200
    return raw


class TestParseConfig:
    def test_bundled_configs_all_valid(self):
        for name in EXPERIMENTS:
            raw = json.loads(bundled_config_text(name))
            assert set(raw["params"]) <= set(PARAMS[name]), name
            cfg = parse_config(raw)
            assert cfg.experiment == name
            # every declared param resolved, given or defaulted
            assert set(cfg.params) == set(PARAMS[name]), name

    def test_unknown_experiment(self):
        raw = small_simulate_config()
        raw["experiment"] = "nope"
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(raw)

    def test_malformed_shell(self):
        raw = small_simulate_config()
        raw["window"]["shell"] = [1.0, 0.5]
        with pytest.raises(ConfigError, match="window"):
            parse_config(raw)

    def test_infinite_intensity_rejected(self):
        raw = small_simulate_config()
        raw["measure"] = {"family": "truncated_stable", "alpha": 1.0, "c": 1.0, "r": 1.0}
        raw["window"]["shell"] = [0.0, 1.0]
        with pytest.raises(ConfigError, match="measures"):
            parse_config(raw)

    def test_bad_integrand_path(self):
        raw = small_simulate_config()
        raw["integrands"] = {"H": {"terms": [{"jump": {"kind": "wat"}}]}}
        with pytest.raises(ConfigError, match="integrands.H"):
            parse_config(raw)


    @pytest.mark.parametrize("key, value", [
        ("seed", "abc"), ("seed", 1.5), ("seed", True), ("replicates", "x"),
        ("replicates", 200.0), ("workers", "2"), ("workers", None),
        ("k_sigma", -1), ("k_sigma", 0), ("k_sigma", math.inf), ("k_sigma", math.nan),
        ("k_sigma", "4"), ("k_sigma", False), ("experiment", ["simulate"]),
        ("measures", "x"), ("integrands", [1]), ("params", [1]), ("params", "x"),
        ("replicate", 100), ("measurs", {}), ("description", "x"), ("replicates", 1),
        ("workers", 0), ("k_sigma", 4.0)])
    def test_bad_top_level_field(self, tmp_path, key, value):
        # k_sigma is no field: the Monte Carlo bound is mc.K_SIGMA
        raw = small_simulate_config()
        raw[key] = value
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        assert main(["validate", path]) == 2
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("name, key, value", [
        ("ito-lemma", "paths", 0), ("ito-lemma", "paths", "x"), ("ito-lemma", "paths", 2.7),
        ("ito-lemma", "paths", True), ("ito1", "agreement_paths", 0),
        ("martingale", "representation_paths", -1), ("chaos", "product_check_paths", 0)])
    def test_bad_path_count(self, tmp_path, name, key, value):
        # a path count below 1 would check nothing and pass; one that is not
        # an integer would be truncated or raise mid-run
        raw = json.loads(bundled_config_text(name))
        raw["params"][key] = value
        with pytest.raises(ConfigError, match=rf"^params\.{key}: "):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        assert main(["validate", path]) == 2
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("name, key, value", [
        ("chaos", "slot_a", "Z"), ("chaos", "slot_c", 3), ("chaos", "product_tol", "abc"),
        ("chaos", "product_tol", -1), ("chaos", "product_tol", 0),
        ("chaos", "product_tol", True), ("chaos", "product_tol", math.inf),
        ("interlace", "h_name", "nope"), ("interlace", "spatial_k_name", "nope"),
        ("interlace", "spatial_measure", "nope"), ("kunita", "x_names", ["X1", "Y"]),
        ("kunita", "x_names", []), ("kunita", "x_names", "X1"), ("ito1", "h_name", "Q"),
        ("ito1", "agreement_tol", math.nan), ("ito2", "h_names", ["H1", 2]),
        ("ito-lemma", "g_names", ["G9"]), ("ito-lemma", "residual_tol", -1e-8),
        ("martingale", "h_name", "H"), ("martingale", "representation_tol", "1e-6"),
        ("isometry", "cells", [{"measure": "atoms", "integrand": "Z"}]),
        ("isometry", "cells", [{"measure": "nope", "integrand": "Hz"}]),
        ("isometry", "cells", [{"measure": "atoms"}]), ("isometry", "cells", 5),
        ("isometry", "cells", [["atoms", "Hz"]])])
    def test_bad_name_or_tolerance_param(self, tmp_path, capsys, name, key, value):
        # an undefined integrand or measure would raise mid-run; a tolerance
        # is no param, since each verdict's bound is fixed where it is judged
        assert_bad_param(tmp_path, capsys, name, key, value)

    @pytest.mark.parametrize("name, key, value", [
        ("simulate", "spatial_sample", "x"), ("simulate", "spatial_sample", 0),
        ("simulate", "spatial_sample", 2.5), ("simulate", "spatial_sample", True),
        ("simulate", "test_level", 2.0), ("simulate", "test_level", 0),
        ("simulate", "test_level", 1), ("simulate", "test_level", math.nan),
        ("simulate", "test_level", "0.01"), ("kunita", "ps", [1.0]), ("kunita", "ps", []),
        ("kunita", "ps", 2.0), ("kunita", "ps", [2.0, math.inf]), ("kunita", "ps", ["3"]),
        ("charfn", "u_values", "ab"), ("charfn", "u_values", []),
        ("charfn", "u_values", [1.0, math.nan]), ("martingale", "u_values", "ab"),
        ("martingale", "u_values", [1.0, None]), ("martingale", "u_values", [True]),
        ("charfn", "a", "x"), ("charfn", "box", "ab"), ("charfn", "box", [[0.5, -0.5]]),
        ("charfn", "interval", [1.0]), ("charfn", "u_value", [1.0]),
        ("ito2", "functions", [{"kind": "nope"}]), ("ito-lemma", "functions", "x"),
        ("interlace", "n_max", "x"), ("interlace", "n_max", 6.0), ("interlace", "small_hi", "x"),
        ("interlace", "diag_replicates", 0), ("interlace", "diag_replicates", 1),
        ("interlace", "spatial_replicates", 1), ("interlace", "spatial_n_max", -1),
        ("kunita", "cell_replicate", 100), ("kunita", "cell_replicates", "x"),
        ("kunita", "cell_replicates", 1), ("kunita", "ratio_guard_factor", "x"),
        ("isometry", "paths", 5), ("chaos", "product_check_path", 300),
        ("charfn", "box", [[-3.0, 3.0]]), ("charfn", "box", [[0.0, 0.6]]),
        ("charfn", "interval", [0.5, 2.0]), ("charfn", "interval", [-0.5, 0.5]),
        ("interlace", "n_max", 9),
        # the bounds that were params, each at its old default and now fixed in code
        ("simulate", "test_level", 1e-3), ("ito-lemma", "residual_tol", 1e-8),
        ("ito1", "residual_tol", 1e-6), ("ito2", "residual_tol", 1e-6),
        ("ito1", "agreement_tol", 1e-10), ("kunita", "ratio_guard_factor", 10.0),
        ("martingale", "representation_tol", 1e-6), ("chaos", "product_tol", 1e-9)])
    def test_bad_value_param(self, tmp_path, capsys, name, key, value):
        # each of these passed validate and then raised, ran a verdict that
        # means nothing, or was ignored (a misspelled or undeclared key)
        assert_bad_param(tmp_path, capsys, name, key, value)

    # the param each change to the bundled interlace config is refused by
    UNDIAGNOSABLE = {
        "n_max": lambda raw: raw["params"].update(n_max=1),
        "spatial_n_max": lambda raw: raw["params"].update(spatial_n_max=1),
        "spatial_h_name": lambda raw: raw["integrands"]["HS"]["terms"][0].update(
            space=[{"kind": "poly", "coeffs": [1.0, 0.5]}]),
        "h_name": lambda raw: raw["integrands"]["H"]["terms"][0].update(jump={
            "kind": "product", "factors": [{"kind": "sign_pow", "power": 1.0},
                                           {"kind": "abs_indicator", "lo": 1.5, "hi": 2.0}]}),
    }

    @pytest.mark.parametrize("key", sorted(UNDIAGNOSABLE))
    def test_undiagnosable_ladder(self, tmp_path, capsys, key):
        # one ladder level (n_max 1, or an H inactive on the small jumps) or
        # a space factor that does not decay leaves no ring to diagnose;
        # each passed validate, then raised in the run
        raw = json.loads(bundled_config_text("interlace"))
        self.UNDIAGNOSABLE[key](raw)
        assert_refused(tmp_path, capsys, raw, key)

    def test_defaulted_names_resolved(self):
        raw = json.loads(bundled_config_text("chaos"))
        del raw["integrands"]["C"]
        with pytest.raises(ConfigError, match=r"^params\.slot_c: 'C' names no integrand"):
            parse_config(raw)
        # without the spatial ladder, interlace reads no spatial names
        raw = json.loads(bundled_config_text("interlace"))
        del raw["integrands"]["HS"], raw["integrands"]["KS"]
        with pytest.raises(ConfigError, match=r"^params\.spatial_h_name: "):
            parse_config(raw)
        raw["params"]["spatial"] = False
        raw["params"]["spatial_measure"] = "nope"
        parse_config(raw)

    def test_point_budget(self, tmp_path, capsys):
        # a window, or interlace's largest ring, expecting more than
        # MAX_POINTS points exits 2 before any draw
        raw = small_simulate_config()
        raw["window"]["box"] = [[-1e8, 1e8]]
        with pytest.raises(ConfigError, match=r"^window: the window under measures\."):
            parse_config(raw)
        assert main(["validate", write_config(tmp_path, raw)]) == 2
        assert "expects 4.2e+08 points" in capsys.readouterr().err
        raw = json.loads(bundled_config_text("interlace"))
        raw["params"]["n_max"] = 7  # largest ring 7.3e6 expected points: under the budget
        assert parse_config(raw).params["n_max"] == 7
        for n, points in ((8, r"5\.87e\+07"), (9, r"4\.7e\+08")):
            raw["params"]["n_max"] = n
            with pytest.raises(ConfigError, match=r"^params\.n_max: the largest small-jump "
                               rf"ring expects {points} points"):
                parse_config(raw)

    def test_point_budget_bounds_one_ring(self, monkeypatch):
        # only one ring is in memory at a time: a budget between the largest
        # ring's expected points (9.2e5) and the shipped ladder's whole
        # depth (1.05e6) accepts the ladder, one below the ring refuses it
        raw = json.loads(bundled_config_text("interlace"))
        monkeypatch.setattr(experiments, "MAX_POINTS", 10 ** 6)
        parse_config(raw)
        monkeypatch.setattr(experiments, "MAX_POINTS", 9 * 10 ** 5)
        with pytest.raises(ConfigError, match=r"^params\.n_max: the largest small-jump ring"):
            parse_config(raw)
        # a one-level ladder has no ring to diagnose
        raw["params"].update(n_max=1, spatial=False)
        with pytest.raises(ConfigError, match=r"^params\.n_max: must be an integer >= 2"):
            parse_config(raw)

    def test_bad_output_dir(self, tmp_path, monkeypatch, capsys):
        raw = small_simulate_config()
        raw["output_dir"] = 5
        with pytest.raises(ConfigError, match="^output_dir: "):
            parse_config(raw)
        path = write_config(tmp_path, raw)
        monkeypatch.chdir(tmp_path)
        assert main(["validate", path]) == 2
        assert main(["run", path]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("text", ["[1]", '"x"', "5", "null"])
    def test_top_level_not_an_object(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 2
        assert "JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_workers_flag_is_a_usage_error(self, tmp_path, capsys):
        # `workers` is a config field only; the run flag is gone
        path = write_config(tmp_path, small_simulate_config())
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", path, "--workers", "2", "--output-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out_dir.exists()



class TestKunitaGuard:
    def test_label_shows_factor(self):
        raw = json.loads(bundled_config_text("kunita"))
        raw["params"].update(cell_replicates=2)
        guard, = [v.name for v in run_experiment(parse_config(raw)).verdicts
                  if v.name.startswith("ratio_guard(")]
        assert "(10 max(" in guard


class TestCliCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert out == EXPERIMENTS

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = write_config(tmp_path, small_simulate_config())
        assert main(["validate", good]) == 0
        raw = small_simulate_config()
        raw["window"]["shell"] = [2.0, 2.0]
        bad = write_config(tmp_path, raw, "bad.json")
        assert main(["validate", bad]) == 2
        assert main(["validate", str(tmp_path / "missing.json")]) == 2

    def test_validate_product_space_factor(self, tmp_path):
        # the bundled interlace with HS's space factor e^-|x| cos x: its
        # spatial ladder once stalled on a single-panel box integral
        raw = json.loads(bundled_config_text("interlace"))
        raw["integrands"]["HS"]["terms"][0]["space"] = [{"kind": "product", "factors": [
            {"kind": "exp_abs", "rate": -1.0}, {"kind": "cos", "freq": 1.0}]}]
        assert main(["validate", write_config(tmp_path, raw)]) == 0

    def test_skewed_space_factor_validates_and_runs(self, tmp_path):
        # HS's space factor e^-|x| e^(x/2) decays on both sides, and its
        # whole-line integral is 8/3; quadrature once read it as divergent
        raw = json.loads(bundled_config_text("interlace"))
        raw["integrands"]["HS"]["terms"][0]["space"] = [{"kind": "product", "factors": [
            {"kind": "exp_abs", "rate": -1.0}, {"kind": "exp", "rate": 0.5}]}]
        raw["params"].update(diag_replicates=2, spatial_replicates=3)
        path = write_config(tmp_path, raw)
        assert main(["validate", path]) == 0
        assert main(["run", path, "--output-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_validate_prints_resolved_params(self, tmp_path, capsys, name):
        path = write_config(tmp_path, json.loads(bundled_config_text(name)))
        assert main(["validate", path]) == 0
        ok, *lines = capsys.readouterr().out.splitlines()
        keys = [line.split(" = ", 1)[0] for line in lines]
        assert ok == "config ok" and keys == sorted(parse_config(
            json.loads(bundled_config_text(name))).params)
        assert " at 0x" not in "\n".join(lines)  # no function addresses
        if name == "interlace":  # one param given, one defaulted
            assert "n_max = 6" in lines and "small_hi = 1.0" in lines

    def test_run_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, small_simulate_config())
        out_dir = tmp_path / "out"
        code = main(["run", path, "--output-dir", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["experiment"] == "simulate"
        assert summary["passed"] is True
        assert (out_dir / "points.csv").exists()
        assert "[PASS]" in capsys.readouterr().out

    def test_malformed_config_exit_2_no_artifacts(self, tmp_path):
        raw = small_simulate_config()
        raw["window"]["shell"] = [1.5, 0.5]
        path = write_config(tmp_path, raw)
        out_dir = tmp_path / "nope"
        assert main(["run", path, "--output-dir", str(out_dir)]) == 2
        assert not out_dir.exists()

    def test_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, small_simulate_config())
        out_dir = tmp_path / "o1"
        assert main(["run", path, "--seed", "7", "--replicates", "150",
                     "--output-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["seed"] == 7
        assert summary["replicates"] == 150


class TestDeterminism:
    def test_same_config_byte_identical_summary(self, tmp_path):
        raw = small_simulate_config()
        cfg1 = parse_config(raw)
        cfg2 = parse_config(raw)
        s1 = json.dumps(run_experiment(cfg1).summary(), sort_keys=True)
        s2 = json.dumps(run_experiment(cfg2).summary(), sort_keys=True)
        assert s1 == s2

    def test_workers_do_not_change_results(self):
        raw = json.loads(bundled_config_text("isometry"))
        raw["replicates"] = 500
        raw["params"]["cells"] = [{"measure": "atoms", "integrand": "Hz"}]
        raw["workers"] = 1
        a = run_experiment(parse_config(raw)).summary()
        raw["workers"] = 8
        b = run_experiment(parse_config(raw)).summary()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_golden_summary_schema(self, tmp_path):
        # schema freeze: keys and verdict fields must stay stable
        raw = small_simulate_config()
        summary = run_experiment(parse_config(raw)).summary()
        assert sorted(summary) == ["experiment", "passed", "replicates",
                                   "seed", "verdicts"]
        for v in summary["verdicts"]:
            assert sorted(v) == ["estimate", "name", "pass", "se", "target", "z"]


class TestFailClosed:
    """A NaN residual on any path fails its verdict and the run."""

    @staticmethod
    def small_config(name, replicates, **params):
        raw = json.loads(bundled_config_text(name))
        raw["replicates"] = replicates
        raw["params"].update(params)
        return parse_config(raw)

    def test_nan_ito_residual_fails(self, monkeypatch):
        # ito_lhs runs once per block of paths: count paths, not calls
        real, done = ito.ito_lhs, []

        def lhs_nan_on_second_path(*args):
            lhs = np.array(real(*args), dtype=float)
            before = sum(done)
            done.append(len(lhs))
            if before <= 1 < before + len(lhs):
                lhs[1 - before] = math.nan
            return lhs

        monkeypatch.setattr(ito, "ito_lhs", lhs_nan_on_second_path)
        cfg = self.small_config(
            "ito-lemma", 10, paths=3, g_names=["G1"], k_names=["K1"],
            functions=[{"kind": "poly", "coeffs": [0.0, 0.0, 1.0]}])
        result = run_experiment(cfg)
        row, = result.verdicts
        assert row.name.startswith("max_residual[") and math.isnan(row.estimate)
        assert not row.passed and not result.passed

    def test_worst_of_no_value_fails(self):
        assert math.isnan(_worst([]))
        assert not _tol_row("max_residual[none]", _worst([]), 1.0).passed

    def test_nan_representation_residual_fails(self, monkeypatch):
        monkeypatch.setattr(apps, "representation_residual",
                            lambda h, batch, *args, **kwargs: np.full(len(batch), math.nan))
        cfg = self.small_config("martingale", 50, representation_paths=3)
        result = run_experiment(cfg)
        row = next(v for v in result.verdicts
                   if v.name == "representation_residual_max")
        assert math.isnan(row.estimate)
        assert not row.passed and not result.passed


class TestCharfnTolerance:
    """The characteristic-function verdicts use mc.K_SIGMA / sqrt(n)."""

    @staticmethod
    def verdicts(name, **params):
        raw = json.loads(bundled_config_text(name))
        raw["replicates"] = 200
        raw["params"].update(params)
        return run_experiment(parse_config(raw)).verdicts

    @pytest.mark.parametrize("name, prefix, params", [
        ("charfn", "charfn[", {}),
        ("martingale", "charfn_noise[", {"representation_paths": 2}),
    ])
    def test_tiny_k_sigma_fails_every_frequency(self, name, prefix, params, monkeypatch):
        monkeypatch.setattr(mc, "K_SIGMA", 1e-6)
        rows = [v for v in self.verdicts(name, **params)
                if v.name.startswith(prefix)]
        assert rows and not any(v.passed for v in rows)

    def test_default_tolerance_column(self):
        raw = json.loads(bundled_config_text("charfn"))
        raw["replicates"] = 200
        result = run_experiment(parse_config(raw))
        for line in result.tables["charfn.csv"].splitlines()[1:]:
            assert float(line.split(",")[-1]) == 4.0 / math.sqrt(200)


class TestOneKSigma:
    """Every Monte Carlo verdict reads mc.K_SIGMA when it is judged: with a
    NaN bound each of them fails, and each verdict on a fixed tolerance or
    test level keeps its outcome."""

    # (experiment, top-level overrides, params overrides), each at a small size
    RUNS = [("simulate", {"replicates": 20}, {}), ("isometry", {"replicates": 20}, {}),
            ("charfn", {"replicates": 20}, {}),
            ("martingale", {"replicates": 20}, {"representation_paths": 1}),
            ("chaos", {"replicates": 20}, {"product_check_paths": 1}),
            ("kunita", {}, {"cell_replicates": 2}),
            ("ito1", {}, {"paths": 2, "agreement_paths": 1}),
            ("interlace", {}, {"diag_replicates": 2, "spatial_replicates": 2})]
    FIXED = ("max_residual[", "form_agreement[", "ratio_guard(", "representation_residual_max",
             "modulus_identity_max_gap", "product_identity_max_gap", "spatial_uniform_ks_axis",
             "halves_independent_chi2", "threshold_closed_form_rel_err")

    @pytest.mark.parametrize("name, top, params", RUNS, ids=[r[0] for r in RUNS])
    def test_nan_k_sigma_fails_every_monte_carlo_verdict(self, name, top, params, monkeypatch):
        raw = json.loads(bundled_config_text(name))
        raw.update(top)
        raw["params"].update(params)
        want = run_experiment(parse_config(raw)).verdicts
        monkeypatch.setattr(mc, "K_SIGMA", math.nan)
        got = run_experiment(parse_config(raw)).verdicts
        assert [v.name for v in got] == [v.name for v in want]
        judged = [(v, w) for v, w in zip(got, want) if not v.name.startswith(self.FIXED)]
        assert judged and not any(v.passed for v, _ in judged)
        assert all(v.passed == w.passed for v, w in zip(got, want)
                   if v.name.startswith(self.FIXED))


class TestCsvTables:
    def test_comma_labels_read_back(self):
        raw = json.loads(bundled_config_text("ito-lemma"))
        raw["params"]["paths"] = 2
        tables = run_experiment(parse_config(raw)).tables
        label = "poly(0.0, 0.0, 1.0)|G1|K1"
        tables["label.csv"] = _csv(("cell", "value"), [(label, 0.5)])
        for name, text in tables.items():
            rows = list(csv.reader(io.StringIO(text)))
            assert all(len(row) == len(rows[0]) for row in rows), name
        cells = [row[0] for row in csv.reader(io.StringIO(tables["ito_lemma_residuals.csv"]))]
        assert any("," in cell for cell in cells)
        assert list(csv.reader(io.StringIO(tables["label.csv"]))) == \
            [["cell", "value"], [label, "0.5"]]


class TestPinnedOutputs:
    # (top-level overrides, params overrides): the sizes of CI's small runs
    SMALL = {"simulate": ({"replicates": 200}, {}), "isometry": ({"replicates": 200}, {}),
             "charfn": ({"replicates": 200}, {}), "martingale": ({"replicates": 200}, {}),
             "chaos": ({"replicates": 40}, {"product_check_paths": 5}),
             "kunita": ({}, {"cell_replicates": 20})}

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_small_run_bytes(self, name, tmp_path):
        # every file `levynoise run` writes, against its digest in run_digests.json
        top, params = self.SMALL[name]
        raw = json.loads(bundled_config_text(name))
        raw.update(top)
        raw["params"].update(params)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, raw), "--output-dir", str(out)]) == 0
        pinned = json.loads((Path(__file__).parent / "run_digests.json").read_text())[name]
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in out.iterdir()} == pinned
