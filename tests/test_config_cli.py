import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from waveline import checks, errors
from waveline.checks import CHECK_NAMES, FLOW_BENCH_SIGMA1
from waveline.cli import main
from waveline.config import MAX_N, RunConfig, Tolerances, load_config, parse_branch
from waveline.errors import ConfigError, FlowSingularity
from waveline.phase_flow import FlowInitialData, integrate_flow, sample_closed_form
from waveline.report import (
    RunReport,
    failed_check,
    floor_check,
    format_check_line,
    threshold_check,
    window_check,
)

from conftest import QUICK, child_env

ROOT = Path(__file__).resolve().parents[1]
COMMITTED_CONFIGS = sorted(ROOT.glob("configs/*.json")) + sorted(
    ROOT.glob("perfbench/workloads/*.json")
)


# The stationary duration at the default geometry
C_STAR = 0.9407443861113389

# the checks verify fails at every small sigma2_0 from 1e-5 to 1e-8
SMALL_CURVATURE = ("lambda_violation_detected", "phase_trajectory_independence")

# An endpoint geometry with every component of a nonzero
AWAY = {"a": [0.1, -0.2, 0.05, 0.3], "b": [2.1, 0.4, 0.35, 0.4]}
INFINITE_SIGMA1 = "stationary sigma1_0 over C="

# Zero, subnormal, at and near the pole at c* = C = 1, and past the float
# range; RK4 takes 5.0 past it on N = 4 and 5 steps, but not on twice as many
EDGE_CURVATURES = (
    0.0, 1e-320, -1e-320, -0.5, -0.49999999999998, -0.4999, 5.0, 1e12, 1e300, 1e308, -1e308,
)


def lone_rung_errors(sigma2s, n):
    """flow_errors.csv rows from one lone RK4 call per curvature and ladder rung.

    A curvature refused by its pole has no rows; one that leaves the float
    range stops at the first rung it leaves it on.
    """
    n_top = max(8, min(n, 1000))
    ladder = sorted({max(4, n_top // 4), max(4, n_top // 2), n_top})
    rows = []
    for s2 in sigma2s:
        init = FlowInitialData(np.array(FLOW_BENCH_SIGMA1), s2)
        for rung in ladder:
            try:
                (num,) = integrate_flow([init], 1.0, rung)
            except FlowSingularity:
                break
            if not (np.isfinite(num.sigma1).all() and np.isfinite(num.sigma2).all()):
                break
            exact = sample_closed_form(init, num.grid)
            err = max(
                float(np.abs(num.sigma1 - exact.sigma1).max()),
                float(np.abs(num.sigma2 - exact.sigma2).max()),
            )
            rows.append((s2, rung, err))
    return rows


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg.N == 10000
        assert cfg.sigma2_0 == 0.5
        assert cfg.tolerances.lambda_tol == 1e-6

    def test_file_and_override_merge(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"N": 500, "seed": 3, "m": 1.5}))
        cfg = load_config(path, {"seed": 12})
        assert cfg.N == 500
        assert cfg.seed == 12  # flag wins
        assert cfg.m == 1.5

    def test_tolerances_nest(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"tolerances": {"flow_tol": 1e-12}}))
        cfg = load_config(path)
        assert cfg.tolerances.flow_tol == 1e-12
        assert cfg.tolerances.phase_tol == 1e-6  # untouched default

    def test_sigma2_list_pins_scalar(self, tmp_path):
        cfg = load_config(None, {"sigma2_values": (0.25, 1.0)})
        assert cfg.sigma2_0 == 0.25
        assert cfg.sigma2_values == (0.25, 1.0)
        # so does a file's list, unless the file gives sigma2_0 itself
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"sigma2_values": [0.25, 1.0]}))
        assert load_config(path).sigma2_0 == 0.25
        path.write_text(json.dumps({"sigma2_values": [0.25, 1.0], "sigma2_0": 0.75}))
        assert load_config(path).sigma2_0 == 0.75

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"sigma_2": 0.5}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "path", COMMITTED_CONFIGS, ids=[p.relative_to(ROOT).as_posix() for p in COMMITTED_CONFIGS]
    )
    def test_committed_config_loads(self, path):
        assert isinstance(load_config(path), RunConfig)

    def test_default_config_file_is_the_defaults(self):
        default = ROOT / "configs" / "default.json"
        # the glob above found the default and the three benchmark workloads
        assert default in COMMITTED_CONFIGS and len(COMMITTED_CONFIGS) >= 4
        assert load_config(default).as_dict() == RunConfig().as_dict()

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "payload",
        [
            {"N": 1},
            {"m": 0.0},
            {"m": -1.0},
            {"branch": 2},
            {"C": -0.5},
            {"seed": -1},
            {"hbar_tilde": 0.0},
            {"operator_N": 2},
            {"n_perturbations": 0},
            {"amplitude": -0.1},
            {"tolerances": {"flow_tol": 0.0}},
            {"a": [0.0, 0.0]},
            {"sigma1_0": [1.0, 2.0, 3.0]},
            {"N": 2.5},
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, payload):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("field", ["N", "operator_N"])
    def test_lattice_sizes_are_capped(self, field):
        # the cap bounds the lattice arrays' memory, far above N = 20 000
        assert getattr(load_config(overrides={field: MAX_N}), field) == MAX_N
        with pytest.raises(ConfigError, match=f"^{field} must be <= {MAX_N}, got {MAX_N + 1}$"):
            load_config(overrides={field: MAX_N + 1})

    @pytest.mark.parametrize(
        "payload",
        [
            {"m": float("inf")},
            {"amplitude": float("inf")},
            {"sigma2_0": float("nan")},
            {"C": float("nan")},
            {"hbar_tilde": float("inf")},
            {"sigma2_values": [0.5, float("nan")]},
            {"b": [2.0, 0.6, float("inf"), 0.1]},
            {"sigma1_0": [float("nan"), 0.0, 0.0, 0.0]},
            {"tolerances": {"phase_tol": float("inf")}},
            {"tolerances": {"flow_tol": float("nan")}},
        ],
    )
    def test_non_finite_values_rejected(self, tmp_path, payload):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))  # writes NaN / Infinity literals
        with pytest.raises(ConfigError, match="not a finite number"):
            load_config(path)

    @given(
        st.dictionaries(
            st.sampled_from(list(RunConfig.FIELDS)),
            st.recursive(
                st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                lambda inner: st.lists(inner, max_size=5)
                | st.dictionaries(
                    st.sampled_from([*Tolerances.FIELDS, "x"]),
                    inner,
                    max_size=3,
                ),
                max_leaves=8,
            ),
            max_size=5,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_any_json_object_validates_or_raises_config_error(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(payload))
            try:
                cfg = load_config(path)
            except ConfigError:
                return
        assert all(np.isfinite(v) for v in (cfg.m, cfg.hbar_tilde, cfg.sigma2_0, cfg.amplitude))

    def test_parse_branch(self):
        assert parse_branch("+") == 1
        assert parse_branch("-") == -1
        assert parse_branch("-1") == -1
        assert parse_branch(1) == 1
        for bad in ("x", 0, 2, True):
            with pytest.raises(ConfigError):
                parse_branch(bad)

    @pytest.mark.parametrize(
        "value, sign",
        [(1, 1), (-1, -1), ("+", 1), ("-", -1), ("+1", 1), ("-1", -1), ("1", 1), (" -1 ", -1)],
    )
    def test_parse_branch_accepts_the_signs(self, value, sign):
        assert parse_branch(value) == sign

    @pytest.mark.parametrize("value", [True, False, 0, 2, 1.0, -1.0, "x", "", "True", None, [1]])
    def test_parse_branch_refuses_the_rest_by_name(self, value):
        with pytest.raises(ConfigError) as info:
            parse_branch(value)
        assert str(info.value) == f"branch must be +1 or -1, got {value!r}"

    def test_run_duration_resolution(self):
        cfg = load_config()
        assert cfg.run_duration() == pytest.approx(np.sqrt(3.54) / 2.0)
        cfg2 = load_config(None, {"C": 0.75})
        assert cfg2.run_duration() == 0.75

    def test_run_sigma1_resolution(self):
        cfg = load_config(None, {"sigma1_0": (1.0, 0.0, 0.0, 0.0)})
        np.testing.assert_array_equal(cfg.run_sigma1_0(), [1.0, 0.0, 0.0, 0.0])
        # default resolves to the stationary value for sigma2_0 at run duration
        cfg = load_config()
        from waveline.stationarity import optimal_sigma1

        np.testing.assert_allclose(
            cfg.run_sigma1_0(),
            optimal_sigma1(cfg.sigma2_0, cfg.a, cfg.b, cfg.run_duration()),
        )

    def test_as_dict_is_json_serializable(self):
        text = json.dumps(load_config().as_dict())
        assert "tolerances" in text


class TestReport:
    def test_threshold_and_window(self):
        assert threshold_check("x", 0.5, 1.0).passed
        assert not threshold_check("x", 2.0, 1.0).passed
        assert window_check("x", 16.0, 8.0, 32.0).passed
        assert not window_check("x", 40.0, 8.0, 32.0).passed

    def test_failed_check_records_exception(self):
        chk = failed_check("x", ValueError("boom"))
        assert not chk.passed
        assert "ValueError" in chk.detail

    def test_format_line(self):
        line = format_check_line(threshold_check("alpha", 0.5, 1.0, detail="d"))
        assert line == "[PASS] alpha  value=0.5  tol=1  margin=0.5  (d)"

    @pytest.mark.parametrize(
        "check, margin",
        [
            # at-most checks: value / tolerance
            (threshold_check("x", 2e-9, 1e-8), "0.2"),
            (threshold_check("x", 3e-8, 1e-8), "3"),
            (threshold_check("x", 0.0, 1e-8), "0"),
            # floor checks: floor / value
            (floor_check("x", 2.5, 2.0), "0.8"),
            (floor_check("x", 1.6, 2.0), "1.25"),
            (floor_check("x", 0.0, 2.0), "inf"),
            (floor_check("x", -1.0, 2.0), "inf"),
            # windows: the larger of lo / value and value / hi
            (window_check("x", 16.0, 8.0, 32.0), "0.5"),
            (window_check("x", 4.0, 8.0, 32.0), "2"),
            (window_check("x", 64.0, 8.0, 32.0), "2"),
        ],
    )
    def test_margin_is_one_or_less_inside_the_bound(self, check, margin):
        assert f"margin={margin}" in format_check_line(check).split("  ")
        assert (check.margin <= 1.0) == check.passed

    def test_failed_and_nan_checks_print_no_margin(self):
        for check in (failed_check("x", ValueError("boom")),
                      threshold_check("x", float("nan"), 1.0)):
            assert "margin" not in format_check_line(check)

    def test_margin_is_not_serialized(self):
        check = threshold_check("x", 0.5, 1.0)
        assert "margin" not in json.dumps(check.as_dict())

    def test_violation_control_margin_is_its_floor_over_the_spread(self):
        suite = checks.lambda_suite(load_config(overrides=QUICK), with_control=True)
        (control,) = [c for c in suite.checks if c.name == "lambda_violation_detected"]
        assert control.passed
        assert control.margin == control.tolerance / control.value
        assert control.margin < 1.0

    def test_violation_control_margin_reads_its_order_test(self, tmp_path, capsys):
        # at this curvature the frozen spread clears its floor but the order
        # (1.27) fails the check: the margin is then order / 1, above 1
        out = tmp_path / "out"
        assert main(["verify", "--sigma2=0.001", "--N", "2000", "--out", str(out)]) == 1
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if " lambda_violation_detected " in ln]
        assert line.startswith("[FAIL] ")
        margin = float(line.split("  margin=")[1].split()[0])
        assert margin > 1.0

    def test_violation_control_passes_at_the_default_config(self):
        suite = checks.lambda_suite(load_config(), with_control=True)
        (control,) = [c for c in suite.checks if c.name == "lambda_violation_detected"]
        assert control.passed
        assert control.margin <= 1.0

    def test_report_overall_and_json_shape(self):
        report = RunReport(
            command="flow",
            config={"N": 10},
            checks=(threshold_check("a", 0.1, 1.0), threshold_check("b", 2.0, 1.0)),
        )
        assert report.overall == "fail"
        # no wall clock, so the file is reproducible
        assert set(report.as_json_dict()) == {"command", "overall", "checks", "config"}


def write_quick_config(tmp_path, **extra):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps({**QUICK, **extra}))
    return str(path)


class TestCli:
    def test_flow_passes_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(["flow", "--out", str(out), "--N", "1000"])
        assert code == 0
        report = json.loads((out / "run_report.json").read_text())
        assert report["overall"] == "pass"
        assert (out / "flow.csv").exists()
        assert (out / "flow_errors.csv").exists()

    def test_stationary_passes(self, tmp_path):
        out = tmp_path / "out"
        code = main(["stationary", "--out", str(out)])
        assert code == 0
        assert (out / "stationarity_report.json").exists()
        assert (out / "sigma2_scan.csv").exists()
        assert (out / "sweep_lambda_vs_C.csv").exists()

    def test_stationary_negative_branch(self, tmp_path):
        out = tmp_path / "out"
        assert main(["stationary", "--out", str(out), "--branch", "-"]) == 0
        report = json.loads((out / "stationarity_report.json").read_text())
        assert report["C_star"] < 0
        assert report["lambda_star"] < 0

    def test_lambda_sweep_past_a_quarter_of_the_float_range(self, tmp_path, capsys):
        # at m = 5e-308 the sweep runs out to 2.5 C* ~ 4.7e307, where 4 C
        # overflows; lambda(C) quarters the interval instead, so nothing warns
        # and every row keeps its branch's sign, none reading 0
        cfgp = write_quick_config(tmp_path, m=5e-308)
        out = tmp_path / "out"
        assert main(["stationary", "--config", cfgp, "--out", str(out)]) in (0, 1)
        assert capsys.readouterr().err == ""
        rows = np.loadtxt(out / "sweep_lambda_vs_C.csv", delimiter=",", skiprows=1)
        assert (rows[:, 0] * rows[:, 2] > 0).all()

    def test_lambda_quick_config_passes(self, tmp_path):
        cfgp = write_quick_config(tmp_path)
        out = tmp_path / "out"
        assert main(["lambda", "--config", cfgp, "--out", str(out)]) == 0
        breakdown = json.loads((out / "lambda_breakdown.json").read_text())
        for key in ("boundary", "quadrature", "mass", "total", "closed_form", "lattice"):
            assert key in breakdown
        assert breakdown["total"] == pytest.approx(breakdown["closed_form"], abs=1e-6)

    def test_tightened_tolerance_fails_controlledly(self, tmp_path):
        cfgp = write_quick_config(
            tmp_path, tolerances={"flow_tol": 1e-16}
        )
        out = tmp_path / "out"
        assert main(["flow", "--config", cfgp, "--out", str(out)]) == 1

    def test_singular_curvature_is_check_failure_not_crash(self, tmp_path):
        # D(C) < 0 for the resolved duration: every suite that needs the
        # curvature must report a failed check, exit 1
        out = tmp_path / "out"
        cfgp = write_quick_config(tmp_path)
        code = main(["lambda", "--config", cfgp, "--out", str(out), "--sigma2", "-0.7"])
        assert code == 1

    def test_null_endpoints_fail_stationary(self, tmp_path):
        cfgp = write_quick_config(tmp_path, b=[1.0, 1.0, 0.0, 0.0])
        out = tmp_path / "out"
        assert main(["stationary", "--config", cfgp, "--out", str(out)]) == 1
        report = json.loads((out / "run_report.json").read_text())
        assert any("NullSeparation" in c.get("detail", "") for c in report["checks"])

    def test_singular_curvature_fails_only_its_own_flow_checks(self, tmp_path):
        # -0.5 puts the pole at c* = C = 1; it also pins sigma2_0 for the trace
        out = tmp_path / "mixed"
        assert main(["flow", "--sigma2=-0.5,0.5", "--N", "200", "--out", str(out)]) == 1
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        failed = {c["name"] for c in checks if c["status"] == "fail"}
        assert failed == {"flow_accuracy[sigma2_0=-0.5]", "flow_trace[sigma2_0=-0.5]"}

        solo = tmp_path / "solo"
        assert main(["flow", "--sigma2=0.5", "--N", "200", "--out", str(solo)]) == 0
        solo_checks = json.loads((solo / "run_report.json").read_text())["checks"]

        def value(rows):
            name = "flow_accuracy[sigma2_0=0.5]"
            return next(c["value"] for c in rows if c["name"] == name)

        assert value(checks) == value(solo_checks)

    def test_pole_message_prints_a_plain_float(self, tmp_path):
        out = tmp_path / "out"
        argv = ["flow", "--sigma2=-0.49999999999998,0.5", "--N", "200", "--out", str(out)]
        assert main(argv) == 1
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        detail = next(c["detail"] for c in checks if c["name"] == "flow_accuracy[sigma2_0=-0.5]")
        assert detail == (
            "FlowSingularity: flow is singular at c=1.0 "
            "(D=3.9968028886505635e-14, pole at c*=1.00000000000004)"
        )

    @given(
        st.lists(st.sampled_from(EDGE_CURVATURES), min_size=1, max_size=4),
        st.integers(2, 60),
    )
    @example([5.0, 0.5], 20)  # 5.0 leaves the float range on the coarse rung only
    @settings(max_examples=60, deadline=None)
    def test_flow_on_edge_curvatures_exits_cleanly_with_lone_rung_errors(self, sigma2s, n):
        # pytest turns any RuntimeWarning into an error, so this also holds
        # that no edge curvature warns
        argv = ["flow", "--sigma2=" + ",".join(map(repr, sigma2s)), "--N", str(n)]
        with tempfile.TemporaryDirectory() as tmp:
            assert main(argv + ["--out", tmp]) in (0, 1)
            rows = (Path(tmp) / "flow_errors.csv").read_text().splitlines()[1:]
        assert rows == [f"{s2!r},{rung},{err!r}" for s2, rung, err in lone_rung_errors(sigma2s, n)]

    @given(
        st.sampled_from(["lambda", "stationary", "phase", "verify"]),
        st.lists(st.sampled_from(EDGE_CURVATURES), min_size=1, max_size=3),
        st.integers(1, 40),
        st.sampled_from([1, -1, "+", "-", 0, 2, True, "x"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_commands_on_edge_curvatures_exit_cleanly(self, command, sigma2s, n, branch):
        # load_config refuses N = 1 and a branch that is not a sign (exit 2);
        # every other draw runs its suite to a written report.  Any warning,
        # not only a RuntimeWarning, is an error here.
        refused = n < 2 or isinstance(branch, bool) or branch not in (1, -1, "+", "-")
        config = {"n_perturbations": 2, "n_phase_perturbations": 2, "n_lambda_sets": 2,
                  "operator_N": 4, "branch": branch}
        argv = [command, "--sigma2=" + ",".join(map(repr, sigma2s)), "--N", str(n)]
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(config))
            code = main(argv + ["--config", str(path), "--out", tmp])
            wrote = (Path(tmp) / "run_report.json").exists()
        assert code in ((2,) if refused else (0, 1))
        assert wrote != refused

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["verify", "--config", str(path)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nope": 1}))
        assert main(["flow", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"m": 0.0}, "m must be positive, got 0.0"),
            ({"m": -1.0}, "m must be positive, got -1.0"),
            ({"hbar_tilde": 0.0}, "hbar_tilde must be positive, got 0.0"),
            ({"hbar_tilde": -1.0}, "hbar_tilde must be positive, got -1.0"),
            ({"branch": 0}, "branch must be +1 or -1, got 0"),
            ({"branch": 3}, "branch must be +1 or -1, got 3"),
        ],
    )
    def test_input_the_kernels_trust_exits_2_by_name(self, tmp_path, payload, message, capsys):
        # optimal_C, classical_action, the search and WaveParameters no longer
        # test m, hbar_tilde or branch: every command refuses them here first
        cfgp = write_quick_config(tmp_path, **payload)
        for command in checks.SUITES:
            out = tmp_path / command
            assert main([command, "--config", cfgp, "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == f"config error: {message}\n", command
            assert not out.exists(), command

    def test_removed_negative_control_key_exits_2(self, tmp_path, capsys):
        # the frozen-coefficient control runs in verify as lambda_violation_detected
        cfgp = write_quick_config(tmp_path, negative_control=True)
        assert main(["lambda", "--config", cfgp, "--out", str(tmp_path / "o")]) == 2
        assert "unknown config keys: ['negative_control']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"m": "abc"},
            {"tolerances": {"lambda_tol": "x"}},
            {"a": ["x", 0, 0, 0]},
            {"a": "1234"},
            {"b": "5000"},
            {"sigma2_values": "05"},
            {"sigma1_0": {"0": 1, "1": 0, "2": 0, "3": 0}},
            {"m": True},
            {"C": False},
            {"m": "1.5"},
            {"tolerances": {"phase_tol": True}},
            b'\xff\xfe{"N": 200}',  # not UTF-8: raw bytes, written as they are
            {"sigma2_values": []},
            # past Python's 4300-digit integer limit, and the decoder's recursion limit
            pytest.param(b'{"N": 1' + b"0" * 5000 + b"}", id="5001-digit-integer"),
            pytest.param(b"[" * 200_000, id="200000-nested-arrays"),
        ],
    )
    def test_mistyped_value_exits_2(self, tmp_path, payload, capsys):
        path = tmp_path / "bad.json"
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
            path.write_text(json.dumps(payload))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_zero_amplitude_fails_independence_as_not_measured(self, tmp_path):
        # Zero-amplitude perturbations move nothing; the spread is exactly 0
        # and the order check must fail instead of reporting an infinite order.
        cfgp = write_quick_config(tmp_path, amplitude=0)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfgp, "--out", str(out)]) == 1
        report = json.loads((out / "run_report.json").read_text())
        check = next(
            c for c in report["checks"]
            if c["name"] == "lambda_worldline_independence_order"
        )
        assert check["status"] == "fail"
        assert check["detail"].startswith("NotMeasured")

    @pytest.mark.filterwarnings("error")
    def test_one_rung_ladder_is_not_measured(self, tmp_path):
        # N = 8 puts every rung of the independence ladder on one lattice:
        # no order can be fitted, and nothing may reach np.polyfit
        cfgp = write_quick_config(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfgp, "--N", "8", "--out", str(out)]) == 1
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        details = {c["name"]: c.get("detail") for c in checks if c["status"] == "fail"}
        one_size = "NotMeasured: lattice ladder [8] has one size; an order needs two"
        assert details["lambda_worldline_independence_order"] == one_size
        assert details["lambda_violation_detected"] == (
            f"NotMeasured: the flowing ladder measured nothing ({one_size})"
        )

    @pytest.mark.parametrize("extra", [{"amplitude": 0}, {"n_phase_perturbations": 1}])
    def test_phase_spread_of_equal_differences_is_not_measured(self, tmp_path, extra):
        # every difference is the anchor (or there is only one): the std is
        # the mean's roundoff, not evidence of trajectory independence
        cfgp = write_quick_config(tmp_path, **extra)
        out = tmp_path / "out"
        assert main(["phase", "--config", cfgp, "--out", str(out)]) == 1
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        status = {c["name"]: c["status"] for c in checks}
        assert status == {
            "phase_two_clock_consistency": "pass",
            "phase_trajectory_independence": "fail",
            "phase_center_identity": "pass",
        }
        check = next(c for c in checks if c["name"] == "phase_trajectory_independence")
        assert check["detail"].startswith("NotMeasured: phase_q - phase_c has zero spread")

    @pytest.mark.parametrize(
        "sigma2, rows",
        [
            ("0", "1 curvature(s) integrated exactly, 0"),
            ("1e300", "0 curvature(s) integrated exactly, 1"),
        ],
    )
    def test_contraction_without_a_top_rung_error_is_not_measured(
        self, tmp_path, capsys, sigma2, rows
    ):
        # RK4 is exact on a flat flow, and a row past the float range has no
        # error at all: a zero worst error leaves no ratio to hold in the window
        assert main(["flow", f"--sigma2={sigma2}", "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert (
            "[FAIL] flow_step_halving_contraction  value=nan  (NotMeasured: worst RK4 error on "
            f"N=1000 is 0: {rows} screened by the pole or the float range)"
        ) in lines

    @pytest.mark.parametrize(
        "sigma2, worst, floor",
        [("0.001", "7.771561172376096e-16", "3.552713678800501e-15 (16 eps times the largest "
          "exact sample 1.0)"),
         ("0.2", "2.4424906541753444e-15", "3.552713678800501e-15 (16 eps times the largest "
          "exact sample 1.0)"),
         ("1e-5", "2.220446049250313e-16", "3.552713678800501e-15 (16 eps times the largest "
          "exact sample 1.0)"),
         ("-0.03", "1.5543122344752192e-15", "3.7794826370218094e-15 (16 eps times the largest "
          "exact sample 1.0638297872340425)")],
    )
    def test_contraction_at_roundoff_is_not_measured(self, tmp_path, capsys, sigma2, worst, floor):
        # the error one rung under the top is rounding, so any ratio in the
        # window leaves the top rung's at rounding too: the ratio (0.7, 1.47,
        # 0.5 and 0.35 here) would measure noise
        assert main(["flow", f"--sigma2={sigma2}", "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert (
            "[FAIL] flow_step_halving_contraction  value=nan  (NotMeasured: worst RK4 error on "
            f"N=500 is {worst}, under the roundoff floor {floor})"
        ) in lines

    @pytest.mark.parametrize(
        "sigma2, ratio",
        [("-0.2", "8.19355"), ("0.5", "14.2391"), ("0.4", "9.88889"), ("0.295", "10.5714")],
    )
    def test_contraction_just_over_roundoff_is_measured(self, tmp_path, capsys, sigma2, ratio):
        # top-rung errors of 3.5 to 23 eps of the largest exact sample: the
        # floor sits on the rung under the top, whose errors here are 37 eps
        # (0.295) and up, so these ratios are read against the window
        assert main(["flow", f"--sigma2={sigma2}", "--out", str(tmp_path / "out")]) == 0
        assert f"[PASS] flow_step_halving_contraction  value={ratio}" in capsys.readouterr().out

    def test_stationary_point_past_the_pole_is_named(self, tmp_path):
        # C* = 0.9407... lies past the pole c* = 1/1.4 of sigma2_0 = -0.7
        out = tmp_path / "out"
        assert main(["stationary", "--sigma2=-0.7", "--out", str(out)]) == 1
        (check,) = json.loads((out / "run_report.json").read_text())["checks"]
        assert check["name"] == "stationary_search"
        assert check["detail"].startswith(
            "FlowSingularity: flow is singular at c=0.9407443861113389 (D=-0.317"
        )

    def test_trace_pole_names_the_fixed_duration(self, tmp_path):
        # D(C) = 0.05 at the run's C = 0.9407: the run never meets the pole
        # at c* = 0.990, but the trace integrates sigma2_0 over
        # FLOW_BENCH_C = 1.0 and does
        out = tmp_path / "out"
        assert main(["verify", "--sigma2=-0.50493", "--out", str(out)]) == 1
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        detail = next(c["detail"] for c in checks if c["name"] == "flow_trace[sigma2_0=-0.50493]")
        assert detail == (
            "FlowSingularity: flow is singular at c=0.991 (D=-0.0007712600000000513, "
            "pole at c*=0.9902362703741113) over the flow trace's fixed duration C=1.0"
        )
        assert not (out / "flow.csv").exists()

    def test_sigma2_flag_overrides_the_files_sigma2_0(self, tmp_path):
        # the flag's first curvature replaces the file's sigma2_0 = 0.5, so
        # the file of defaults changes nothing
        flagged, filed = tmp_path / "flag", tmp_path / "file"
        assert main(["verify", "--sigma2=-0.50493", "--out", str(flagged)]) == 1
        default = str(ROOT / "configs" / "default.json")
        assert main(["verify", "--config", default, "--sigma2=-0.50493", "--out", str(filed)]) == 1
        names = sorted(p.name for p in flagged.iterdir())
        assert names == sorted(p.name for p in filed.iterdir())
        for name in names:
            assert (filed / name).read_bytes() == (flagged / name).read_bytes(), name

    @pytest.mark.parametrize(
        "d_star, failures",
        [
            (0.5, ()),
            (0.2, ()),
            (0.1, ("flow_accuracy", "lambda_worldline_independence_order")),
            (0.05, ("flow_accuracy", "flow_step_halving_contraction", "flow_trace",
                    "lambda_worldline_independence_order")),
            (0.02, ("flow_accuracy", "flow_step_halving_contraction", "flow_trace",
                    "lambda_worldline_independence_order", "phase_two_clock_consistency")),
            (0.01, ("flow_accuracy", "flow_step_halving_contraction", "flow_trace",
                    "lambda_worldline_independence_order", "stationary_duration",
                    "phase_two_clock_consistency")),
        ],
    )
    def test_near_pole_failures(self, tmp_path, d_star, failures):
        # verify at D(C*) = 1 + 2 sigma2_0 C* falling toward the pole, at the
        # default geometry.  Each failure is correct code missing a fixed
        # bound (CHANGES.md names the causes): flow_accuracy's absolute
        # flow_tol against RK4 error growing like the flow on FLOW_BENCH_C =
        # 1.0, where D(1) < D(C*), and from 0.05 on the pole itself inside
        # that fixed duration, which screens the one curvature (no
        # contraction to measure) and the trace; the independence order's
        # floor of 2.0, its exact order; the two-clock gap's O(dc**2) lattice
        # error against phase_tol; the Newton search's stop at a gradient
        # norm of stationarity_tol against the duration's own bound.
        sigma2 = (d_star - 1.0) / (2.0 * C_STAR)
        out = tmp_path / "out"
        code = main(["verify", f"--sigma2={sigma2!r}", "--out", str(out)])
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        failed = tuple(c["name"].split("[")[0] for c in checks if c["status"] == "fail")
        assert sorted(failed) == sorted(failures)
        assert code == (1 if failures else 0)

    def test_near_pole_search_stalls_above_its_tolerance(self, tmp_path):
        # D(C*) = 0.0028: the finite-difference gradient of a closed form
        # with 1/D terms stalls above stationarity_tol 1e-8, and the Newton
        # search spends every one of its 60 iterations
        out = tmp_path / "out"
        assert main(["stationary", "--sigma2=-0.53", "--out", str(out)]) == 1
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        assert [(c["name"], c.get("detail")) for c in checks] == [
            ("stationary_search", "NoConvergence: gradient norm 8.114e-08 after 60 iterations")
        ]

    def test_near_pole_flow_and_order_miss_their_bounds(self, tmp_path):
        # D(1) = 0.02 on the fixed FLOW_BENCH_C = 1.0: the exact flow grows
        # 50-fold and the 1000-step RK4 error with it, against the absolute
        # flow_tol 1e-10; the independence order sits just under its floor 2.0
        out = tmp_path / "out"
        assert main(["verify", "--sigma2=-0.49", "--out", str(out)]) == 1
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        failed = {c["name"]: c["value"] for c in checks if c["status"] == "fail"}
        assert failed == {
            "flow_accuracy[sigma2_0=-0.49]": pytest.approx(3.9886e-6, rel=1e-4),
            "lambda_worldline_independence_order": pytest.approx(1.9697, rel=1e-4),
        }

    @pytest.mark.parametrize(
        "sigma2, failures",
        [
            *[(s, ()) for s in (1e-3, -1e-3, 1e-4, -1e-4)],
            *[(s, (*SMALL_CURVATURE, "phase_center_identity")) for s in (1e-5, -1e-5, 1e-6)],
            *[(s, SMALL_CURVATURE) for s in (1e-7, -1e-7, 1e-8)],
            *[(s, ()) for s in (1e-9, 1e-10, 0.0)],
        ],
    )
    def test_small_curvature_failures(self, tmp_path, sigma2, failures):
        # verify at a default config but for sigma2_0 falling toward zero.
        # Each failure is correct code missing a fixed bound (CHANGES.md
        # names the causes): the frozen control's spread, of order sigma2_0,
        # falls under its 1e-5 floor; phase_q - phase_c has no spread over
        # the trajectories to measure; x_tilde grows like 1/sigma2_0 against
        # phase_center_identity's absolute 1e-12 bound.  From |sigma2_0| =
        # 1e-9 down, those checks run on sigma2_0 = 0.5 instead.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"sigma2_0": sigma2}))
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        failed = {c["name"]: c.get("detail", "") for c in checks if c["status"] == "fail"}
        assert sorted(failed) == sorted(failures)
        if failures:
            assert failed["phase_trajectory_independence"].startswith("NotMeasured: ")
        assert code == (1 if failures else 0)

    @pytest.mark.parametrize(
        "sigma2, value",
        [("1e-3", 0.0), ("-1e-3", 0.0), ("1e-4", 0.0), ("1e-5", 3.637978807091713e-12)],
    )
    def test_small_curvature_center_identity(self, tmp_path, sigma2, value):
        # Q = log1p(2 sigma2_0 C) keeps x_tilde ~ 1/sigma2_0 to its last
        # digits; the log of the rounded D read 2.2e-11 at +-1e-3 and 4.8e-9
        # at 1e-4.  At 1e-5 x_tilde grows like 1/sigma2_0: it reads 3.6e-12,
        # one ulp of its 3.2e4 component, over the absolute 1e-12 bound.
        out = tmp_path / "out"
        main(["verify", f"--sigma2={sigma2}", "--out", str(out)])
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        (check,) = [c for c in checks if c["name"] == "phase_center_identity"]
        assert check["value"] == value
        assert check["status"] == ("pass" if value <= 1e-12 else "fail")

    def test_flat_curvature_substitution_is_named(self, tmp_path):
        cfgp = write_quick_config(tmp_path, sigma2_0=0.0, N=200)
        out = tmp_path / "out"
        main(["verify", "--config", cfgp, "--out", str(out)])
        details = {
            c["name"]: c.get("detail", "")
            for c in json.loads((out / "run_report.json").read_text())["checks"]
        }
        noted = {name for name, d in details.items() if "sigma2_0=0 replaced by 0.5" in d}
        assert noted == {
            "lambda_worldline_independence_order",
            "lambda_violation_detected",
            "phase_two_clock_consistency",
            "phase_trajectory_independence",
            "phase_center_identity",
        }
        assert details["phase_two_clock_consistency"] == "sigma2_0=0 replaced by 0.5"
        phase = json.loads((out / "phase_report.json").read_text())
        assert phase["sigma2_0"] == 0.5

    @pytest.mark.parametrize(
        "flag, named", [("1e-10", "1e-10"), ("-1e-10", "-1e-10"), ("-0", "0")]
    )
    def test_curvature_substitution_names_the_configured_value(self, tmp_path, flag, named):
        # every |sigma2_0| up to 1e-9 runs on 0.5, and the note says which
        # value it replaced; a zero of either sign reads 0
        out = tmp_path / "out"
        assert main(["phase", f"--sigma2={flag}", "--out", str(out)]) == 0
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        assert checks[0]["detail"] == f"sigma2_0={named} replaced by 0.5"

    def test_bad_sigma2_flag_exits_2(self):
        assert main(["flow", "--sigma2", "zero"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--sigma2=nan"],
            ["flow", "--sigma2=inf"],
            ["phase", "--sigma2=nan"],
            ["stationary", "--sigma2=nan"],
            ["lambda", "--sigma2=0.5,-inf"],
        ],
    )
    def test_non_finite_sigma2_flag_exits_2(self, tmp_path, argv, capsys):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "not a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_huge_duration_fails_the_phase_check_without_a_traceback(self, tmp_path):
        # C = 1e200 overflows the spline's h**2, and C = 1e-300 (1e-320, a
        # subnormal) the lattice velocities and 1/dc**2; m = 1e-320 puts the
        # stationary duration itself past the float range, and m = 1e200 the
        # search's mass term.  sigma2_0 = 1e12 (a trace row) and 1e300 (every
        # row, as --sigma2=1e300 sets it) carry RK4 past the float range, and
        # 1e300 the lattice expansion too; amplitude = 1e200 squares the
        # perturbed events past it, and 1e308 the amplitude itself.  m = 8.9e307
        # and 1e308 put the curvature scan's 1/C* past the float range, C*
        # staying nonzero where 2 m is a silent inf.  A far b carries x.x in
        # the operator probe's modulus exponent past it.  Every suite must
        # report that as a named failed check, write the report and print no
        # warning.  The frozen control passes only where the flowing ladder
        # measured something: at C = 1e200 its spreads are roundoff of a
        # 1e200-sized eigenvalue while the flowing ones are exactly zero.
        unmeasured = "NotMeasured: the flowing ladder measured nothing"
        no_duration = "NumericalOverflow: stationary duration for m=1e-320"
        rk4 = "NumericalOverflow: RK4 flow for sigma2_0="
        far = "NumericalOverflow: expansion deltas leave the float range"
        huge_m = "NumericalOverflow: stationary search for m="
        huge_amp = "NumericalOverflow: perturbation amplitude 1e+308"
        expected = {
            ("C", 1e200): {
                "lambda_worldline_independence_order": "NotMeasured: perturbation spreads",
                "lambda_violation_detected": f"{unmeasured} (NotMeasured: perturbation spreads",
                "phase_consistency": "BadGrid: cannot spline the world line",
                # the modulus probe would overflow exp(); a failure, not a NaN
                "operator_oracle": "NumericalOverflow",
            },
            ("C", 1e-300): {
                "lambda_worldline_independence_order": "NumericalOverflow",
                "lambda_violation_detected": f"{unmeasured} (NumericalOverflow",
                "lambda_breakdown": "NumericalOverflow",
                "operator_oracle": "NumericalOverflow",
                "phase_consistency": "DegenerateQ",
            },
            ("C", 1e-320): {
                "lambda_worldline_independence_order": "NumericalOverflow: stationary sigma1_0",
                "lambda_violation_detected": f"{unmeasured} (NumericalOverflow",
                "operator_oracle": "NumericalOverflow",
                "phase_consistency": "NumericalOverflow",
            },
            ("m", 1e-320): {
                "lambda_worldline_independence_order": no_duration,
                "lambda_violation_detected": f"{unmeasured} ({no_duration}",
                "lambda_breakdown": no_duration,
                "stationary_search": no_duration,
                "operator_oracle": no_duration,
                "phase_consistency": no_duration,
            },
            ("m", 1e200): {
                "stationary_search": "NumericalOverflow: stationary search for m=1e+200",
            },
            ("sigma2_0", 1e12): {
                "flow_trace[sigma2_0=1e+12]": f"{rk4}1000000000000.0 leaves the float range",
            },
            ("sigma2_values", (1e300,)): {
                "flow_accuracy[sigma2_0=1e+300]": f"{rk4}1e+300 leaves the float range",
                "flow_trace[sigma2_0=1e+300]": f"{rk4}1e+300 leaves the float range",
                "lambda_worldline_independence_order":
                    "NumericalOverflow: lattice expansion at sigma2_0=1e+300",
                "lambda_violation_detected": f"{unmeasured} (NumericalOverflow",
            },
            ("amplitude", 1e200): {
                "lambda_worldline_independence_order": far,
                "lambda_violation_detected": f"{unmeasured} ({far}",
                "phase_consistency": "NumericalOverflow: phase difference over C=",
            },
            ("m", 1e308): {
                "lambda_breakdown": "NumericalOverflow: boundary form over C=9.407443861113387e-309",
                "stationary_search": f"{huge_m}1e+308: overflow encountered in scalar divide",
                "phase_consistency": "DegenerateQ",
            },
            ("m", 8.9e307): {
                "stationary_search": f"{huge_m}8.9e+307: overflow encountered in scalar divide",
            },
            ("amplitude", 1e308): {
                "lambda_worldline_independence_order": huge_amp,
                "lambda_violation_detected": f"{unmeasured} ({huge_amp}",
                "phase_consistency": huge_amp,
            },
        }
        cases = [({key: value}, failures) for (key, value), failures in expected.items()]
        cases += [
            ({"b": [1e200, 0.6, 0.3, 0.1], "C": 3.0},
             {"operator_oracle": "NumericalOverflow: operator probe at dc=0.3"}),
            ({"m": 1e-12, "hbar_tilde": 1e-12, "b": [1e100, 0.6, 0.3, 0.1]},
             {"operator_oracle": "NumericalOverflow: operator probe at dc=5e+110"}),
        ]
        for k, (case, failures) in enumerate(cases):
            cfgp = write_quick_config(tmp_path, **case, N=200)
            out = tmp_path / f"out-{k}"
            proc = subprocess.run(
                [sys.executable, "-m", "waveline.cli", "verify", "--config", cfgp,
                 "--out", str(out)],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert proc.returncode == 1, case
            assert proc.stderr == "", case
            checks = json.loads((out / "run_report.json").read_text())["checks"]
            for c in checks:
                if c["value"] != c["value"]:  # NaN: the check raised instead of measuring
                    kind = c["detail"].split(":")[0]
                    assert issubclass(getattr(errors, kind), errors.WavelineError), (case, c)
            details = {c["name"]: c.get("detail", "") for c in checks if c["status"] == "fail"}
            for name, error in failures.items():
                assert details[name].startswith(error), (case, name, details[name])

    @pytest.mark.parametrize(
        "command, failures",
        [
            ("verify --sigma2=0,1e12,-0.5 --N 27",
             ("lambda_worldline_independence_order", "lambda_breakdown",
              "stationary_search", "operator_oracle", "phase_consistency")),
            ("flow --sigma2=0.5 --N 10", ()),
            ("lambda --sigma2=0.5 --N 10",
             ("lambda_worldline_independence_order", "lambda_breakdown")),
            ("stationary --sigma2=0.5 --N 10", ("stationary_search",)),
            ("phase --sigma2=0.5 --N 10", ("phase_consistency",)),
        ],
    )
    def test_far_endpoint_fails_by_name(self, tmp_path, capsys, command, failures):
        # b - a = (1e200, 0, 0, 0) squares past the float range: every suite
        # that needs the interval names the overflow and prints no warning
        # (any warning is an error here); flow never reads the endpoints and
        # fails only its accuracy at N = 10
        cfgp = write_quick_config(tmp_path, b=[1e200, 0, 0, 0])
        out = tmp_path / "out"
        assert main(command.split() + ["--config", cfgp, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        details = {c["name"]: c.get("detail", "") for c in checks if c["status"] == "fail"}
        for name in failures:
            assert details[name].startswith(
                "NumericalOverflow: squared interval between the endpoints"
            ), (name, details[name])

    @pytest.mark.parametrize(
        "argv, config, count, summed",
        [
            # the interval is finite, but the phase differences are near
            # 1e200 and their std squares past the float range
            ("phase --sigma2=0.5 --N 10", {**QUICK, "b": [1e100, 0, 0, 0]}, 4, False),
            # differences near 1e307 sum past it in their mean, which the
            # phase report then holds as null
            ("phase", {"b": [1e154, 1e153, 0, 0], "N": 64}, 20, True),
            ("verify", {"b": [1e154, 1e153, 0, 0], "N": 64}, 20, True),
        ],
        ids=["spread-phase", "mean-phase", "mean-verify"],
    )
    def test_far_endpoint_phase_spread_fails_by_name(
        self, tmp_path, capsys, argv, config, count, summed
    ):
        # the other phase checks still report, and the phase report is JSON
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(argv.split() + ["--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        report = json.loads((out / "run_report.json").read_text())
        details = {c["name"]: c.get("detail", "") for c in report["checks"]}
        assert details["phase_trajectory_independence"].startswith(
            f"NumericalOverflow: spread of {count} phase differences"
        )
        assert "phase_center_identity" in details

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        phase = json.loads((out / "phase_report.json").read_text(), parse_constant=refuse)
        assert (phase["measured_mean_difference"] is None) == summed

    @pytest.mark.parametrize(
        "argv, config, error",
        [
            # 2 sigma2_0 is finite, 2 sigma2_0 C is not: D is +inf, and
            # sigma1_0 = (b - a D) / (2C) names the overflow
            ("verify --sigma2=1e300 --N 8", {"C": 1e200},
             {"lambda_worldline_independence_order": "stationary sigma1_0 over C=1e+200",
              "phase_consistency": "stationary sigma1_0 over C=1e+200"}),
            ("phase --sigma2=1e300,-0.5,5.0 --N 3", {"m": 1e-150},
             {"phase_consistency": "stationary sigma1_0 over C=9.4"}),
            # the lattice eigenvalues themselves are infinite
            ("lambda --sigma2=0,1e-320 --N 10", {"amplitude": 1e200, "C": 1e200, "m": 1e200},
             {"lambda_worldline_independence_order":
              "lattice expansion at sigma2_0=0.5: an eigenvalue leaves the float range"}),
            # D(C) = inf with every component of a nonzero: (b - a D) / (2C)
            # is infinite without a floating-point flag
            ("verify --sigma2=1.7e308", AWAY,
             {"lambda_worldline_independence_order": f"{INFINITE_SIGMA1}0.9407443861113389",
              "lambda_breakdown": f"{INFINITE_SIGMA1}0.9407443861113389",
              "stationary_search": f"{INFINITE_SIGMA1}1.0",
              "phase_consistency": f"{INFINITE_SIGMA1}0.9407443861113389"}),
            ("verify", {**AWAY, "sigma2_0": 5e307, "C": 2.0},
             {"lambda_worldline_independence_order": f"{INFINITE_SIGMA1}2.0",
              "lambda_breakdown": f"{INFINITE_SIGMA1}2.0",
              "phase_consistency": f"{INFINITE_SIGMA1}2.0"}),
            ("verify", {**AWAY, "sigma2_0": 1e300, "C": 1e9},
             {"lambda_worldline_independence_order": f"{INFINITE_SIGMA1}1000000000.0",
              "lambda_breakdown": f"{INFINITE_SIGMA1}1000000000.0",
              "phase_consistency": f"{INFINITE_SIGMA1}1000000000.0"}),
        ],
    )
    def test_eigenvalues_past_the_float_range_fail_by_name(
        self, tmp_path, capsys, argv, config, error
    ):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(argv.split() + ["--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        checks = json.loads((out / "run_report.json").read_text())["checks"]
        details = {c["name"]: c.get("detail", "") for c in checks if c["status"] == "fail"}
        for name, message in error.items():
            assert details[name].startswith(f"NumericalOverflow: {message}"), details[name]

    @pytest.mark.parametrize(
        "field, argv", [("N", ["phase"]), ("operator_N", ["verify", "--N", "100"])]
    )
    def test_huge_lattice_size_exits_2(self, tmp_path, capsys, field, argv):
        # np.linspace cannot even size a lattice of 10**30 nodes
        path = tmp_path / "run.json"
        path.write_text(json.dumps({field: 10**30}))
        out = tmp_path / "out"
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {field} must be <= {MAX_N}, got {10**30}\n"
        assert not out.exists()

    def test_unwritable_out_exits_2(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["flow", "--N", "200", "--out", str(blocker / "sub")]) == 2

    def test_list_prints_check_names(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        assert "lambda_three_form_agreement" in out
        assert "operator_exact_free" in out
        for name in CHECK_NAMES["flow"]:
            assert name in out

    def test_report_is_bit_identical_across_reruns(self, tmp_path):
        cfgp = write_quick_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["lambda", "--config", cfgp, "--out", str(out1)]) == 0
        assert main(["lambda", "--config", cfgp, "--out", str(out2)]) == 0
        assert (out1 / "run_report.json").read_bytes() == (
            out2 / "run_report.json"
        ).read_bytes()
        assert (out1 / "lambda_spreads.csv").read_bytes() == (
            out2 / "lambda_spreads.csv"
        ).read_bytes()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "waveline.cli", "flow", "--list"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "flow_accuracy" in proc.stdout

    def test_check_lines_printed(self, tmp_path, capsys):
        main(["flow", "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 4
        assert "flow: PASS" in out

    def test_small_n_with_stock_tolerance_fails_controlledly(self, tmp_path):
        # the flow tolerance is calibrated at N=1000; a 600-interval lattice
        # must miss it rather than be waved through
        assert main(["flow", "--out", str(tmp_path / "o"), "--N", "600"]) == 1
