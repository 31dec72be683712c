"""Brute-force check that the coefficient algebra matches the operator.

The oracle never uses the integration-by-parts identities: it treats the
wave functional as a plain function of the interior node coordinates and
differentiates it numerically.  Agreement with the predicted eigenvalue is
therefore an independent test of the whole sigma/r bookkeeping, including
the delta(0) -> 1/dc lattice rule.
"""

import json

import numpy as np
import pytest

from waveline import checks, eigenvalue
from waveline.cli import main
from waveline.config import load_config
from waveline.errors import BadGrid, FlowSingularity, NumericalOverflow, NumericalUnderflow
from waveline.eigenvalue import (
    WaveParameters,
    apply_action_operator,
    predicted_action_eigenvalue,
)
from waveline.phase_flow import FlowInitialData
from waveline.phase_functional import resample_on_log_clock
from waveline.worldline import perturb_interior, straight_line

from conftest import GENERIC

A = np.zeros(4)
B = np.array([1.0, 0.0, 0.0, 0.0])

SIGMA_ONLY = WaveParameters(
    FlowInitialData(np.array([0.3, 0.0, 0.0, 0.0]), 0.2), m=1.0, hbar_tilde=1.0
)
SIGMA_AND_R = WaveParameters(
    FlowInitialData(np.array([0.3, 0.0, 0.0, 0.0]), 0.2),
    m=1.0,
    hbar_tilde=1.0,
    r1_0=np.array([0.05, 0.02, -0.01, 0.03]),
    r2_0=0.1,
)


def operator_residual(params, w):
    """Probed minus predicted (I Psi)/Psi."""
    return apply_action_operator(params, w) - predicted_action_eigenvalue(params, w)


def lattice(n=16, seed=None):
    w = straight_line(A, B, 1.0, n)
    if seed is not None:
        w = perturb_interior(w, 0.2, seed=seed)
    return w


class TestExactCases:
    def test_free_functional_is_exactly_m2c(self):
        params = WaveParameters(FlowInitialData(np.zeros(4), 0.0), m=1.3)
        w = lattice()
        assert apply_action_operator(params, w) == 1.3 * 1.3 * 1.0 + 0.0j
        assert operator_residual(params, w) == 0.0 + 0.0j


class TestEndpointRows:
    """The probe reads the predicted integrand at rows 0 and N, and nowhere else."""

    @staticmethod
    def probed_with_bump(monkeypatch, rows):
        integrand = eigenvalue.lattice_integrand

        def bumped(w, flow, params=None):
            lam, res = integrand(w, flow, params)
            lam[rows] += 1.0
            res[rows] += 1.0
            return lam, res

        monkeypatch.setattr(eigenvalue, "lattice_integrand", bumped)
        return apply_action_operator(SIGMA_AND_R, lattice(seed=21))

    def test_interior_rows_are_not_read(self, monkeypatch):
        clean = apply_action_operator(SIGMA_AND_R, lattice(seed=21))
        assert self.probed_with_bump(monkeypatch, slice(1, -1)) == clean

    @pytest.mark.parametrize("row", [0, -1], ids=["row_0", "row_N"])
    def test_endpoint_rows_are_read(self, monkeypatch, row):
        clean = apply_action_operator(SIGMA_AND_R, lattice(seed=21))
        moved = self.probed_with_bump(monkeypatch, row)
        assert moved.real != clean.real
        assert moved.imag != clean.imag


class TestQuadraticFunctionals:
    @pytest.mark.parametrize("params", [SIGMA_ONLY, SIGMA_AND_R],
                             ids=["sigma_only", "sigma_and_r"])
    def test_residual_within_tolerance(self, params):
        w = lattice()
        predicted = predicted_action_eigenvalue(params, w)
        rel = abs(operator_residual(params, w)) / max(1.0, abs(predicted))
        assert rel <= 1e-4

    def test_on_a_perturbed_worldline(self):
        w = lattice(seed=21)
        predicted = predicted_action_eigenvalue(SIGMA_AND_R, w)
        rel = abs(operator_residual(SIGMA_AND_R, w)) / max(1.0, abs(predicted))
        assert rel <= 1e-4

    def test_imaginary_part_tracks_reality_quadrature(self):
        w = lattice()
        probed = apply_action_operator(SIGMA_AND_R, w)
        predicted = predicted_action_eigenvalue(SIGMA_AND_R, w)
        assert probed.imag == pytest.approx(predicted.imag, rel=1e-6)
        # the modulus here is incompatible with the flow, so the
        # imaginary part must be visibly nonzero
        assert abs(predicted.imag) > 1.0

    def test_other_mass_and_hbar(self):
        params = WaveParameters(
            FlowInitialData(np.array([0.1, 0.05, 0.0, -0.08]), 0.35),
            m=0.6,
            hbar_tilde=0.5,
            r2_0=0.05,
        )
        w = lattice(n=12)
        predicted = predicted_action_eigenvalue(params, w)
        rel = abs(operator_residual(params, w)) / max(1.0, abs(predicted))
        assert rel <= 1e-4

    def test_probe_error_scales_quadratically_in_step(self, monkeypatch):
        # residuals are dominated by the O(h^2) truncation of the central
        # differences; two decades of h should move them ~four decades
        # (at hbar_tilde = 1 the step is OPERATOR_STEP itself)
        w = lattice()
        monkeypatch.setattr(eigenvalue, "OPERATOR_STEP", 1e-1)
        r_coarse = abs(operator_residual(SIGMA_AND_R, w))
        monkeypatch.setattr(eigenvalue, "OPERATOR_STEP", 1e-2)
        r_fine = abs(operator_residual(SIGMA_AND_R, w))
        assert 30.0 < r_coarse / r_fine < 300.0


class TestGuards:
    def test_underflowing_modulus_rejected(self):
        params = WaveParameters(
            FlowInitialData(np.zeros(4), 0.0),
            m=1.0,
            r1_0=np.array([-3000.0, 0.0, 0.0, 0.0]),  # exp(-1500) at the base point
        )
        with pytest.raises(NumericalUnderflow):
            apply_action_operator(params, lattice())

    def test_overflowing_probe_step_rejected(self, recwarn):
        # at dc ~ 1e198 one probe step scales |Psi| by exp(~1e194), and the
        # log-clock spline's h**2 leaves the float range
        w = straight_line(A, B, 1e200, 8)
        with pytest.raises(NumericalOverflow):
            apply_action_operator(SIGMA_AND_R, w)
        with pytest.raises(BadGrid, match="cannot spline the world line"):
            resample_on_log_clock(w, 0.5)
        # at dc ~ 1e-301 the second difference's 1/dc**2 does
        with pytest.raises(NumericalOverflow, match="operator probe"):
            apply_action_operator(SIGMA_AND_R, straight_line(A, B, 1e-300, 8))
        assert not [r for r in recwarn if issubclass(r.category, RuntimeWarning)]

    def test_singular_flow_rejected(self):
        params = WaveParameters(FlowInitialData(np.zeros(4), -0.5), m=1.0)
        with pytest.raises(FlowSingularity):
            apply_action_operator(params, lattice())


class TestStepScale:
    """The probe steps by OPERATOR_STEP * hbar_tilde, so a phase step stays resolved."""

    @pytest.mark.parametrize("hbar_tilde", [1e-3, 1e-6, 1e-12])
    @pytest.mark.parametrize("geometry", [{}, GENERIC], ids=["default", "generic"])
    def test_library_probe_matches_the_prediction(self, geometry, hbar_tilde):
        # a library call with no step of its own: at a fixed step of 1e-4
        # the misses are 4.7e-7 at 1e-3 and 0.33 at 1e-6 on the default geometry
        cfg = load_config(overrides={**geometry, "hbar_tilde": hbar_tilde})
        w = straight_line(cfg.a, cfg.b, cfg.run_duration(), cfg.operator_N)
        init = FlowInitialData(np.array(checks.OPERATOR_SIGMA1), checks.OPERATOR_SIGMA2)
        for extra in ({}, {"r1_0": np.array(checks.OPERATOR_R1), "r2_0": checks.OPERATOR_R2}):
            params = WaveParameters(init, cfg.m, hbar_tilde, **extra)
            predicted = predicted_action_eigenvalue(params, w)
            rel = abs(apply_action_operator(params, w) - predicted) / abs(predicted)
            assert rel <= 1e-10, (extra, rel)

    @pytest.mark.parametrize("hbar_tilde", [1e-3, 1e-6, 1e-12, 1e-100])
    @pytest.mark.parametrize("geometry", [{}, GENERIC], ids=["default", "generic"])
    def test_small_hbar_passes_the_value_checks(self, geometry, hbar_tilde):
        cfg = load_config(overrides={**geometry, "N": 50, "hbar_tilde": hbar_tilde})
        found = {c.name: c for c in checks.operator_suite(cfg).checks}
        for name in ("operator_phase_only", "operator_phase_and_modulus"):
            assert found[name].passed, (name, found[name].value)

    def test_unit_hbar_keeps_the_fixed_step(self, monkeypatch):
        # the refused step names h, which at hbar_tilde = 1 is OPERATOR_STEP exactly
        monkeypatch.setattr(eigenvalue, "OPERATOR_STEP", 1e-160)
        (failed,) = checks.operator_suite(load_config()).checks
        assert failed.name == "operator_oracle"
        assert failed.detail.startswith(
            "NumericalUnderflow: operator probe step h=1e-160 at hbar_tilde=1.0 "
        )

    def test_a_step_whose_square_underflows_is_refused(self, monkeypatch):
        monkeypatch.setattr(eigenvalue, "OPERATOR_STEP", 1e-160)
        with pytest.raises(NumericalUnderflow, match=r"step h=1e-160 at hbar_tilde=1.0"):
            apply_action_operator(SIGMA_AND_R, lattice())

    @pytest.mark.parametrize("geometry", [{}, GENERIC], ids=["default", "generic"])
    def test_underflowing_step_fails_by_name(self, tmp_path, capsys, geometry):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**geometry, "hbar_tilde": 1e-200}))
        out = tmp_path / "out"
        assert main(["verify", "--N", "50", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        report = json.loads((out / "run_report.json").read_text())
        details = {c["name"]: c.get("detail", "") for c in report["checks"]}
        assert details["operator_oracle"].startswith(
            "NumericalUnderflow: operator probe step h=1e-204 at hbar_tilde=1e-200"
        )
