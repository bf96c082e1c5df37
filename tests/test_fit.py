"""The in-package Levenberg-Marquardt fit: Jacobians, accuracy, failures."""

import os
import sys

import numpy as np
import pytest
from scipy.optimize import least_squares

from blochdd import analysis, cli
from blochdd.analysis import DecayCurve, FitError, fit_decay, fit_inversion_recovery

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402

# (model function, parameters); every time grid starts at t = 0
MODELS = {
    "single_exp": (analysis._single_exp, [0.9, 0.7]),
    "stretched": (analysis._stretched, [0.8, 0.9, 1.7]),
    "stretched_below_1": (analysis._stretched, [0.8, 0.9, 0.6]),
    "inv_recovery": (analysis._inv_recovery, [0.5, -0.9, 1.0]),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_jacobian_matches_central_differences(name):
    model_fn, p = MODELS[name]
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 2.0, 25)
    f, _ = model_fn(t, np.array(p))
    curve = DecayCurve(t, f + 0.01 * rng.standard_normal(25), sigma=rng.uniform(0.005, 0.05, 25))
    _, jac = analysis._weighted(model_fn, curve, np.array(p))
    fd = np.empty_like(jac)
    for j in range(len(p)):
        h = 1e-6 * abs(p[j])
        up, down = np.array(p, dtype=float), np.array(p, dtype=float)
        up[j] += h
        down[j] -= h
        fd[:, j] = (analysis._weighted(model_fn, curve, up)[0]
                    - analysis._weighted(model_fn, curve, down)[0]) / (2 * h)
    assert np.all(np.isfinite(jac))
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-9 * np.abs(jac).max())


# sweep statuses at these seeds, as the sweep reported them with
# scipy.optimize.least_squares as its solver
SWEEP_STATUSES = {
    ("smoke", 11): ["fitted"] * 4,
    ("smoke", 12): ["fitted"] * 4,
    ("smoke", 13): ["fitted"] * 4,
    ("paper", 21): ["fitted"] * 4,
    ("paper", 5001): ["fitted"] * 4,
}


@pytest.mark.parametrize("size,seed", sorted(SWEEP_STATUSES))
def test_sweep_t2_matches_a_tightly_converged_minimum(monkeypatch, size, seed):
    curves = []
    fit = analysis.fit_decay

    def recording_fit(curve, model="single_exp"):
        curves.append(curve)
        return fit(curve, model)

    monkeypatch.setattr(analysis, "fit_decay", recording_fit)
    points = analysis.sweep_t2_vs_tauc(
        **cli.parse_sweep_config(workloads.make("ou_sweep", seed, size).config))
    assert [p.status for p in points] == SWEEP_STATUSES[size, seed]
    assert len(curves) == len(points)
    for point, curve in zip(points, curves):
        t, a = curve.times, curve.amplitudes
        amp0, rate0 = analysis._log_slope_init(t, a)
        oracle = least_squares(lambda p: p[0] * np.exp(-t / p[1]) - a, [amp0, 1.0 / rate0],
                               method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=10_000)
        assert point.t2 == pytest.approx(oracle.x[1], rel=1e-6)
        jac = oracle.jac
        cov = np.linalg.inv(jac.T @ jac) * (oracle.fun @ oracle.fun) / (len(t) - 2)
        assert point.t2_sigma == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-4)


def noisy_decay(n=40):
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 2.0, n)
    return DecayCurve(t, 0.9 * np.exp(-t / 0.7) + 0.01 * rng.standard_normal(n))


def test_rank_deficient_fit_raises():
    # amplitudes growing as e^t: the log-linear start clips the negative
    # rate to 1e-300, and at t2 = 1e300 the t2 column of J underflows to 0
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(FitError, match="rank deficient"):
        fit_decay(DecayCurve(t, np.exp(t)), "single_exp")


@pytest.mark.parametrize("cap", ["_MAX_ITER", "_MAX_DAMPING"])
def test_hitting_a_work_cap_raises(monkeypatch, cap):
    monkeypatch.setattr(analysis, cap, 1 if cap == "_MAX_ITER" else 0)
    with pytest.raises(FitError, match="did not converge"):
        fit_decay(noisy_decay(), "single_exp")


@pytest.mark.parametrize("exponent", [0.5, 1.0, 2.0, 3.0, 4.5])
def test_stretched_fit_recovers_compressed_and_stretched_laws(exponent):
    # noiseless exp(-(t/2)^x) from t = 0: the Weibull-plot start lies on the
    # answer; a log-linear start sent x = 4.5 to t_m 0.0548 and x 1.000
    t = np.linspace(0.0, 6.0, 30)
    fit = fit_decay(DecayCurve(t, np.exp(-((t / 2.0) ** exponent))), "stretched")
    got = [fit.params[name] for name in ("amplitude", "t_m", "exponent")]
    np.testing.assert_allclose(got, [1.0, 2.0, exponent], rtol=1e-6)


@pytest.mark.parametrize("model", ["single_exp", "stretched", "inv_recovery"])
def test_each_model_recovers_its_parameters(model):
    t = np.linspace(0.0, 3.0, 60)
    truth = {
        "single_exp": {"amplitude": 0.9, "t2": 0.7},
        "stretched": {"amplitude": 0.8, "t_m": 0.9, "exponent": 1.7},
        "inv_recovery": {"t1": 0.5, "m0": -0.9, "m_eq": 1.0},
    }[model]
    values, _ = getattr(analysis, "_" + model)(t, np.array(list(truth.values())))
    curve = DecayCurve(t, values, sigma=np.full(60, 0.01))
    fit = fit_inversion_recovery(curve) if model == "inv_recovery" else fit_decay(curve, model)
    for name, value in truth.items():
        assert fit.params[name] == pytest.approx(value, rel=1e-9)
    assert fit.residual_norm < 1e-9
