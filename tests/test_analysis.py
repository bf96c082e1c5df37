"""Decay curves: input checks; the sweep's point statuses."""

import math

import numpy as np
import pytest

from blochdd import analysis
from blochdd.analysis import DecayCurve, FitError, sweep_t2_vs_tauc
from blochdd.bloch import NO_RELAXATION, RelaxationParams
from blochdd.ensemble import NO_NOISE, EnsembleSpec
from blochdd.sequences import BangBangParams, build_bangbang


@pytest.mark.parametrize("field", ["times", "amplitudes", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decay_curve_rejects_non_finite_values(field, bad):
    t = np.linspace(0.0, 1.0, 5)
    columns = {"times": t, "amplitudes": np.exp(-t), "sigma": np.full(5, 0.01)}
    columns[field][2] = bad
    with pytest.raises(ValueError, match="finite"):
        DecayCurve(**columns)


# ---------------------------------------------------------------------------
# sweep statuses
# ---------------------------------------------------------------------------

def sweep_point(relax):
    # one member on a static line, no bath: each echo is exactly the T2 factor
    program = build_bangbang(BangBangParams(tau1=0.5e-3, tau_c=1e-3, n_cycles=20), acquire_every=1)
    spec = EnsembleSpec(size=1, distribution="explicit", detunings=(150.0,))
    [point] = sweep_t2_vs_tauc({1e-3: program}, noise=NO_NOISE, ensemble=spec, relax=relax)
    assert point.tau_c == 1e-3 and point.n_points == 20
    return point


def test_sweep_fits_a_decay():
    point = sweep_point(RelaxationParams(t2=2000.0))
    assert point.status == "fitted"
    assert point.t2 == pytest.approx(2000.0, rel=1e-9)


def test_sweep_reports_flat_echoes_as_no_measurable_decay():
    # the fit of a flat series is rank deficient, and its log slope is 0
    point = sweep_point(NO_RELAXATION)
    assert (point.status, point.t2, point.t2_sigma) == ("no_measurable_decay", math.inf, math.inf)


def test_sweep_reports_a_decay_it_cannot_fit_as_fit_failed(monkeypatch):
    # a decay at 5e-4 /s is a decay, however slow: a failed fit of it is
    # fit_failed, not a decay below the noise floor
    def failing(curve, model):
        raise FitError("no fit")

    monkeypatch.setattr(analysis, "fit_decay", failing)
    point = sweep_point(RelaxationParams(t2=2000.0))
    assert (point.status, point.t2, point.t2_sigma) == ("fit_failed", math.inf, math.inf)
