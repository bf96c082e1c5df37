"""Local decay rates: sliding-window log-linear regression."""

import numpy as np
import pytest

from blochdd.analysis import DecayCurve, rate_profile


def test_exact_exponential_gives_a_constant_rate():
    t = np.linspace(0.0, 2.0, 21)
    profile = rate_profile(DecayCurve(t, 0.8 * np.exp(-t / 0.5)), window=5)
    assert len(profile.rates) == len(t) - 5 + 1
    np.testing.assert_allclose(profile.rates, 2.0, rtol=1e-12)
    np.testing.assert_allclose(profile.centers, [t[k:k + 5].mean() for k in range(17)])
    assert profile.skipped_windows == ()


def test_windows_touching_non_positive_amplitudes_are_skipped():
    t = np.arange(10, dtype=float)
    a = np.exp(-0.3 * t)
    a[4] = 0.0
    a[8] = -0.1
    profile = rate_profile(DecayCurve(t, a), window=3)
    # windows start at 0..7; those covering index 4 or 8 are dropped
    assert profile.skipped_windows == (2, 3, 4, 6, 7)
    np.testing.assert_allclose(profile.centers, [1.0, 2.0, 6.0])
    np.testing.assert_allclose(profile.rates, 0.3, rtol=1e-12)


@pytest.mark.parametrize("window", [2, 11])
def test_window_outside_three_to_curve_length_is_rejected(window):
    t = np.arange(10, dtype=float)
    with pytest.raises(ValueError):
        rate_profile(DecayCurve(t, np.exp(-t)), window=window)


@pytest.mark.parametrize("field", ["times", "amplitudes", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decay_curve_rejects_non_finite_values(field, bad):
    t = np.linspace(0.0, 1.0, 5)
    columns = {"times": t, "amplitudes": np.exp(-t), "sigma": np.full(5, 0.01)}
    columns[field][2] = bad
    with pytest.raises(ValueError, match="finite"):
        DecayCurve(**columns)
