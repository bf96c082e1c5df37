"""Decay curves: input checks."""

import numpy as np
import pytest

from blochdd.analysis import DecayCurve


@pytest.mark.parametrize("field", ["times", "amplitudes", "sigma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decay_curve_rejects_non_finite_values(field, bad):
    t = np.linspace(0.0, 1.0, 5)
    columns = {"times": t, "amplitudes": np.exp(-t), "sigma": np.full(5, 0.01)}
    columns[field][2] = bad
    with pytest.raises(ValueError, match="finite"):
        DecayCurve(**columns)
