"""Bloch primitive tests against independent rotation/dephasing oracles."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from blochdd.bloch import (
    NO_RELAXATION,
    RelaxationParams,
    apply_hard_pulse,
    evolve_free,
    finite_pulse_matrix,
    rotation_matrix,
)

UP = np.array([0.0, 0.0, 1.0])


def oracle_rotation(axis, angle, v):
    """Independent rotation path: scipy Rotation, not our Rodrigues code."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return Rotation.from_rotvec(angle * axis).apply(v)


# ---------------------------------------------------------------------------
# hard pulses
# ---------------------------------------------------------------------------

def test_pi_pulse_inverts():
    out = apply_hard_pulse(UP, math.pi, 0.0)
    np.testing.assert_allclose(out, [0, 0, -1], atol=1e-12)


def test_half_pi_quarter_turn():
    out = apply_hard_pulse(UP, math.pi / 2, 0.0)
    np.testing.assert_allclose(out, [0, -1, 0], atol=1e-12)


def test_pi_minus_pi_identity_random_states():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        out = apply_hard_pulse(apply_hard_pulse(v, math.pi, 0.0), math.pi, math.pi)
        np.testing.assert_allclose(out, v, atol=1e-12)


def test_hard_pulse_matches_rotation_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.normal(size=3)
        area = rng.uniform(0, 4 * math.pi)
        phase = rng.uniform(-math.pi, math.pi)
        expected = oracle_rotation([math.cos(phase), math.sin(phase), 0.0], area, v)
        np.testing.assert_allclose(apply_hard_pulse(v, area, phase), expected, atol=1e-12)


def test_norm_preserved_under_pulse_compositions():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        for _ in range(20):
            kind = rng.integers(3)
            if kind == 0:
                v = apply_hard_pulse(v, rng.uniform(0, 7), rng.uniform(0, 7))
            elif kind == 1:
                v = v @ finite_pulse_matrix(1e5, rng.uniform(0, 2e-5), rng.uniform(0, 7),
                                            rng.uniform(-5e3, 5e3))
            else:
                v = evolve_free(v, rng.uniform(0, 1e-3), rng.uniform(-5e3, 5e3))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_batched_states():
    vs = np.tile(UP, (5, 1))
    out = apply_hard_pulse(vs, math.pi, 0.0)
    np.testing.assert_allclose(out, np.tile([0, 0, -1.0], (5, 1)), atol=1e-12)


# ---------------------------------------------------------------------------
# finite pulses
# ---------------------------------------------------------------------------

def test_finite_pulse_on_resonance_equals_hard():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = rng.normal(size=3)
        rabi = 1e5
        duration = 0.5 / rabi  # nominal pi
        phase = rng.uniform(0, 2 * math.pi)
        a = v @ finite_pulse_matrix(rabi, duration, phase, detuning=0.0)
        b = apply_hard_pulse(v, math.pi, phase)
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_finite_pulse_generalized_pi_at_45_degree_tilt():
    # detuning = rabi tilts the axis to 45 deg; a pi rotation about that
    # axis (generalized area sqrt(2)*rabi*duration = 1/2) moves +z to the
    # equator: z-out = cos(pi) + n_z^2 (1 - cos(pi)) = -1 + 2*(1/2) = 0.
    rabi = 1e5
    duration = 0.5 / (math.sqrt(2.0) * rabi)
    out = UP @ finite_pulse_matrix(rabi, duration, 0.0, detuning=rabi)
    expected = oracle_rotation([1, 0, 1], math.pi, UP)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    assert abs(out[2]) < 1e-12


def test_finite_pulse_small_detuning_pi():
    # nominal pi pulse at rabi/detuning = 50: inversion error is O((d/r)^2)
    rabi, det = 1e5, 2e3
    out = UP @ finite_pulse_matrix(rabi, 0.5 / rabi, 0.0, detuning=det)
    omega = math.hypot(rabi, det)
    expected = oracle_rotation([rabi, 0, det], 2 * math.pi * omega * (0.5 / rabi), UP)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    assert out[2] < -0.998


def test_finite_pulse_matches_rotation_oracle_grid():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.normal(size=3)
        rabi = rng.uniform(1e4, 2e5)
        duration = rng.uniform(0, 5e-5)
        phase = rng.uniform(0, 2 * math.pi)
        det = rng.uniform(-2e4, 2e4)
        omega = math.hypot(rabi, det)
        axis = [rabi * math.cos(phase), rabi * math.sin(phase), det]
        expected = oracle_rotation(axis, 2 * math.pi * omega * duration, v)
        out = v @ finite_pulse_matrix(rabi, duration, phase, det)
        np.testing.assert_allclose(out, expected, atol=1e-12)
    # the batched matrix builder, in the row convention v' = v @ M
    axes = rng.normal(size=(4, 25, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    angles = rng.uniform(-4 * math.pi, 4 * math.pi, size=(4, 25))
    vs = rng.normal(size=(4, 25, 3))
    out = (vs[..., None, :] @ rotation_matrix(axes, angles))[..., 0, :]
    for idx in np.ndindex(angles.shape):
        expected = oracle_rotation(axes[idx], angles[idx], vs[idx])
        np.testing.assert_allclose(out[idx], expected, atol=1e-12)


def test_finite_pulse_converges_to_hard_pulse():
    # error bounded by 10*(detuning/rabi) in vector norm over a grid
    rng = np.random.default_rng(6)
    rabi = 1e5
    for ratio in [1e-4, 1e-3, 1e-2, 0.05, 0.1]:
        det = ratio * rabi
        for _ in range(10):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            area = rng.uniform(0.1, 2 * math.pi)
            phase = rng.uniform(0, 2 * math.pi)
            fin = v @ finite_pulse_matrix(rabi, area / (2 * math.pi * rabi), phase, det)
            hard = apply_hard_pulse(v, area, phase)
            assert np.linalg.norm(fin - hard) <= 10.0 * ratio


# ---------------------------------------------------------------------------
# free evolution
# ---------------------------------------------------------------------------

def test_precession_quarter_turn():
    out = evolve_free(np.array([1.0, 0, 0]), 0.25e-3, detuning=1e3)
    np.testing.assert_allclose(out, [0, 1, 0], atol=1e-12)


def test_zero_duration_identity():
    v = np.array([0.3, -0.4, 0.5])
    np.testing.assert_allclose(evolve_free(v, 0.0, 123.0), v, atol=0)


def test_pure_t2_decay():
    relax = RelaxationParams(t2=1.0)
    out = evolve_free(np.array([1.0, 0, 0]), 1.0, 0.0, relax)
    np.testing.assert_allclose(out, [math.exp(-1), 0, 0], atol=1e-15)


def test_t1_relaxation_toward_equilibrium():
    relax = RelaxationParams(t1=2.0, z_equilibrium=0.5)
    out = evolve_free(np.array([0.0, 0, -1.0]), 2.0, 0.0, relax)
    assert out[2] == pytest.approx(0.5 + (-1 - 0.5) * math.exp(-1))


def test_evolve_free_semigroup():
    rng = np.random.default_rng(7)
    relax = RelaxationParams(t1=0.7, t2=0.31, z_equilibrium=0.2)
    for _ in range(30):
        v = rng.normal(size=3)
        det = rng.uniform(-3e3, 3e3)
        t1, t2 = rng.uniform(0, 1e-3, 2)
        once = evolve_free(v, t1 + t2, det, relax)
        twice = evolve_free(evolve_free(v, t1, det, relax), t2, det, relax)
        np.testing.assert_allclose(once, twice, atol=1e-12)


def test_relaxation_params_validation():
    with pytest.raises(ValueError):
        RelaxationParams(t1=-1.0)
    with pytest.raises(ValueError):
        RelaxationParams(t1=1.0, t2=3.0)  # t2 > 2 t1
    with pytest.raises(ValueError):
        RelaxationParams(z_equilibrium=2.0)
    RelaxationParams(t1=1.0, t2=2.0)  # boundary allowed
