"""Level structure, gradients, and critical-point search.

The synthetic test system below was engineered against an exhaustive
grid search to have a genuine interior gradient zero for the (2, 3)
transition near B = (-256.02, 950.63, -192.48) G, with all level gaps
above 130 kHz there.
"""

import json
import math
import os
import sys

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from blochdd import hamiltonian
from blochdd.hamiltonian import (
    CriticalPointResult,
    DegenerateLevelsError,
    SpinSystem,
    critical_point_report_json,
    field_gradient,
    find_critical_point,
    frequency_hessian,
    hamiltonian_matrix,
    spin_operators,
    spin_system_from_dict,
    transition_frequency,
)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402

Q_SYNTH = np.array(
    [
        [1230.1533574825742, -295923.15062440216, -106997.12638238954],
        [-295923.15062440216, -454670.7851717225, 174284.34527903557],
        [-106997.12638238954, 174284.34527903557, -492206.5185513296],
    ]
)
M_SYNTH = np.array(
    [
        [1379.5251001800596, 489.8420501851982, 356.88700816006076],
        [105.41424899789855, 1069.5319552917954, -29.251822463273488],
        [695.3031944582879, -1344.2145472850818, 1542.384238959782],
    ]
)
B_CP_NOMINAL = np.array([-256.0185, 950.6272, -192.4829])
SYNTH = SpinSystem(q_tensor=Q_SYNTH, m_tensor=M_SYNTH)


def energies(sys_, b):
    """Ascending eigenvalues (Hz) of the Hamiltonian at field ``b``."""
    return np.linalg.eigvalsh(hamiltonian_matrix(sys_, b))


def axial_system(d_hz):
    q = d_hz * np.diag([-1 / 3, -1 / 3, 2 / 3])
    return SpinSystem(q_tensor=q, m_tensor=np.zeros((3, 3)))


def random_system(rng, q_scale=1e6, m_scale=2e3):
    q = rng.normal(size=(3, 3))
    q = (q + q.T) / 2 * q_scale
    m = rng.normal(size=(3, 3)) * m_scale
    return SpinSystem(q_tensor=q, m_tensor=m)


# ---------------------------------------------------------------------------
# operators and spectra
# ---------------------------------------------------------------------------

def test_spin_operator_algebra():
    ix, iy, iz = spin_operators()
    np.testing.assert_allclose(ix @ iy - iy @ ix, 1j * iz, atol=1e-12)
    np.testing.assert_allclose(np.diag(iz).real, [2.5, 1.5, 0.5, -0.5, -1.5, -2.5])
    casimir = ix @ ix + iy @ iy + iz @ iz
    np.testing.assert_allclose(casimir, np.eye(6) * 2.5 * 3.5, atol=1e-12)


def test_axial_quadrupole_closed_form():
    # H = D (Iz^2 - I(I+1)/3): eigenvalues D (m^2 - 35/12), so the three
    # doublets sit at -(8/3) D, -(2/3) D, +(10/3) D with gaps 2D and 4D
    d = 1e6
    sys_, b = axial_system(d), np.zeros(3)
    expect = d * np.array([-8 / 3, -8 / 3, -2 / 3, -2 / 3, 10 / 3, 10 / 3])
    np.testing.assert_allclose(energies(sys_, b), expect, atol=1e-6)
    assert transition_frequency(sys_, b, 1, 2) == pytest.approx(2 * d, rel=1e-12)
    assert transition_frequency(sys_, b, 3, 4) == pytest.approx(4 * d, rel=1e-12)


def test_zero_field_doublets():
    rng = np.random.default_rng(10)
    for _ in range(5):
        sys_ = random_system(rng)
        e = energies(sys_, np.zeros(3))
        scale = np.abs(sys_.q_tensor).max()
        assert e[1] - e[0] < 1e-9 * scale
        assert e[3] - e[2] < 1e-9 * scale
        assert e[5] - e[4] < 1e-9 * scale


def test_pure_zeeman_ladder():
    gamma = 1e4  # Hz/G
    sys_ = SpinSystem(q_tensor=np.zeros((3, 3)), m_tensor=gamma * np.eye(3))
    b = np.array([0.0, 0.0, 100.0])  # 1 MHz splitting
    np.testing.assert_allclose(np.diff(energies(sys_, b)), np.full(5, 1e6), rtol=1e-12)
    for i in range(5):
        assert transition_frequency(sys_, b, i, i + 1) == pytest.approx(1e6, rel=1e-12)
    grad = field_gradient(sys_, b, 2, 3)
    np.testing.assert_allclose(grad, [0.0, 0.0, gamma], atol=1e-6)


def test_quadrupole_trace_shift_invariance():
    rng = np.random.default_rng(11)
    sys_ = random_system(rng)
    shifted = SpinSystem(q_tensor=sys_.q_tensor + 7.7e5 * np.eye(3), m_tensor=sys_.m_tensor)
    b = rng.uniform(-500, 500, 3)
    f1 = transition_frequency(sys_, b, 1, 4)
    f2 = transition_frequency(shifted, b, 1, 4)
    assert f1 == pytest.approx(f2, abs=1e-9 * abs(f1) + 1e-6)


def test_frame_covariance_under_rotations():
    rng = np.random.default_rng(12)
    sys_ = random_system(rng)
    b = rng.uniform(-400, 400, 3)
    for seed in range(5):
        r = Rotation.random(rng=np.random.default_rng(seed)).as_matrix()
        rotated = SpinSystem(
            q_tensor=r @ sys_.q_tensor @ r.T, m_tensor=r @ sys_.m_tensor @ r.T
        )
        for (i, j) in [(0, 1), (2, 3), (1, 4)]:
            f = transition_frequency(sys_, b, i, j)
            fr = transition_frequency(rotated, r @ b, i, j)
            assert fr == pytest.approx(f, abs=1e-9 * max(abs(f), 1.0))


def test_transition_frequency_lipschitz_bound():
    # |f(b+d) - f(b)| <= 2 ||M||_2 sqrt(I(I+1)) |d| for any step
    rng = np.random.default_rng(13)
    bound_scale = 2.0 * np.linalg.norm(M_SYNTH, 2) * math.sqrt(2.5 * 3.5)
    b = np.array([-256.0, 950.0, -192.0])
    f0 = transition_frequency(SYNTH, b, 2, 3)
    for _ in range(50):
        delta = rng.normal(size=3)
        delta *= rng.uniform(0.001, 1.0) / np.linalg.norm(delta)
        f1 = transition_frequency(SYNTH, b + delta, 2, 3)
        assert abs(f1 - f0) <= bound_scale * np.linalg.norm(delta) * (1 + 1e-9)


def test_index_validation():
    with pytest.raises(IndexError):
        transition_frequency(SYNTH, np.zeros(3), 0, 6)
    with pytest.raises(IndexError):
        transition_frequency(SYNTH, np.zeros(3), 3, 3)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def fd_gradient(sys_, b, i, j, step=0.01):
    """Independent central-difference gradient oracle (Hz/G)."""
    g = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = step
        g[k] = (
            transition_frequency(sys_, b + e, i, j)
            - transition_frequency(sys_, b - e, i, j)
        ) / (2 * step)
    return g


def fd_hessian(sys_, b, i, j, step):
    """Independent central-difference Hessian oracle (Hz/G^2)."""
    f0 = transition_frequency(sys_, b, i, j)
    hess = np.empty((3, 3))
    eye = np.eye(3)
    for k in range(3):
        fp = transition_frequency(sys_, b + step * eye[k], i, j)
        fm = transition_frequency(sys_, b - step * eye[k], i, j)
        hess[k, k] = (fp - 2.0 * f0 + fm) / step**2
    for k in range(3):
        for l in range(k + 1, 3):
            fpp = transition_frequency(sys_, b + step * (eye[k] + eye[l]), i, j)
            fpm = transition_frequency(sys_, b + step * (eye[k] - eye[l]), i, j)
            fmp = transition_frequency(sys_, b - step * (eye[k] - eye[l]), i, j)
            fmm = transition_frequency(sys_, b - step * (eye[k] + eye[l]), i, j)
            hess[k, l] = hess[l, k] = (fpp - fpm - fmp + fmm) / (4.0 * step**2)
    return hess


def _well_separated(sys_, b, i, j, min_gap=5e4):
    e = energies(sys_, b)
    gaps = np.diff(e)
    lo = min(i, j)
    hi = max(i, j)
    idx = {lo - 1, lo, hi - 1, hi} & set(range(5))
    return all(gaps[k] > min_gap for k in idx)


def test_hellmann_feynman_matches_finite_differences():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 100:
        sys_ = random_system(rng)
        b = rng.uniform(-800, 800, 3)
        i, j = sorted(rng.choice(6, size=2, replace=False))
        if not _well_separated(sys_, b, i, j):
            continue
        hf = field_gradient(sys_, b, i, j)
        fd = fd_gradient(sys_, b, i, j)
        assert np.linalg.norm(hf - fd) <= 1e-5 * np.linalg.norm(hf), (i, j, b)
        checked += 1


def test_analytic_hessian_matches_finite_differences():
    # the same draws as the gradient oracle above; the worst case is the
    # O(step^2) truncation of the difference quotient near a ~7e4 Hz gap
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 100:
        sys_ = random_system(rng)
        b = rng.uniform(-800, 800, 3)
        i, j = sorted(rng.choice(6, size=2, replace=False))
        if not _well_separated(sys_, b, i, j):
            continue
        pt = frequency_hessian(sys_, b, i, j)
        fd = fd_hessian(sys_, b, i, j, step=0.05)
        assert np.linalg.norm(pt - fd) <= 1e-4 * np.linalg.norm(pt), (i, j, b)
        checked += 1


def test_gradient_degeneracy_error():
    with pytest.raises(DegenerateLevelsError):
        field_gradient(axial_system(1e6), np.zeros(3), 0, 2)


def test_gradient_near_critical_point_is_small():
    g = field_gradient(SYNTH, B_CP_NOMINAL, 2, 3)
    assert np.linalg.norm(g) < 1e-3 * np.linalg.norm(M_SYNTH, 2)


# ---------------------------------------------------------------------------
# critical-point search
# ---------------------------------------------------------------------------

def test_find_critical_point_converges_to_grid_minimum():
    # coarse but exhaustive oracle: frequency on a 1 G lattice, gradient
    # via lattice central differences, argmin over the interior
    start = B_CP_NOMINAL + np.array([9.0, -13.0, 6.0])
    res = find_critical_point(SYNTH, start, 2, 3, box_halfwidth=20.0, n_starts=4, seed=2)
    assert res.converged
    assert res.residual_gradient_norm <= 1e-3 * np.linalg.norm(M_SYNTH, 2)

    step = 1.0
    ax = np.arange(-20.0, 20.0 + 1e-9, step)
    grid = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1) + start
    f = transition_frequency(SYNTH, grid, 2, 3)
    gx, gy, gz = np.gradient(f, step, step, step)
    g2 = (gx**2 + gy**2 + gz**2)[1:-1, 1:-1, 1:-1]
    k = np.unravel_index(np.argmin(g2), g2.shape)
    b_grid = start + np.array([ax[k[0] + 1], ax[k[1] + 1], ax[k[2] + 1]])
    assert np.linalg.norm(res.b_cp - b_grid) < 1.0
    # curvature reported as a symmetric second-derivative matrix
    np.testing.assert_allclose(res.curvature, res.curvature.T, atol=1e-6)


def test_find_critical_point_none_for_pure_zeeman():
    gamma = 2e3
    sys_ = SpinSystem(q_tensor=np.zeros((3, 3)), m_tensor=gamma * np.eye(3))
    res = find_critical_point(
        sys_, np.array([200.0, 0.0, 0.0]), 2, 3, box_halfwidth=30.0, n_starts=3, seed=3
    )
    assert not res.converged
    assert res.residual_gradient_norm == pytest.approx(gamma, rel=1e-6)


# the Nelder-Mead search this package used before the Newton search,
# on the benchmark's paper configs (seeds 21 and 5001): its b_cp, and
# its residual, the bound the Newton search must meet
B_CP_NELDER_MEAD = np.array([-256.01846166, 950.62715749, -192.48292096])
RESIDUAL_NELDER_MEAD = 1.6e-9


@pytest.mark.parametrize("seed", [21, 5001])
def test_find_critical_point_agrees_with_nelder_mead_on_paper_configs(seed):
    cfg = workloads.make("critical_point", seed, "paper").config
    search = cfg["search"]
    assert search["n_starts"] == 128
    res = find_critical_point(
        spin_system_from_dict(cfg["spin_system"]), search["b_init_g"], *search["level_pair"],
        box_halfwidth=search["box_halfwidth_g"], n_starts=search["n_starts"],
        seed=search["seed"],
    )
    assert res.converged
    np.testing.assert_allclose(res.b_cp, B_CP_NELDER_MEAD, rtol=0, atol=1e-6)
    assert res.residual_gradient_norm <= RESIDUAL_NELDER_MEAD
    assert res.n_evaluations < 2000


def test_find_critical_point_raises_when_levels_degenerate_everywhere():
    # no Zeeman term: levels 0 and 1 stay a doublet at every field
    with pytest.raises(DegenerateLevelsError, match="everywhere"):
        find_critical_point(axial_system(1e6), np.zeros(3), 0, 2, n_starts=4, seed=1)


def test_hessian_matches_curvature_scale():
    h = frequency_hessian(SYNTH, B_CP_NOMINAL, 2, 3)
    # second-order sensitivity of this transition is tens of Hz/G^2
    assert 1.0 < np.abs(h).max() < 1e3


def test_spin_system_validation_and_json():
    with pytest.raises(ValueError, match="symmetric"):
        SpinSystem(q_tensor=np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]),
                   m_tensor=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        SpinSystem(q_tensor=np.zeros((2, 2)), m_tensor=np.zeros((3, 3)))
    # the report's spin_system entry reads back as the system it was written from
    result = CriticalPointResult(b_cp=B_CP_NOMINAL, residual_gradient_norm=0.0, curvature=np.eye(3),
                                 converged=True, n_evaluations=1, frequency=0.0)
    report = json.loads(critical_point_report_json(result, SYNTH, 2, 3, config={}))
    back = spin_system_from_dict(report["spin_system"])
    np.testing.assert_array_equal(back.q_tensor, SYNTH.q_tensor)
    np.testing.assert_array_equal(back.m_tensor, SYNTH.m_tensor)
    with pytest.raises(ValueError, match="missing key"):
        spin_system_from_dict({"q_tensor_hz": [[0] * 3] * 3})


def test_batch_frequencies_match_scalar():
    rng = np.random.default_rng(15)
    pts = rng.uniform(-300, 300, (10, 3))
    batch = transition_frequency(SYNTH, pts, 1, 4)
    for k in range(10):
        assert batch[k] == pytest.approx(transition_frequency(SYNTH, pts[k], 1, 4), rel=1e-12)


def test_derivatives_do_not_depend_on_the_batch():
    # the search evaluates its starts together: each point's gradient,
    # Hessian and gaps must be the bits it has when evaluated alone
    rng = np.random.default_rng(16)
    pts = B_CP_NOMINAL + rng.uniform(-400, 400, (300, 3))
    grad, hess, gap = hamiltonian._derivatives(SYNTH, pts, 2, 3)
    for k in range(len(pts)):
        one = hamiltonian._derivatives(SYNTH, pts[k:k + 1], 2, 3)
        for alone, batched in zip(one, (grad, hess, gap)):
            np.testing.assert_array_equal(alone[0], batched[k])


def test_hamiltonian_is_hermitian():
    h = hamiltonian_matrix(SYNTH, np.array([10.0, 20.0, 30.0]))
    np.testing.assert_allclose(h, h.conj().T, atol=1e-9)
