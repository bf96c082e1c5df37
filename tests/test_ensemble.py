"""Ensemble sampling, bath trajectories, and program-run contracts."""

import json
import math
import tracemalloc
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from blochdd import ensemble
from blochdd.bloch import RelaxationParams
from blochdd.ensemble import (
    EnsembleSpec,
    NoiseModel,
    SimulationBudgetError,
    acquire_series,
    calibrate_ou_sigma,
    echo_amplitude,
    ou_fid_coherence,
    ou_hahn_coherence,
    result_to_csv,
    result_to_json,
    run_program,
    sample_detunings,
)
from blochdd.sequences import (
    BangBangParams,
    PulseProgram,
    PulseSpec,
    build_bangbang,
    build_hahn_echo,
    parse,
)

SIGMA_FROM_FWHM = 1 / 2.3548200450309493


def gaussian_fid_oracle(t, fwhm):
    sigma = fwhm * SIGMA_FROM_FWHM
    return math.exp(-0.5 * (2 * math.pi * sigma * t) ** 2)


# ---------------------------------------------------------------------------
# detuning sampling
# ---------------------------------------------------------------------------

def test_explicit_singleton():
    det, w = sample_detunings(EnsembleSpec(size=1, distribution="explicit", detunings=(0.0,)))
    assert det.tolist() == [0.0]
    assert w.tolist() == [1.0]


def test_gaussian_sample_std():
    spec = EnsembleSpec(size=100_000, distribution="gaussian", fwhm=4000.0, seed=3)
    det, w = sample_detunings(spec)
    assert det.std() == pytest.approx(4000.0 * SIGMA_FROM_FWHM, rel=0.01)
    assert w.sum() == pytest.approx(1.0)


def test_sampling_deterministic_for_seed():
    spec = EnsembleSpec(size=100, distribution="gaussian", fwhm=1000.0, seed=9)
    a, _ = sample_detunings(spec)
    b, _ = sample_detunings(spec)
    np.testing.assert_array_equal(a, b)


def test_lorentzian_width():
    spec = EnsembleSpec(size=200_000, distribution="lorentzian", fwhm=4000.0, seed=5)
    det, _ = sample_detunings(spec)
    # half the probability mass lies within +-fwhm/2 of center
    frac = np.mean(np.abs(det) < 2000.0)
    assert frac == pytest.approx(0.5, abs=0.01)


def test_quadrature_fid_matches_analytic():
    # 32 Gauss-Hermite nodes resolve a 2 kHz line out to 1 ms to ~1e-10;
    # (a 4 kHz line would alias at this node count -- see the 512-node
    # run test below for that regime)
    spec = EnsembleSpec(size=32, distribution="gaussian", fwhm=2000.0,
                        sampling="gauss_quadrature")
    det, w = sample_detunings(spec)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    for t in np.linspace(1e-5, 1e-3, 7):
        amp = abs(np.sum(w * np.exp(1j * 2 * math.pi * det * t)))
        assert abs(amp - gaussian_fid_oracle(t, 2000.0)) < 1e-6


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(size=0, fwhm=1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(size=4, fwhm=-1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(size=4, distribution="lorentzian", fwhm=1.0, sampling="gauss_quadrature")
    with pytest.raises(ValueError):
        EnsembleSpec(size=3, distribution="explicit", detunings=(1.0, 2.0))
    for size in (4.5, True, "4"):
        with pytest.raises(TypeError):
            EnsembleSpec(size=size, fwhm=1.0)
    for seed in (1.0, "x"):
        with pytest.raises(TypeError):
            EnsembleSpec(size=4, fwhm=1.0, seed=seed)
    with pytest.raises(ValueError):
        EnsembleSpec(size=4, fwhm=1.0, seed=-1)
    assert EnsembleSpec(size=np.int64(4), fwhm=1.0, seed=np.int64(2)).size == 4


# ---------------------------------------------------------------------------
# bath trajectories
# ---------------------------------------------------------------------------

def ou_interval_moments_exact(r, sigma, tau_b, x0):
    """Closed-form (mean_x, mean_int, var_x, var_int, cov) in 40-digit decimals."""
    getcontext().prec = 40
    r, s2, tau = Decimal(r), Decimal(sigma) ** 2, Decimal(tau_b)
    a = (-r).exp()
    moments = (
        a * Decimal(x0),
        tau * (1 - a) * Decimal(x0),
        s2 * (1 - a * a),
        s2 * tau * tau * (2 * r - 3 + 4 * a - a * a),
        s2 * tau * (1 - a) ** 2,
    )
    return [float(m) for m in moments]


@pytest.mark.parametrize("r", [1e-9, 1e-3, 1.0, 50.0])
def test_ou_interval_draw_matches_closed_form(r):
    # one exact OU interval from a fixed start: the sample mean and
    # covariance of (x_h, integral) against the bivariate Gaussian
    sigma, tau_b, x0, n = 25.0, 4e-3, 17.0, 200_000
    factors = np.array([ensemble._ou_factors(r * tau_b, sigma, tau_b)])
    z = np.random.default_rng(11).standard_normal((1, n, 2))
    xs, integrals = ensemble._ou_advance(np.full(n, x0), factors, z)
    x, s = xs[1], integrals[0]
    mx, ms, vx, vs, cov = ou_interval_moments_exact(r, sigma, tau_b, x0)
    assert vx > 0 and vs > 0
    assert abs(x.mean() - mx) < 3 * math.sqrt(vx / n)
    assert abs(s.mean() - ms) < 3 * math.sqrt(vs / n)
    assert abs(x.var() - vx) < 3 * vx * math.sqrt(2.0 / n)
    assert abs(s.var() - vs) < 3 * vs * math.sqrt(2.0 / n)
    sample_cov = np.mean((x - x.mean()) * (s - s.mean()))
    assert abs(sample_cov - cov) < 3 * math.sqrt((vx * vs + cov**2) / n)


def test_ou_interval_variances_are_never_negative():
    sigma, tau_b = 3.0, 1e-3
    for r in np.logspace(-15, 3, 400):
        a, b, l11, l21, l22 = ensemble._ou_factors(r * tau_b, sigma, tau_b)
        assert ensemble._ou_integral_bracket(r) > 0
        assert l11 > 0 and l22 > 0
    # the series and the closed form meet at the branch point
    r = 0.1
    closed = 2 * r - 3 + 4 * math.exp(-r) - math.exp(-2 * r)
    assert ensemble._ou_integral_bracket(r) == pytest.approx(closed, rel=1e-12)
    assert ensemble._ou_integral_bracket(r * (1 - 1e-12)) == pytest.approx(closed, rel=1e-10)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="ornstein_uhlenbeck", sigma=1.0, tau_b=0.0)
    with pytest.raises(ValueError):
        NoiseModel(kind="telegraph", amplitude=1.0, flip_rate=0.0)


# ---------------------------------------------------------------------------
# program runs
# ---------------------------------------------------------------------------

def test_hahn_refocusing_over_gaussian_line():
    spec = EnsembleSpec(size=128, distribution="gaussian", fwhm=4000.0,
                        sampling="gauss_quadrature")
    for tau in (1e-3, 10e-3, 100e-3):
        res = run_program(build_hahn_echo(tau), spec)
        mag, _ = echo_amplitude(res, "echo")
        assert abs(mag - 1.0) <= 1e-9


def test_fid_quadrature_matches_oracle():
    spec = EnsembleSpec(size=512, distribution="gaussian", fwhm=4000.0,
                        sampling="gauss_quadrature")
    prog = parse(
        "pulse area=pi/2 phase=0\n"
        + "\n".join(f"wait 0.1ms\nacquire p{k}" for k in range(10))
    )
    res = run_program(prog, spec)
    for k in range(10):
        t = (k + 1) * 1e-4
        mag, _ = echo_amplitude(res, f"p{k}")
        assert abs(mag - gaussian_fid_oracle(t, 4000.0)) < 1e-3


def test_quadrature_and_monte_carlo_agree():
    prog = parse("pulse area=pi/2 phase=0\nwait 0.05ms\nacquire a")
    quad = EnsembleSpec(size=256, distribution="gaussian", fwhm=4000.0,
                        sampling="gauss_quadrature")
    mc = EnsembleSpec(size=4096, distribution="gaussian", fwhm=4000.0, seed=12)
    m_quad, _ = echo_amplitude(run_program(prog, quad), "a")
    m_mc, _ = echo_amplitude(run_program(prog, mc), "a")
    # MC standard error of the mean transverse amplitude is below
    # sqrt(1/2N) for unit-magnitude members
    se = math.sqrt(0.5 / 4096)
    assert abs(m_quad - m_mc) < 3 * se


def test_run_is_deterministic_and_seed_sensitive():
    # 700 members, each on its own OU stream
    spec = EnsembleSpec(size=700, distribution="gaussian", fwhm=500.0, seed=4)
    noise = NoiseModel(kind="ornstein_uhlenbeck", sigma=30.0, tau_b=5e-3)
    prog = build_bangbang(BangBangParams(tau1=0.5e-3, tau_c=1e-3, n_cycles=5))
    a = run_program(prog, spec, noise=noise, master_seed=99)
    b = run_program(prog, spec, noise=noise, master_seed=99)
    np.testing.assert_array_equal(a.mean_bloch, b.mean_bloch)
    for sa, sb in zip(a.acquires, b.acquires):
        np.testing.assert_array_equal(sa.mean, sb.mean)
    c = run_program(prog, spec, noise=noise, master_seed=100)
    assert not np.array_equal(a.mean_bloch, c.mean_bloch)


def invariance_run(noise, **kw):
    spec = EnsembleSpec(size=1100, distribution="gaussian", fwhm=500.0, seed=4)
    prog = build_bangbang(
        BangBangParams(tau1=0.5e-3, tau_c=1e-3, n_cycles=6),
        PulseSpec(rabi=50e3),
        acquire_every=2,
    )
    return run_program(prog, spec, noise=noise, master_seed=7, record="events", **kw)


def assert_same_run(a, b):
    np.testing.assert_array_equal(a.mean_bloch, b.mean_bloch)
    for sa, sb in zip(a.acquires, b.acquires):
        np.testing.assert_array_equal(sa.mean, sb.mean)


INVARIANCE_BATHS = (
    NoiseModel(kind="ornstein_uhlenbeck", sigma=30.0, tau_b=2e-3),
    NoiseModel(kind="telegraph", amplitude=40.0, flip_rate=3000.0),
)


def test_run_is_invariant_to_draw_block(monkeypatch):
    default = invariance_run(INVARIANCE_BATHS)
    # 3 intervals or flips per draw: every member refills many times
    monkeypatch.setattr(ensemble, "_DRAW_BLOCK", 3)
    assert_same_run(default, invariance_run(INVARIANCE_BATHS))


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(ensemble, "_MAX_MEMBER_STEPS", 1e6)
    spec = EnsembleSpec(size=1000, distribution="gaussian", fwhm=100.0, seed=1)
    noise = NoiseModel(kind="ornstein_uhlenbeck", sigma=1.0, tau_b=1e-3)
    # 1000 members x 2000 bath intervals = 2e6 > 1e6
    prog = parse("repeat 2000 { wait 0.5ms }\nacquire a")
    with pytest.raises(SimulationBudgetError):
        run_program(prog, spec, noise=noise)


def test_budget_guard_counts_events_before_expanding(monkeypatch):
    # noise-free too: 64 members x 800,000 events = 5.12e7 > 1e6
    spec = EnsembleSpec(size=64, distribution="gaussian", fwhm=100.0, seed=1)
    prog = parse("repeat 200000 { pulse area=pi phase=0; wait 1us; pulse area=-pi phase=0; wait 1us }")

    def unrolled(self):
        raise AssertionError("the budget must be checked before expanding")

    monkeypatch.setattr(PulseProgram, "expand", unrolled)
    monkeypatch.setattr(ensemble, "_MAX_MEMBER_STEPS", 1e6)
    with pytest.raises(SimulationBudgetError):
        run_program(prog, spec)


def test_budget_guard_counts_telegraph_flips(monkeypatch):
    # 1 member x (2 events + 1e12 Hz x 10 ms of expected flips) > 2e9
    spec = EnsembleSpec(size=1, distribution="explicit", detunings=(0.0,))
    noise = NoiseModel(kind="telegraph", amplitude=1.0, flip_rate=1e12)
    prog = parse("wait 10ms\nacquire a")

    def unrolled(self):
        raise AssertionError("the budget must be checked before expanding")

    monkeypatch.setattr(PulseProgram, "expand", unrolled)
    with pytest.raises(SimulationBudgetError, match="telegraph flips"):
        run_program(prog, spec, noise=noise)


# Recorded from the draw scheme before the engine streamed the program:
# mixed OU and telegraph baths, finite pulses, record="events", 1,100
# members.  The engine then summed members in chunks of 512; one weighted
# sum over all members moves the results only in their last bits.
GOLDEN_ROWS = {
    0: [0.0, 0.0, 1.0000000000000044],
    7: [0.0025307554484804103, 0.779232482897078, 0.004750612348061457],
    16: [0.003136159514085763, -0.7523144582124521, -0.000135132329787247],
    32: [0.01762115629227138, -0.7042515704036617, -0.00027964704393539417],
}
GOLDEN_ACQUIRES = [
    (0.004045, [0.0033554619498728498, -0.9687214851136638, -0.00011931102284722685]),
    (0.008084999999999998, [0.011223831069076885, -0.9404222949406748, -9.431741600151851e-05]),
    (0.012125, [0.01465346722973496, -0.9029785889030691, -0.00027964704393539417]),
]


def test_run_matches_recorded_draws():
    res = invariance_run(INVARIANCE_BATHS)
    assert res.mean_bloch.shape == (33, 3)
    assert res.duration == pytest.approx(0.012625, rel=1e-12)
    for row, expect in GOLDEN_ROWS.items():
        np.testing.assert_allclose(res.mean_bloch[row], expect, rtol=1e-12, atol=0)
    assert [a.label for a in res.acquires] == ["echo"] * 3
    for acq, (time, expect) in zip(res.acquires, GOLDEN_ACQUIRES):
        assert acq.time == pytest.approx(time, rel=1e-12)
        np.testing.assert_allclose(acq.mean, expect, rtol=1e-12, atol=0)


def test_stacked_initial_states_match_single_runs():
    # one run carries four states through the same draws and pulse matrices
    states = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    kw = dict(relax=RelaxationParams(t1=0.05, t2=0.04))
    stacked = invariance_run(INVARIANCE_BATHS, initial_state=states, **kw)
    assert stacked.mean_bloch.shape == (33, 4, 3)
    assert [a.mean.shape for a in stacked.acquires] == [(4, 3)] * 3
    for j, state in enumerate(states):
        single = invariance_run(INVARIANCE_BATHS, initial_state=state, **kw)
        np.testing.assert_array_equal(stacked.sample_times, single.sample_times)
        np.testing.assert_allclose(stacked.mean_bloch[:, j], single.mean_bloch, rtol=1e-12, atol=0)
        for sa, sb in zip(stacked.acquires, single.acquires):
            assert (sa.label, sa.time) == (sb.label, sb.time)
            np.testing.assert_allclose(sa.mean[j], sb.mean, rtol=1e-12, atol=0)


def test_budget_guard_counts_stacked_states(monkeypatch):
    monkeypatch.setattr(ensemble, "_MAX_MEMBER_STEPS", 100)
    spec = EnsembleSpec(size=10, distribution="gaussian", fwhm=100.0, seed=1)
    prog = parse("repeat 10 { wait 1us }")
    run_program(prog, spec, initial_state=np.eye(3)[:1])
    with pytest.raises(SimulationBudgetError, match="2 states"):
        run_program(prog, spec, initial_state=np.eye(3)[:2])


def test_run_memory_does_not_grow_with_repeats():
    spec = EnsembleSpec(size=1, distribution="explicit", detunings=(0.0,))
    noise = NoiseModel(kind="ornstein_uhlenbeck", sigma=10.0, tau_b=1e-3)

    def peak(n):
        prog = parse(f"repeat {n} {{ wait 1us }}\nacquire a")
        tracemalloc.start()
        try:
            run_program(prog, spec, noise=noise)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)  # first-use allocations
    # an unrolled program makes the peak grow about 4x from 2,000 to 8,000
    assert peak(8000) < 1.5 * peak(2000)


def test_ou_fid_through_simulator_matches_analytic():
    sigma, tau_b = 40.0, 0.01
    noise = NoiseModel(kind="ornstein_uhlenbeck", sigma=sigma, tau_b=tau_b)
    n = 3000
    spec = EnsembleSpec(size=n, distribution="explicit", detunings=(0.0,) * n)
    prog = parse(
        "pulse area=pi/2 phase=0\n"
        + "\n".join(f"wait 2ms\nacquire p{k}" for k in range(5))
    )
    res = run_program(prog, spec, noise=noise, master_seed=8)
    for k in range(5):
        t = 2e-3 * (k + 1)
        mag, _ = echo_amplitude(res, f"p{k}")
        expect = float(ou_fid_coherence(t, sigma, tau_b))
        s_phase = -2.0 * math.log(expect)
        var_cos = (1 + math.exp(-2 * s_phase)) / 2 - math.exp(-s_phase)
        se = math.sqrt(max(var_cos, 1e-30) / n)
        bias = (1 - math.exp(-2 * s_phase)) / 2 / max(expect, 1e-12) / n
        assert abs(mag - expect) < 3 * se + bias


def test_two_ou_components_multiply():
    # independent baths dephase independently: the decay is the product
    # of the two analytic factors
    n = 3000
    spec = EnsembleSpec(size=n, distribution="explicit", detunings=(0.0,) * n)
    n1 = NoiseModel(kind="ornstein_uhlenbeck", sigma=30.0, tau_b=5e-3)
    n2 = NoiseModel(kind="ornstein_uhlenbeck", sigma=45.0, tau_b=1.5e-3)
    prog = parse("pulse area=pi/2 phase=0\nwait 4ms\nacquire a")
    res = run_program(prog, spec, noise=(n1, n2), master_seed=21)
    mag, _ = echo_amplitude(res, "a")
    expect = float(ou_fid_coherence(4e-3, 30.0, 5e-3) * ou_fid_coherence(4e-3, 45.0, 1.5e-3))
    assert abs(mag - expect) < 4 * math.sqrt(0.5 / n)


def test_telegraph_noise_dephases():
    # exact random-telegraph dephasing oracle: with flip rate g and
    # coupling w = 2 pi A, D(t) = e^(-g t)[cosh(k t) + (g/k) sinh(k t)],
    # k = sqrt(g^2 - w^2)
    n = 2000
    amp_hz, flip = 100.0, 2000.0
    spec = EnsembleSpec(size=n, distribution="explicit", detunings=(0.0,) * n)
    noise = NoiseModel(kind="telegraph", amplitude=amp_hz, flip_rate=flip)
    prog = parse("pulse area=pi/2 phase=0\nwait 5ms\nacquire a")
    res = run_program(prog, spec, noise=noise, master_seed=31)
    mag, _ = echo_amplitude(res, "a")
    w = 2 * math.pi * amp_hz
    k = math.sqrt(flip**2 - w**2)
    t = 5e-3
    expect = math.exp(-flip * t) * (math.cosh(k * t) + (flip / k) * math.sinh(k * t))
    se = math.sqrt(0.5 / n)
    assert abs(mag - expect) < 3 * se


def test_echo_amplitude_semantics():
    prog = parse("pulse area=pi/2 phase=0\nacquire a")
    spec = EnsembleSpec(size=1, distribution="explicit", detunings=(0.0,))
    res = run_program(prog, spec)
    mag, phase = echo_amplitude(res, "a")
    assert mag == pytest.approx(1.0)
    assert phase == pytest.approx(-math.pi / 2)  # pi/2 about x sends +z to -y
    with pytest.raises(KeyError):
        echo_amplitude(res, "nope")


def test_echo_amplitude_of_longitudinal_mean_is_zero():
    prog = parse("wait 1ms\nacquire a")
    spec = EnsembleSpec(size=1, distribution="explicit", detunings=(0.0,))
    res = run_program(prog, spec, initial_state=(0, 0, 0.5))
    mag, _ = echo_amplitude(res, "a")
    assert mag == pytest.approx(0.0, abs=1e-15)


def test_hahn_homogeneous_t2_amplitude():
    spec = EnsembleSpec(size=64, distribution="gaussian", fwhm=4000.0,
                        sampling="gauss_quadrature")
    relax = RelaxationParams(t2=0.5)
    res = run_program(build_hahn_echo(0.2), spec, relax=relax)
    mag, _ = echo_amplitude(res, "echo")
    assert mag == pytest.approx(math.exp(-0.4 / 0.5), abs=1e-9)


def test_decoupling_beats_two_pulse_echo_in_fast_pulsing_regime():
    # with omega_c tau_c = tau_c/tau_b = 0.04 <= 0.1, the decoupled echo
    # at t = 5 tau_b must beat the two-pulse echo at the same total time
    tau_b = 50e-3
    sigma = calibrate_ou_sigma(tau_b)
    noise = NoiseModel(kind="ornstein_uhlenbeck", sigma=sigma, tau_b=tau_b)
    n = 512
    spec = EnsembleSpec(size=n, distribution="explicit", detunings=(0.0,) * n)
    total = 5 * tau_b
    tau_c = 2e-3
    n_cycles = int(round(total / (2 * tau_c)))
    bb = build_bangbang(BangBangParams(tau1=1e-3, tau_c=tau_c, n_cycles=n_cycles))
    hahn = build_hahn_echo(total / 2)
    bb_mag, _ = echo_amplitude(run_program(bb, spec, noise=noise, master_seed=5), "echo")
    hahn_mag, _ = echo_amplitude(run_program(hahn, spec, noise=noise, master_seed=5), "echo")
    assert bb_mag > hahn_mag
    # and the two-pulse value itself should sit near the analytic law
    assert hahn_mag == pytest.approx(float(ou_hahn_coherence(total, sigma, tau_b)), abs=0.1)


def filter_function_coherence(edges, signs, sigma, tau_b):
    """exp(-1/2 (2 pi sigma)^2 int int y(t) y(s) e^(-|t-s|/tau_b)) for a
    switching function y = signs[j] on [edges[j], edges[j+1]]."""
    edges = np.asarray(edges, dtype=float)
    signs = np.asarray(signs, dtype=float)
    length = np.diff(edges)
    g = -np.expm1(-length / tau_b)
    # same segment: 2 tau_b^2 (L/tau_b - 1 + e^(-L/tau_b))
    total = np.sum(2 * tau_b**2 * (length / tau_b - g))
    # segment j before segment l: tau_b^2 g_j g_l e^(-(edges[l] - edges[j+1])/tau_b)
    gap = np.clip(edges[None, :-1] - edges[1:, None], 0.0, None)
    pairs = np.outer(signs * g, signs * g) * np.exp(-gap / tau_b)
    total += 2 * tau_b**2 * np.triu(pairs, 1).sum()
    return math.exp(-0.5 * (2 * math.pi * sigma) ** 2 * total)


def test_filter_function_reproduces_the_fid_and_hahn_laws():
    sigma, tau_b, t = 40.0, 3e-3, 5e-3
    fid = filter_function_coherence([0, t], [1], sigma, tau_b)
    assert fid == pytest.approx(float(ou_fid_coherence(t, sigma, tau_b)), rel=1e-12)
    hahn = filter_function_coherence([0, t / 2, t], [1, -1], sigma, tau_b)
    assert hahn == pytest.approx(float(ou_hahn_coherence(t, sigma, tau_b)), rel=1e-12)


def test_bangbang_matches_filter_function_oracle():
    # zero-detuning members under a hard-pulse train with tau_c/tau_b = 1;
    # each pi pulse flips the switching function, and the ideal echo lies
    # along -y, so -my is the mean of cos(phase)
    sigma, tau_b = 80.0, 2e-3
    tau1, tau_c, n_cycles, every = 1e-3, 2e-3, 8, 2
    noise = NoiseModel(kind="ornstein_uhlenbeck", sigma=sigma, tau_b=tau_b)
    n = 4000
    spec = EnsembleSpec(size=n, distribution="explicit", detunings=(0.0,) * n)
    prog = build_bangbang(
        BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=n_cycles), acquire_every=every
    )
    res = run_program(prog, spec, noise=noise, master_seed=23)
    assert len(res.acquires) == n_cycles // every
    for c, acq in zip(range(every, n_cycles + 1, every), res.acquires):
        edges = [0.0] + [tau1 + k * tau_c for k in range(2 * c)] + [2 * c * tau_c]
        assert acq.time == pytest.approx(edges[-1], abs=1e-12)
        expect = filter_function_coherence(edges, [(-1) ** j for j in range(2 * c + 1)],
                                           sigma, tau_b)
        var_phase = -2.0 * math.log(expect)
        var_cos = (1 + math.exp(-2 * var_phase)) / 2 - math.exp(-var_phase)
        assert abs(-acq.mean[1] - expect) < 3 * math.sqrt(var_cos / n)


@pytest.mark.parametrize("size", [64, 1100])
def test_bangbang_against_brute_force_rotation_oracle(size):
    # explicit members, finite pulses; oracle composes scipy Rotation
    # matrices directly -- an independent path through the same physics.
    rng = np.random.default_rng(64)
    dets = rng.normal(0.0, 4000.0 * SIGMA_FROM_FWHM, size)
    spec = EnsembleSpec(size=size, distribution="explicit", detunings=tuple(dets))
    rabi = 100e3
    tau1, tau_c, n_cycles = 1.2e-3, 2e-3, 50
    prog = build_bangbang(
        BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=n_cycles),
        PulseSpec(rabi=rabi),
        acquire_every=n_cycles,
    )
    res = run_program(prog, spec, initial_state=(0.0, 0.0, 1.0))

    # one rotation per member, applied member by member to its own vector
    def z_rot(angle):
        return Rotation.from_rotvec(np.outer(angle, [0, 0, 1]))

    def pulse_rot(phase, area):
        duration = area / (2 * math.pi * rabi)
        # axis (rabi cos, rabi sin, det) / omega, angle 2 pi omega duration
        axis = np.column_stack([
            np.full(size, rabi * math.cos(phase)), np.full(size, rabi * math.sin(phase)), dets
        ])
        return Rotation.from_rotvec(axis * 2 * math.pi * duration)

    v = pulse_rot(0.0, math.pi / 2).apply(np.tile([0.0, 0.0, 1.0], (size, 1)))
    v = z_rot(2 * math.pi * dets * tau1).apply(v)
    for k in range(n_cycles):
        v = pulse_rot(0.0, math.pi).apply(v)
        v = z_rot(2 * math.pi * dets * tau_c).apply(v)
        v = pulse_rot(math.pi, math.pi).apply(v)
        if k < n_cycles - 1:
            v = z_rot(2 * math.pi * dets * tau_c).apply(v)
        else:
            v = z_rot(2 * math.pi * dets * (tau_c - tau1)).apply(v)
    oracle_mean = np.mean(v, axis=0)
    np.testing.assert_allclose(res.acquires[-1].mean, oracle_mean, atol=1e-9)


def test_result_exports():
    prog = parse("pulse area=pi/2 phase=0\nwait 1ms\nacquire a")
    spec = EnsembleSpec(size=2, distribution="explicit", detunings=(0.0, 100.0))
    res = run_program(prog, spec, record="events")
    csv = result_to_csv(res)
    assert csv.splitlines()[0] == "time_s,mx,my,mz"
    assert len(csv.splitlines()) == 1 + len(res.sample_times)
    doc = json.loads(result_to_json(res, config={"note": 1}))
    assert doc["config"] == {"note": 1}
    assert doc["acquires"][0]["label"] == "a"
    assert 0 <= doc["acquires"][0]["magnitude"] <= 1 + 1e-9


def test_acquire_series_ordering():
    prog = build_bangbang(BangBangParams(tau1=1e-3, tau_c=2e-3, n_cycles=6), acquire_every=2)
    spec = EnsembleSpec(size=1, distribution="explicit", detunings=(300.0,))
    res = run_program(prog, spec)
    t, mag = acquire_series(res, "echo")
    np.testing.assert_allclose(t, [2 * 2 * 2e-3, 2 * 4 * 2e-3, 2 * 6 * 2e-3], atol=1e-12)
    assert np.all(mag > 1 - 1e-9)
