"""Ensemble sampling, bath trajectories, and program-run contracts."""

import json
import math
import tracemalloc
from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from blochdd import ensemble
from blochdd.bloch import RelaxationParams, finite_pulse_matrix
from blochdd.ensemble import (
    EnsembleSpec,
    NO_NOISE,
    NoiseModel,
    SimulationBudgetError,
    acquire_series,
    calibrate_ou_sigma,
    ou_fid_coherence,
    ou_hahn_coherence,
    result_to_csv,
    result_to_json,
    run_program,
    sample_detunings,
)
from blochdd.sequences import (
    Acquire,
    BangBangParams,
    PulseProgram,
    PulseSpec,
    Wait,
    build_bangbang,
    build_hahn_echo,
    parse,
)

SIGMA_FROM_FWHM = 1 / 2.3548200450309493


def acquire_table(res):
    """(labels, times, means) of the acquire rows of a run's table."""
    rows = [i for i, label in enumerate(res.sample_labels) if label is not None]
    return [res.sample_labels[i] for i in rows], res.sample_times[rows], res.mean_bloch[rows]


def echo(res, label):
    """Magnitude of the mean transverse vector at the last acquire of a label."""
    return acquire_series(res, label)[1][-1]


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


def ou_bath(x0, sigma, tau_b, rngs=()):
    """An OU bath of ``len(x0)`` members at values ``x0``, drawing from ``rngs``."""
    bath = ensemble._OUBath(NoiseModel(kind="ornstein_uhlenbeck", sigma=sigma, tau_b=tau_b), list(rngs))
    bath.x = np.array(x0, dtype=float)
    return bath


def interval_factors(lengths, sigma, tau_b):
    """``(5, B, 1)`` factors of one OU step per interval, as :meth:`_OUBath.steps` takes them."""
    return np.array([ensemble._ou_factors(h, sigma, tau_b) for h in lengths]).T[:, :, None]


@pytest.mark.parametrize("r", [1e-9, 1e-3, 1.0, 50.0])
def test_ou_interval_draw_matches_closed_form(r):
    # one exact OU interval from a fixed start: the sample mean and
    # covariance of (x_h, integral) against the bivariate Gaussian
    sigma, tau_b, x0, n = 25.0, 4e-3, 17.0, 200_000
    z = np.random.default_rng(11).standard_normal((n, 2, 2))
    # the value after the first interval is the start of the second
    factors = interval_factors([r * tau_b] * 2, sigma, tau_b)
    starts, integrals = ou_bath(np.full(n, x0), sigma, tau_b).steps(factors, z)
    x, s = starts[1], integrals[0]
    mx, ms, vx, vs, cov = ou_interval_moments_exact(r, sigma, tau_b, x0)
    assert vx > 0 and vs > 0
    assert abs(x.mean() - mx) < 3 * math.sqrt(vx / n)
    assert abs(s.mean() - ms) < 3 * math.sqrt(vs / n)
    assert abs(x.var() - vx) < 3 * vx * math.sqrt(2.0 / n)
    assert abs(s.var() - vs) < 3 * vs * math.sqrt(2.0 / n)
    sample_cov = np.mean((x - x.mean()) * (s - s.mean()))
    assert abs(sample_cov - cov) < 3 * math.sqrt((vx * vs + cov**2) / n)


# interval lengths h = r tau_b, mixed; e^-800 underflows to 0
OU_RATIOS = (1e-9, 1e-3, 1.0, 50.0, 800.0)


def ou_chain_inputs():
    """``(sigma, tau_b, lengths, make)``: 150 mixed interval lengths, and
    ``make()`` a new bath of 9 members, each with its own seeded stream."""
    sigma, tau_b, m = 25.0, 4e-3, 9
    rng = np.random.default_rng(8)
    lengths = rng.choice(OU_RATIOS, size=150) * tau_b
    x0 = sigma * rng.standard_normal(m)
    return sigma, tau_b, lengths, lambda: ou_bath(x0, sigma, tau_b, [np.random.default_rng([8, i]) for i in range(m)])


def ou_blocks(bath, lengths, cuts=()):
    """``(starts, integrals)`` of the event path's blocks of ``lengths``, cut at ``cuts``."""
    parts = [bath.block(lengths[lo:hi], None) for lo, hi in zip((0, *cuts), (*cuts, len(lengths)))]
    return [np.concatenate(values) for values in zip(*parts)]


def test_ou_blocks_match_the_sequential_recursion():
    sigma, tau_b, lengths, make = ou_chain_inputs()
    assert set(np.round(lengths / tau_b, 12)) == set(OU_RATIOS)
    bath = make()
    x, z = bath.x, make().normals(len(lengths))  # the normals the bath will draw
    starts, integrals = ou_blocks(bath, lengths)
    # one interval at a time: x_{k+1} = a_k x_k + l11_k z_k
    for k, h in enumerate(lengths):
        a, b, l11, l21, l22 = ensemble._ou_factors(h, sigma, tau_b)
        np.testing.assert_array_equal(starts[k], x)
        np.testing.assert_array_equal(integrals[k], b * x + l21 * z[:, k, 0] + l22 * z[:, k, 1])
        x = a * x + l11 * z[:, k, 0]
    np.testing.assert_array_equal(bath.x, x)


@pytest.mark.parametrize("cuts", [(1,), (31, 32, 33), (20, 84, 149), tuple(range(1, 150))],
                         ids=["1", "31-33", "20-84-149", "each"])
def test_ou_values_do_not_depend_on_the_blocks(cuts):
    sigma, tau_b, lengths, make = ou_chain_inputs()
    whole = ou_blocks(make(), lengths)
    parts = ou_blocks(make(), lengths, cuts)
    np.testing.assert_array_equal(parts[0], whole[0])
    np.testing.assert_array_equal(parts[1], whole[1])


@pytest.mark.parametrize("k", [1, 31, 32, 33, 70])
def test_ou_steps_take_x_from_the_event_path_and_give_it_back(k):
    # a lowered body under an OU bath steps from the event path's x and hands
    # its own back: interval k stepped as a span gives the event path's values
    sigma, tau_b, lengths, make = ou_chain_inputs()
    whole = ou_blocks(make(), lengths)
    bath = make()
    ou_blocks(bath, lengths[:k])
    stepped = bath.steps(interval_factors(lengths[k:k + 1], sigma, tau_b), bath.normals(1))
    rest = ou_blocks(bath, lengths[k + 1:])
    for part, values in zip((stepped, rest), ((w[k:k + 1] for w in whole), (w[k + 1:] for w in whole))):
        for got, want in zip(part, values):
            np.testing.assert_array_equal(got, want)


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


# 2**128 + 5 has five 32-bit words, more than the seed pool's four
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**128 + 5])
def test_stream_seeds_match_the_spawned_children(seed):
    # each row is the PCG64 seed numpy's spawned child would give
    big = 2**16
    seeds = {n: ensemble._stream_seeds(seed, n) for n in (1, 3, big)}
    for n, rows in ((1, range(1)), (3, range(3)), (big, (0, 1, 2, 3, 40_000, big - 1))):
        assert seeds[n].shape == (n, 4) and seeds[n].dtype == np.uint64
        children = np.random.SeedSequence(seed).spawn(n)
        for i in rows:
            np.testing.assert_array_equal(seeds[n][i], children[i].generate_state(4, np.uint64))
    # member i's row does not depend on the member count
    np.testing.assert_array_equal(seeds[big][:3], seeds[3])
    np.testing.assert_array_equal(seeds[3][:1], seeds[1])


def test_bath_streams_start_where_the_spawned_children_do(monkeypatch):
    # member i's bath starts on the PCG64 stream of
    # SeedSequence(master_seed).spawn(n)[i]
    size, master_seed = 5, 2**40 + 7
    given, init = [], ensemble._TelegraphBath.__init__

    def recorded_init(self, model, rngs):
        given.append([rng.bit_generator.state for rng in rngs])
        init(self, model, rngs)

    monkeypatch.setattr(ensemble._TelegraphBath, "__init__", recorded_init)
    spec = EnsembleSpec(size=size, distribution="gaussian", fwhm=500.0, seed=1)
    run_program(parse("wait 1ms; acquire a"), spec, noise=TELEGRAPH, master_seed=master_seed)
    (states,) = given
    for state, child in zip(states, np.random.SeedSequence(master_seed).spawn(size), strict=True):
        old = np.random.Generator(np.random.PCG64(child))
        assert state == old.bit_generator.state
        new = np.random.Generator(np.random.PCG64(0))
        new.bit_generator.state = state
        assert new.random() == old.random() and new.standard_exponential() == old.standard_exponential()


def test_telegraph_bath_starts_from_its_streams_in_order():
    # draw scheme v2 at the bath's start: each stream's first random() is
    # the sign (below 0.5: +1), and its next exponentials g0, g1 set the
    # first flip at g0 / rate and the second at g0 / rate + g1 / rate
    rate, size = 30.0, 7
    model = NoiseModel(kind="telegraph", amplitude=5.0, flip_rate=rate)
    bath = ensemble._TelegraphBath(model, [np.random.default_rng(s) for s in range(size)])
    signs, first, second = [], [], []
    for s in range(size):
        stream = np.random.default_rng(s)
        signs.append(1.0 if stream.random() < 0.5 else -1.0)
        g0, g1 = stream.standard_exponential(), stream.standard_exponential()
        first.append(g0 / rate)
        second.append(g0 / rate + g1 / rate)
    assert bath.sign.tolist() == signs and 0 < signs.count(1.0) < size
    members, times, before = bath.flips(max(second))
    for i in range(size):
        mine = np.flatnonzero(members == i)
        assert times[mine[:2]].tolist() == [first[i], second[i]]
        assert before[mine[:2]].tolist() == [signs[i], -signs[i]]


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="ornstein_uhlenbeck", sigma=1.0, tau_b=0.0)
    with pytest.raises(ValueError):
        NoiseModel(kind="telegraph", amplitude=1.0, flip_rate=0.0)


ONE_MODEL = NoiseModel(kind="telegraph", amplitude=1.0, flip_rate=10.0)


@pytest.mark.parametrize("noise, name", [((ONE_MODEL,), "tuple"), ((), "tuple"), ([ONE_MODEL], "list")],
                         ids=["tuple", "empty-tuple", "list"])
def test_run_program_takes_one_noise_model(noise, name):
    # a run has one bath or none: a sequence of models is not summed
    spec = EnsembleSpec(size=2, distribution="explicit", detunings=(0.0, 1.0))
    with pytest.raises(TypeError, match=f"NoiseModel or None, got {name}$"):
        run_program(parse("wait 1ms; acquire a"), spec, noise=noise)


# ---------------------------------------------------------------------------
# program runs
# ---------------------------------------------------------------------------

def test_hahn_refocusing_over_gaussian_line():
    spec = EnsembleSpec(size=128, distribution="gaussian", fwhm=4000.0,
                        sampling="gauss_quadrature")
    for tau in (1e-3, 10e-3, 100e-3):
        res = run_program(build_hahn_echo(tau), spec)
        mag = echo(res, "echo")
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
        mag = echo(res, f"p{k}")
        assert abs(mag - gaussian_fid_oracle(t, 4000.0)) < 1e-3


def test_quadrature_and_monte_carlo_agree():
    prog = parse("pulse area=pi/2 phase=0\nwait 0.05ms\nacquire a")
    quad = EnsembleSpec(size=256, distribution="gaussian", fwhm=4000.0,
                        sampling="gauss_quadrature")
    mc = EnsembleSpec(size=4096, distribution="gaussian", fwhm=4000.0, seed=12)
    m_quad = echo(run_program(prog, quad), "a")
    m_mc = echo(run_program(prog, mc), "a")
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
    assert a.sample_labels == b.sample_labels  # so the acquire means are equal too
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
    assert a.sample_labels == b.sample_labels  # so the acquire means are equal too


OU = NoiseModel(kind="ornstein_uhlenbeck", sigma=30.0, tau_b=2e-3)
TELEGRAPH = NoiseModel(kind="telegraph", amplitude=40.0, flip_rate=3000.0)


# an OU bath builds each finite pulse's matrices at every use; a telegraph
# bath reads them from the run's pulse table
@pytest.mark.parametrize("noise", [TELEGRAPH, OU], ids=["telegraph", "ou"])
def test_run_is_invariant_to_draw_block(monkeypatch, noise):
    default = invariance_run(noise)
    # 3 intervals or flips per draw: every member refills many times
    monkeypatch.setattr(ensemble, "_DRAW_BLOCK", 3)
    assert_same_run(default, invariance_run(noise))


@pytest.mark.parametrize("noise", [None, TELEGRAPH], ids=["none", "telegraph"])
def test_pulse_table_matches_per_pulse_build(monkeypatch, noise):
    # with no room for a table every finite pulse builds its own matrices
    states = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    tabled = invariance_run(noise, initial_state=states)
    monkeypatch.setattr(ensemble, "_PULSE_TABLE_BYTES", 0)
    built = invariance_run(noise, initial_state=states)
    assert tabled.mean_bloch.shape == (33, 3, 3)
    np.testing.assert_array_equal(tabled.mean_bloch, built.mean_bloch)
    assert tabled.sample_labels == built.sample_labels


ONE_PI = "pulse area=pi phase={}".format


def TWO_HALF_PI(phase):
    return f"pulse area=pi/2 phase={phase}; pulse area=pi/2 phase={phase}"


def hard_train_run(pi, record, mid="", noise=TELEGRAPH):
    # hard pulses only, acquires inside the repeats; ``mid`` sits between them
    cycle = f"{pi(0)}; wait 1ms; {pi(180)}; wait 0.7ms; acquire echo; wait 0.3ms"
    prog = parse(f"pulse area=pi/2 phase=0\nwait 0.3ms\nrepeat 4 {{ {cycle} }}\n{mid}\n"
                 f"repeat 3 {{ {cycle} }}")
    spec = EnsembleSpec(size=300, distribution="gaussian", fwhm=500.0, seed=4)
    return run_program(prog, spec, noise=noise, relax=RelaxationParams(t2=0.02),
                       master_seed=7, record=record)


HARD_TRAIN_CASES = [(record, mid) for record in ("events", "acquires")
                    for mid in ("", "pulse area=pi/2 phase=90")]


@pytest.mark.parametrize("record", ["events", "acquires"])
def test_no_noise_model_is_no_bath(record):
    # NO_NOISE and None both run with no bath, so the two runs are the same
    unset = hard_train_run(ONE_PI, record, noise=None)
    assert_same_run(unset, hard_train_run(ONE_PI, record, noise=NO_NOISE))
    assert not np.array_equal(unset.mean_bloch, hard_train_run(ONE_PI, record).mean_bloch)


@pytest.mark.parametrize("record, mid", HARD_TRAIN_CASES)
def test_hard_pulse_run_is_invariant_to_draw_block(monkeypatch, record, mid):
    # the pi pulses stay in the toggling frame: phases carried across blocks;
    # under an OU bath its x too, between the event path and v3 (the
    # lowered repeats draw by read intervals)
    for noise in (TELEGRAPH, OU):
        monkeypatch.undo()
        default = hard_train_run(ONE_PI, record, mid, noise)
        monkeypatch.setattr(ensemble, "_DRAW_BLOCK", 3)
        assert_same_run(default, hard_train_run(ONE_PI, record, mid, noise))


@pytest.mark.parametrize("record, mid", HARD_TRAIN_CASES)
def test_pi_as_two_half_pi_pulses_matches(record, mid):
    # a pi/2 pulse forms every member's states; the same draws, so the
    # two runs differ only by rounding.  Components that vanish hold
    # ~1e-16 of it (cos(pi/2) is 6e-17), hence the absolute floor.
    lowered = hard_train_run(ONE_PI, record, mid)
    formed = hard_train_run(TWO_HALF_PI, record, mid)
    labels, times, means = acquire_table(lowered)
    formed_labels, formed_times, formed_means = acquire_table(formed)
    assert list(zip(labels, times)) == list(zip(formed_labels, formed_times))
    np.testing.assert_allclose(means, formed_means, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(lowered.mean_bloch[-1], formed.mean_bloch[-1], rtol=1e-12, atol=1e-15)


LOWERING_PROGRAMS = {
    # hard pi trains with acquires inside, and a nested repeat
    "bangbang": "pulse area=pi/2 phase=0; wait 0.2ms; repeat 7 { pulse area=pi phase=0; wait 1ms; "
                "pulse area=pi phase=180; wait 0.6ms; acquire echo; wait 0.4ms }",
    "nested": "pulse area=pi/2 phase=90; repeat 3 { repeat 70 { pulse area=pi phase=0; wait 30us; "
              "pulse area=pi phase=180; wait 30us }; acquire a; wait 7us }; pulse area=pi/3 phase=0; acquire b",
    # an odd pi count: the switching sign alternates between iterations
    "odd": "pulse area=pi/2 phase=0; repeat 301 { wait 0.2ms; pulse area=pi phase=45deg; acquire a }; "
           "wait 0.1ms; acquire b",
    # one lowered repeat after another carries the frame across
    "chained": "pulse area=pi/2 phase=0; repeat 5 { pulse area=pi phase=0; wait 0.1ms; acquire a }; "
               "repeat 4 { wait 0.2ms; pulse area=pi phase=90; wait 0.2ms; acquire b }",
    # no pi pulse: the frame carries a pi pulse from before the repeat
    "no-pi": "pulse area=pi/2 phase=0; pulse area=pi phase=0; repeat 90 { wait 50us; acquire a }; "
             "repeat 4 { }; acquire b",
    # pi at 0 and 30 degrees: the frame turns 60 degrees per iteration
    "rotating": "pulse area=pi/2 phase=0; repeat 13 { pulse area=pi phase=0; wait 0.1ms; acquire a; "
                "pulse area=pi phase=30; wait 0.2ms }; wait 0.1ms; acquire b",
}


@pytest.mark.parametrize("record", ["acquires", "events"])
@pytest.mark.parametrize("noise", [None, TELEGRAPH], ids=["none", "telegraph"])
@pytest.mark.parametrize("name", sorted(LOWERING_PROGRAMS))
def test_lowered_repeats_match_the_event_path(monkeypatch, name, noise, record):
    # the same draws; only the frame angles of the pi pulses are summed in another order
    def run():
        spec = EnsembleSpec(size=50, distribution="gaussian", fwhm=800.0, seed=2)
        return run_program(parse(LOWERING_PROGRAMS[name]), spec, noise=noise, master_seed=3,
                           relax=RelaxationParams(t1=0.4, t2=0.05), record=record,
                           initial_state=np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]))

    lowered = run()
    monkeypatch.setattr(ensemble, "_LOWERED_EVENTS", 0)  # every body event by event
    stepped = run()
    assert lowered.sample_labels == stepped.sample_labels
    np.testing.assert_array_equal(lowered.sample_times, stepped.sample_times)
    assert lowered.duration == stepped.duration
    np.testing.assert_allclose(lowered.mean_bloch, stepped.mean_bloch, rtol=1e-12, atol=1e-15)


# read-free repeats under a telegraph bath: each is one read interval, an
# odd pi count alternating the switching sign from iteration to iteration
READ_FREE_PROGRAMS = {
    "read-free-odd": "pulse area=pi/2 phase=0; repeat 301 { wait 0.2ms; pulse area=pi phase=45deg }; "
                     "wait 0.1ms; acquire b",
    "read-free-even": "pulse area=pi/2 phase=0; wait 0.1ms; repeat 150 { pulse area=pi phase=0; wait 0.3ms; "
                      "pulse area=pi phase=90; wait 0.1ms }; acquire b",
}


def lowered_and_stepped(monkeypatch, program, noise, record="acquires"):
    """One run of ``program`` with its repeats lowered, one event by event."""
    def run():
        spec = EnsembleSpec(size=50, distribution="gaussian", fwhm=800.0, seed=2)
        return run_program(parse(program), spec, noise=noise, master_seed=3,
                           relax=RelaxationParams(t1=0.4, t2=0.05), record=record,
                           initial_state=np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]]))

    lowered = run()
    monkeypatch.setattr(ensemble, "_LOWERED_EVENTS", 0)
    stepped = run()
    monkeypatch.undo()
    assert lowered.sample_labels == stepped.sample_labels
    np.testing.assert_array_equal(lowered.sample_times, stepped.sample_times)
    assert lowered.duration == stepped.duration
    return lowered, stepped


@pytest.mark.parametrize("record", ["acquires", "events"])
@pytest.mark.parametrize("name", sorted(LOWERING_PROGRAMS))
def test_lowered_ou_repeats_keep_the_event_paths_times(monkeypatch, name, record):
    # v3 draws per read interval and the event path per wait, so the means
    # differ; the times are one running sum of the waits on both paths
    lowered_and_stepped(monkeypatch, LOWERING_PROGRAMS[name], OU, record)


@pytest.mark.parametrize("name", sorted(READ_FREE_PROGRAMS))
def test_read_free_telegraph_repeats_match_the_event_path(monkeypatch, name):
    # the flips of 60-120 ms at 3000 flips/s, summed into one interval
    lowered, stepped = lowered_and_stepped(monkeypatch, READ_FREE_PROGRAMS[name], TELEGRAPH)
    np.testing.assert_allclose(lowered.mean_bloch, stepped.mean_bloch, rtol=1e-12, atol=1e-15)


def spy_on_lowered_telegraph(monkeypatch):
    """``{"block": [...], "rows": [...]}``, appended to as runs go: the
    intervals of each dense telegraph block drawn, and the phase rows of
    each settle."""
    seen = {"block": [], "rows": []}
    block, settle = ensemble._TelegraphBath.block, ensemble._Run._settle

    def counted_block(self, lengths, edges):
        seen["block"].append(len(lengths))
        return block(self, lengths, edges)

    def counted_settle(self, ks, hs, *args):
        seen["rows"].append(len(hs))
        return settle(self, ks, hs, *args)

    monkeypatch.setattr(ensemble._TelegraphBath, "block", counted_block)
    monkeypatch.setattr(ensemble._Run, "_settle", counted_settle)
    return seen


def test_lowered_telegraph_bodies_step_by_read_intervals(monkeypatch):
    # a lowered body sums each member's sparse flips into its read
    # intervals: no dense block, and one phase row per read interval
    seen = spy_on_lowered_telegraph(monkeypatch)
    spec = EnsembleSpec(size=4, distribution="gaussian", fwhm=2000.0, seed=1)
    slow = NoiseModel(kind="telegraph", amplitude=2.0, flip_rate=20.0)
    cycle = "pulse area=pi phase=0; wait 1us; pulse area=-pi phase=0; wait 1us"
    end = run_program(parse(f"repeat 200000 {{ {cycle} }}"), spec, noise=slow, master_seed=3)
    assert end.duration == pytest.approx(0.4, rel=1e-10)  # the running sum of 400,000 waits
    assert sum(seen["rows"]) == 1 and seen["block"] == []  # one read interval, no dense block
    seen["rows"].clear()
    res = run_program(parse(LOWERING_PROGRAMS["bangbang"]), spec, noise=TELEGRAPH, master_seed=3)
    assert sum(seen["rows"]) == 1 + 7 + 1  # the wait before the repeat, 7 reads and the wait after the last
    assert len(res.sample_times) == 7 + 2 and seen["block"] == [1]  # the wait before the repeat
    seen["block"].clear()
    for name in READ_FREE_PROGRAMS:
        run_program(parse(READ_FREE_PROGRAMS[name]), spec, noise=TELEGRAPH, master_seed=3)
    assert seen["block"] == [1, 1]  # each program's one wait outside its repeat
    monkeypatch.setattr(ensemble, "_LOWERED_EVENTS", 0)
    run_program(parse(f"repeat 3 {{ {cycle} }}"), spec, noise=slow, master_seed=3)
    assert seen["block"][-1] == 6  # event by event, the bath is drawn dense


@pytest.mark.parametrize("noise", [None, TELEGRAPH, OU], ids=["none", "telegraph", "ou"])
def test_lowered_runs_are_invariant_to_the_time_chunk(monkeypatch, noise):
    # the times are one running sum and each interval's flip terms one sum
    # in time order, however the iterations and intervals are chunked
    program = f"{LOWERING_PROGRAMS['nested']}; {READ_FREE_PROGRAMS['read-free-odd']}"
    spec = EnsembleSpec(size=50, distribution="gaussian", fwhm=800.0, seed=2)

    def run():
        return run_program(parse(program), spec, noise=noise, master_seed=3,
                           relax=RelaxationParams(t1=0.4, t2=0.05))

    default = run()
    for chunk, block in ((1, 256), (5, 2), (2**20, 1)):
        monkeypatch.setattr(ensemble, "_TIME_CHUNK", chunk)
        monkeypatch.setattr(ensemble, "_DRAW_BLOCK", block)
        chunked = run()
        assert_same_run(default, chunked)
        np.testing.assert_array_equal(default.sample_times, chunked.sample_times)
        assert default.duration == chunked.duration


FINITE_PI = "pulse rabi=50kHz duration=10us phase={}".format
COMPILED_PROGRAMS = {
    "pi-pi": f"pulse area=pi/2 phase=0; wait 0.2ms; repeat 40 {{ {FINITE_PI(0)}; wait 0.3ms; "
             f"{FINITE_PI(180)}; wait 0.3ms }}; wait 0.1ms; acquire a",
    # a hard pulse of another area than pi inside the compiled body
    "xy4-hard": f"pulse area=pi/2 phase=30; repeat 30 {{ {FINITE_PI(0)}; wait 0.1ms; {FINITE_PI(90)}; "
                f"wait 0.1ms; pulse area=1.1rad phase=30; {FINITE_PI(0)}; wait 0.1ms; {FINITE_PI(90)}; "
                "wait 0.1ms }; acquire a",
    # the outer repeat holds an acquire, so it runs event by event and
    # reaches its compiled inner repeat three times
    "nested": f"pulse area=pi/2 phase=90; repeat 3 {{ pulse area=pi phase=0; repeat 25 {{ {FINITE_PI(0)}; "
              f"wait 50us; {FINITE_PI(180)}; wait 50us }}; wait 20us; pulse area=pi phase=180; acquire a; "
              "wait 7us }; acquire b",
    # hard pi pulses alone compile with no bath only; with one they keep _Body
    "hard-pi-pi": "pulse area=pi/2 phase=0; wait 0.2ms; repeat 40 { pulse area=pi phase=0; wait 0.3ms; "
                  "pulse area=-pi phase=0; wait 0.3ms }; wait 0.1ms; acquire a",
}
FOUR_STATES = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])


# the counts of the compiled repeats each program runs
COMPILED_REPEATS = {"pi-pi": [40], "xy4-hard": [30], "nested": [25] * 3, "hard-pi-pi": [40]}
COMPILED_CASES = [
    pytest.param(name, noise, id=f"{name}-{bath_id}")
    for name in sorted(COMPILED_PROGRAMS)
    for noise, bath_id in ((None, "none"), (TELEGRAPH, "telegraph"))
    if noise is None or name != "hard-pi-pi"
]


def compiled_run(name, noise, relax):
    spec = EnsembleSpec(size=50, distribution="gaussian", fwhm=2000.0, seed=2)
    return run_program(parse(COMPILED_PROGRAMS[name]), spec, noise=noise, master_seed=3, relax=relax,
                       initial_state=FOUR_STATES)


def spy_on_compiled_repeats(monkeypatch):
    """``{"repeats": [...], "exact": [...]}``, appended to as runs go: the
    count of each compiled repeat run, and of each block's member-iterations
    built exactly because their bath flips."""
    seen = {"repeats": [], "exact": []}
    cycles, walk = ensemble._Run.cycles, ensemble._Cycle.walk

    def counted_cycles(self, count, body):
        seen["repeats"].append(count)
        return cycles(self, count, body)

    def counted_walk(self, run, det, members=None, *args):
        if members is not None:
            seen["exact"].append(len(members))
        return walk(self, run, det, members, *args)

    monkeypatch.setattr(ensemble._Run, "cycles", counted_cycles)
    monkeypatch.setattr(ensemble._Cycle, "walk", counted_walk)
    return seen


@pytest.mark.parametrize("relax", [RelaxationParams(), RelaxationParams(t1=0.4, t2=0.05)], ids=["none", "t1t2"])
@pytest.mark.parametrize("name, noise", COMPILED_CASES)
def test_compiled_repeats_match_the_event_path(monkeypatch, name, noise, relax):
    # the same draws and flips; the compiled maps multiply the same
    # rotations in another order, and with no bath the time after a
    # repeat is count x period, not a running sum
    seen = spy_on_compiled_repeats(monkeypatch)
    compiled = compiled_run(name, noise, relax)
    assert seen["repeats"] == COMPILED_REPEATS[name]
    assert sum(seen["exact"]) > 20 if noise else not seen["exact"]  # 3000 flips/s: many iterations flip
    monkeypatch.setattr(ensemble, "_LOWERED_EVENTS", 0)  # every body event by event
    stepped = compiled_run(name, noise, relax)
    assert seen["repeats"] == COMPILED_REPEATS[name]  # nothing more compiled
    assert compiled.sample_labels == stepped.sample_labels
    np.testing.assert_allclose(compiled.sample_times, stepped.sample_times, rtol=1e-12)
    if noise:  # the draws keep the running sum of the intervals
        np.testing.assert_array_equal(compiled.sample_times, stepped.sample_times)
    assert compiled.duration == pytest.approx(parse(COMPILED_PROGRAMS[name]).duration(), rel=1e-12)
    assert compiled.mean_bloch.shape == stepped.mean_bloch.shape == (len(compiled.sample_labels), 4, 3)
    np.testing.assert_allclose(compiled.mean_bloch, stepped.mean_bloch, rtol=1e-12, atol=1e-15)


def test_hard_pi_bodies_compile_with_no_bath_and_no_read(monkeypatch):
    # with no bath and no read a hard pi body is one power of its cycle
    # maps; a bath draw or a read inside keeps it lowered to arrays (_Body)
    seen = spy_on_compiled_repeats(monkeypatch)
    spec = EnsembleSpec(size=4, distribution="gaussian", fwhm=2000.0, seed=1)
    cycle = "pulse area=pi phase=0; wait 1us; pulse area=-pi phase=0; wait 1us"
    end = run_program(parse(f"repeat 200000 {{ {cycle} }}"), spec, initial_state=FOUR_STATES)
    assert seen["repeats"] == [200000]
    # a pi,-pi pair with equal waits is the identity, in the frame exactly
    np.testing.assert_allclose(end.mean_bloch[-1], FOUR_STATES, rtol=0, atol=1e-13)
    assert end.duration == pytest.approx(0.4, rel=1e-15)
    run_program(parse(f"repeat 5 {{ {cycle} }}"), spec, noise=TELEGRAPH)
    run_program(parse(f"repeat 5 {{ {cycle}; acquire a }}"), spec)
    run_program(parse(f"repeat 5 {{ {cycle} }}"), spec, record="events")
    assert seen["repeats"] == [200000]


@pytest.mark.parametrize("name", ["pi-pi", "xy4-hard"])
def test_compiled_run_is_invariant_to_draw_block(monkeypatch, name):
    # blocks of 64 iterations, then of one: every iteration's maps are the same
    relax = RelaxationParams(t1=0.4, t2=0.05)
    seen = spy_on_compiled_repeats(monkeypatch)
    default = compiled_run(name, TELEGRAPH, relax)
    assert seen["repeats"] and seen["exact"]
    for block in (3, 7):
        monkeypatch.setattr(ensemble, "_DRAW_BLOCK", block)
        assert_same_run(default, compiled_run(name, TELEGRAPH, relax))


@pytest.mark.parametrize("name, noise", COMPILED_CASES)
def test_compiled_repeats_match_with_no_map_store(monkeypatch, name, noise):
    # with no room in the store every finite pulse and compiled body builds
    # its maps at each use: elementwise in the detuning, so the same bits
    relax = RelaxationParams(t1=0.4, t2=0.05)
    seen = spy_on_compiled_repeats(monkeypatch)
    stored = compiled_run(name, noise, relax)
    monkeypatch.setattr(ensemble, "_PULSE_TABLE_BYTES", 0)
    built = compiled_run(name, noise, relax)
    assert seen["repeats"] == 2 * COMPILED_REPEATS[name]
    assert_same_run(stored, built)
    np.testing.assert_array_equal(stored.sample_times, built.sample_times)
    assert stored.duration == built.duration


@pytest.mark.parametrize("noise, levels", [(None, 1), (TELEGRAPH, 2)], ids=["none", "telegraph"])
def test_kept_maps_do_not_grow_with_distinct_bodies(monkeypatch, noise, levels):
    # each body holds its own finite pulses, so each has its own maps; the
    # store keeps two of them, and the others are built at each use
    spec = EnsembleSpec(size=2000, distribution="gaussian", fwhm=2000.0, seed=1)
    monkeypatch.setattr(ensemble, "_PULSE_TABLE_BYTES", 2 * 72 * 2000 * levels)

    def peak(n):
        prog = parse("; ".join(f"repeat 2 {{ {FINITE_PI(j)}; wait 20us; {FINITE_PI(j + 180)}; wait 20us }}"
                               for j in range(n)))
        tracemalloc.start()
        try:
            run_program(prog, spec, noise=noise, master_seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-use allocations
    # kept for the run, the maps of 36 more bodies would take 5.2 MB (10.4 MB
    # with the telegraph bath's two levels)
    assert peak(40) < peak(4) + 1e6


def store_walks(monkeypatch, spec):
    """``{phase: [built at the levels?, ...]}``, one entry per map build of
    each finite pulse in a run of a pi,-pi train and a third pulse under a
    telegraph bath."""
    walks, walk = {}, ensemble._Cycle.walk

    def counted_walk(self, run, det, *args):
        walks.setdefault(self.events[0].phase, []).append(det is run.levels)
        return walk(self, run, det, *args)

    monkeypatch.setattr(ensemble._Cycle, "walk", counted_walk)
    # the acquire keeps the repeat on the event path: one lookup per pulse
    third = "pulse rabi=50kHz duration=5us phase=90"
    prog = parse(f"pulse area=pi/2 phase=0; repeat 3 {{ {FINITE_PI(0)}; wait 0.3ms; {FINITE_PI(180)}; "
                 f"wait 0.3ms; {third}; wait 0.1ms; acquire a }}")
    run_program(prog, spec, noise=TELEGRAPH, master_seed=3)
    return walks


# the pi,-pi train's two pulses are built once at the levels, the third at each use
TWO_KEPT = {0.0: [True], math.pi: [True], math.pi / 2: [False] * 3}


def test_the_store_keeps_bodies_while_they_fit_its_bound(monkeypatch):
    # room for two finite pulses' maps at the levels +-A, and no more
    spec = EnsembleSpec(size=50, distribution="gaussian", fwhm=2000.0, seed=2)
    monkeypatch.setattr(ensemble, "_PULSE_TABLE_BYTES", 72 * 2 * 2 * spec.size)
    assert store_walks(monkeypatch, spec) == TWO_KEPT


def test_the_store_keeps_two_bodies_at_the_most_levels_a_run_holds(monkeypatch):
    # 2**16 members under one telegraph bath: two bodies fit the shipped bound, three do not
    monkeypatch.setattr(ensemble, "_DRAW_BLOCK", 8)  # the bath's first gaps: 4 MB, not 134
    spec = EnsembleSpec(size=ensemble._MAX_MEMBER_STATES, distribution="gaussian", fwhm=2000.0, seed=2)
    assert store_walks(monkeypatch, spec) == TWO_KEPT


# the outer body holds 320 bath intervals, more than one draw block
NESTED_LONG = (f"pulse area=pi/2 phase=0; repeat 3 {{ repeat 80 {{ {FINITE_PI(0)}; wait 30us; "
               f"{FINITE_PI(180)}; wait 30us }} }}; wait 0.1ms; acquire a")


@pytest.mark.parametrize("relax", [RelaxationParams(), RelaxationParams(t1=0.4, t2=0.05)], ids=["none", "t1t2"])
def test_bodies_longer_than_a_draw_block_compile_their_inner_repeats(monkeypatch, relax):
    # under a bath a compiled body draws whole iterations, so a body of
    # more intervals than a draw block runs event by event instead
    seen = spy_on_compiled_repeats(monkeypatch)
    drawn, bath = [], ensemble._Run.bath

    def counted_bath(self, lengths, reps=1):
        drawn.append(reps * len(lengths))
        return bath(self, lengths, reps)

    monkeypatch.setattr(ensemble._Run, "bath", counted_bath)
    spec = EnsembleSpec(size=50, distribution="gaussian", fwhm=2000.0, seed=2)

    def run():
        return run_program(parse(NESTED_LONG), spec, noise=TELEGRAPH, master_seed=3, relax=relax,
                           initial_state=FOUR_STATES)

    compiled = run()
    assert seen["repeats"] == [80] * 3 and sum(seen["exact"]) > 20
    assert sum(drawn) == 3 * 320 + 1 and max(drawn) <= ensemble._DRAW_BLOCK
    monkeypatch.setattr(ensemble, "_LOWERED_EVENTS", 0)  # every body event by event
    stepped = run()
    assert compiled.sample_labels == stepped.sample_labels
    np.testing.assert_array_equal(compiled.sample_times, stepped.sample_times)
    np.testing.assert_allclose(compiled.mean_bloch, stepped.mean_bloch, rtol=1e-12, atol=1e-15)


def test_compiled_telegraph_repeats_never_build_dense_draws(monkeypatch):
    # a compiled repeat reads each member's flips sparse; the dense
    # (intervals, members) block serves only the event path
    seen = spy_on_compiled_repeats(monkeypatch)
    blocks, block = [], ensemble._TelegraphBath.block

    def counted_block(self, lengths, edges):
        blocks.append(len(lengths))
        return block(self, lengths, edges)

    monkeypatch.setattr(ensemble._TelegraphBath, "block", counted_block)
    spec = EnsembleSpec(size=50, distribution="gaussian", fwhm=2000.0, seed=2)
    cycle = f"{FINITE_PI(0)}; wait 0.3ms; {FINITE_PI(180)}; wait 0.3ms"
    run_program(parse(f"pulse area=pi/2 phase=0; repeat 300 {{ {cycle} }}"), spec, noise=TELEGRAPH,
                master_seed=3, initial_state=FOUR_STATES)
    assert seen["repeats"] == [300] and sum(seen["exact"]) > 20
    assert blocks == []
    # the same body run event by event draws dense blocks
    monkeypatch.setattr(ensemble, "_LOWERED_EVENTS", 0)
    run_program(parse(f"pulse area=pi/2 phase=0; repeat 3 {{ {cycle} }}"), spec, noise=TELEGRAPH, master_seed=3)
    assert blocks == [12]


# at 20 flips/s a member flips about once in 50 cycles of 1.01 ms
SLOW_TELEGRAPH = NoiseModel(kind="telegraph", amplitude=40.0, flip_rate=20.0)
SLOW_SERIES = ("pulse area=pi/2 phase=0; " + "; ".join(
    f"repeat 400 {{ {FINITE_PI(0)}; wait 0.5ms; pulse area=pi phase=0; wait 0.5ms }}; acquire n{j}"
    for j in range(3)))


def test_flip_free_runs_across_draw_blocks_are_invariant_to_draw_block(monkeypatch):
    # a body of 3 bath intervals: blocks of 85 iterations, then of 1 and 2,
    # so a member's flip-free run spans tens of draw blocks and carries
    # from block to block; each acquire ends a compiled repeat
    seen = spy_on_compiled_repeats(monkeypatch)
    spec = EnsembleSpec(size=50, distribution="gaussian", fwhm=2000.0, seed=2)

    def run():
        return run_program(parse(SLOW_SERIES), spec, noise=SLOW_TELEGRAPH, master_seed=3,
                           relax=RelaxationParams(t1=0.4, t2=0.05), initial_state=FOUR_STATES)

    default = run()
    assert seen["repeats"] == [400] * 3 and 300 < sum(seen["exact"]) < 5000
    for block in (3, 7):
        monkeypatch.setattr(ensemble, "_DRAW_BLOCK", block)
        blocked = run()
        assert_same_run(default, blocked)
        np.testing.assert_array_equal(default.sample_times, blocked.sample_times)


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


# Recorded from draw scheme v2 with one bath: finite pulses, so every
# interval on the event path, record="events", 1,100 members.  Rows
# 0, 7, 16 and 32 of the table, then the three acquires.
GOLDEN = {
    "ou": ({
        0: [0.0, 0.0, 1.0],
        7: [0.0006446873066398626, 0.7881196230819815, 0.0047284346249797365],
        16: [-0.002284112369074868, -0.7840663276097125, -2.2531514127246325e-05],
        32: [0.010482083410532653, -0.7738852907296168, -1.638400763261431e-05],
    }, [
        (0.004045, [0.00051450791912265, -0.9943228001093714, -3.6729760720831854e-05]),
        (0.008084999999999998, [0.006156023691180235, -0.9884615515627017, 8.923295551950627e-06]),
        (0.012125, [0.01157858005235164, -0.9823522730562902, -1.638400763261431e-05]),
    ]),
    "telegraph": ({
        0: [0.0, 0.0, 1.0],
        7: [-0.0019818077802404802, 0.7745385017679003, 0.004702730601894199],
        16: [-0.002405841282146479, -0.7465254589759568, -0.00032407655492149555],
        32: [-0.0204471000445583, -0.7107469627156606, -0.0008413055137015544],
    }, [
        (0.004045, [-0.0015986962996246985, -0.9704049023939075, -0.0001478151788982273]),
        (0.008084999999999998, [-0.010263132772399059, -0.9414196254332926, -0.0005098875643540164]),
        (0.012125, [-0.014976727809151715, -0.9137761549098985, -0.0008413055137015544]),
    ]),
}


@pytest.mark.parametrize("noise, name", [(OU, "ou"), (TELEGRAPH, "telegraph")], ids=["ou", "telegraph"])
def test_run_matches_recorded_draws(noise, name):
    res = invariance_run(noise)
    assert res.mean_bloch.shape == (33, 3)
    assert res.duration == pytest.approx(0.012625, rel=1e-12)
    rows, acquires = GOLDEN[name]
    for row, expect in rows.items():
        np.testing.assert_allclose(res.mean_bloch[row], expect, rtol=1e-12, atol=0)
    labels, times, means = acquire_table(res)
    assert labels == ["echo"] * 3
    for acq_time, mean, (time, expect) in zip(times, means, acquires):
        assert acq_time == pytest.approx(time, rel=1e-12)
        np.testing.assert_allclose(mean, expect, rtol=1e-12, atol=0)


def test_stacked_initial_states_match_single_runs():
    # one run carries four states through the same draws and pulse matrices
    states = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    kw = dict(relax=RelaxationParams(t1=0.05, t2=0.04))
    stacked = invariance_run(OU, initial_state=states, **kw)
    assert stacked.mean_bloch.shape == (33, 4, 3)
    labels, times, means = acquire_table(stacked)
    assert means.shape == (3, 4, 3)
    for j, state in enumerate(states):
        single = invariance_run(OU, initial_state=state, **kw)
        np.testing.assert_array_equal(stacked.sample_times, single.sample_times)
        np.testing.assert_allclose(stacked.mean_bloch[:, j], single.mean_bloch, rtol=1e-12, atol=0)
        single_labels, single_times, single_means = acquire_table(single)
        assert list(zip(labels, times)) == list(zip(single_labels, single_times))
        np.testing.assert_allclose(means[:, j], single_means, rtol=1e-12, atol=0)


def test_budget_guard_counts_stacked_states(monkeypatch):
    # 10 members x 1 state x (10 events + 1) = 110; 2 states make 220
    monkeypatch.setattr(ensemble, "_MAX_MEMBER_STEPS", 110)
    spec = EnsembleSpec(size=10, distribution="gaussian", fwhm=100.0, seed=1)
    prog = parse("repeat 10 { wait 1us }")
    run_program(prog, spec, initial_state=np.eye(3)[:1])
    with pytest.raises(SimulationBudgetError, match="2 states"):
        run_program(prog, spec, initial_state=np.eye(3)[:2])


def no_members(spec):
    raise AssertionError("the budget must be checked before any member is drawn")


def test_budget_guard_charges_each_member_state_one_unit(monkeypatch):
    # an empty program still forms and reads every member-state
    monkeypatch.setattr(ensemble, "_MAX_MEMBER_STEPS", 100)
    prog = parse("")
    run_program(prog, EnsembleSpec(size=50, fwhm=100.0), initial_state=np.eye(3)[:2])
    monkeypatch.setattr(ensemble, "sample_detunings", no_members)
    with pytest.raises(SimulationBudgetError, match="51 members x 2 states"):
        run_program(prog, EnsembleSpec(size=51, fwhm=100.0), initial_state=np.eye(3)[:2])


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


def test_repeat_of_no_wait_is_not_walked_under_z_equilibrium_relaxation():
    # the budget counts no event in these repeats, and no state forms in
    # them: they run lowered, not 10**12 times through the event loop
    spec = EnsembleSpec(size=20, distribution="gaussian", fwhm=300.0, seed=1)
    relax = RelaxationParams(t1=0.05, t2=0.04, z_equilibrium=0.3)
    head = "pulse area=pi/2 phase=0; wait 1ms"
    tail = "wait 1ms; acquire a"
    skipped = run_program(parse(f"{head}; repeat 1000000000000 {{ }}; {tail}"), spec, relax=relax)
    plain = run_program(parse(f"{head}; {tail}"), spec, relax=relax)
    np.testing.assert_array_equal(skipped.mean_bloch, plain.mean_bloch)
    # pi pulses and acquires without a wait run lowered too
    pis = run_program(parse(f"{head}; repeat 3 {{ pulse area=pi phase=0; acquire p }}; {tail}"),
                      spec, relax=relax, record="events")
    unrolled = run_program(parse(f"{head}; {'pulse area=pi phase=0; acquire p; ' * 3}{tail}"),
                           spec, relax=relax, record="events")
    assert pis.sample_labels == unrolled.sample_labels
    np.testing.assert_allclose(pis.mean_bloch, unrolled.mean_bloch, rtol=1e-12, atol=1e-15)


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
        mag = echo(res, f"p{k}")
        expect = float(ou_fid_coherence(t, sigma, tau_b))
        s_phase = -2.0 * math.log(expect)
        var_cos = (1 + math.exp(-2 * s_phase)) / 2 - math.exp(-s_phase)
        se = math.sqrt(max(var_cos, 1e-30) / n)
        bias = (1 - math.exp(-2 * s_phase)) / 2 / max(expect, 1e-12) / n
        assert abs(mag - expect) < 3 * se + bias


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
    mag = echo(res, "a")
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
    assert echo(res, "a") == pytest.approx(1.0)
    (row,) = json.loads(result_to_json(res, config={}))["acquires"]
    assert row["phase_rad"] == pytest.approx(-math.pi / 2)  # pi/2 about x sends +z to -y
    with pytest.raises(KeyError):
        acquire_series(res, "nope")


def test_echo_amplitude_of_longitudinal_mean_is_zero():
    prog = parse("wait 1ms\nacquire a")
    spec = EnsembleSpec(size=1, distribution="explicit", detunings=(0.0,))
    res = run_program(prog, spec, initial_state=(0, 0, 0.5))
    mag = echo(res, "a")
    assert mag == pytest.approx(0.0, abs=1e-15)


def test_hahn_homogeneous_t2_amplitude():
    spec = EnsembleSpec(size=64, distribution="gaussian", fwhm=4000.0,
                        sampling="gauss_quadrature")
    relax = RelaxationParams(t2=0.5)
    res = run_program(build_hahn_echo(0.2), spec, relax=relax)
    mag = echo(res, "echo")
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
    bb_mag = echo(run_program(bb, spec, noise=noise, master_seed=5), "echo")
    hahn_mag = echo(run_program(hahn, spec, noise=noise, master_seed=5), "echo")
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


# the brackets' Taylor series to three terms, r = tau / tau_b
def fid_bracket_series(r):
    return r**2 / 2 - r**3 / 6 + r**4 / 24


def hahn_bracket_series(r):
    return 2 * r**3 / 3 - r**4 / 2 + 7 * r**5 / 30


@pytest.mark.parametrize("r", [1e-4, 1e-6])
def test_ou_laws_keep_their_digits_at_short_times(r):
    # sigma set for a 1/e decay at the short-time laws exp(-w2 t^2 / 2)
    # and exp(-(2/3) w2 tau^3 / tau_b); subtracting the closed forms
    # directly loses the digits that these keep.  r + expm1(-r) still
    # cancels its leading term: its rounding is ~2 eps / r relative.
    tau_b = 5e-3
    t = r * tau_b
    w2_fid, w2_hahn = 2 / t**2, 1.5 * tau_b / t**3
    fid = float(ou_fid_coherence(t, math.sqrt(w2_fid) / (2 * math.pi), tau_b))
    assert fid == pytest.approx(math.exp(-w2_fid * tau_b**2 * fid_bracket_series(r)), rel=1e-15 / r)
    hahn = float(ou_hahn_coherence(2 * t, math.sqrt(w2_hahn) / (2 * math.pi), tau_b))
    assert hahn == pytest.approx(math.exp(-w2_hahn * tau_b**2 * hahn_bracket_series(r)), rel=1e-12)


@pytest.mark.parametrize("r", [1e-2, 1e-4, 1e-6, 1e-8])
def test_ou_fid_coherence_matches_its_bracket_series(r):
    # r - 1 + e^-r summed to ten terms; sigma is set for a 1/e decay, so
    # the coherence carries the bracket's relative error
    bracket = math.fsum((-r) ** n / math.factorial(n) for n in range(2, 12))
    tau_b = 5e-3
    sigma = 1 / (2 * math.pi * tau_b * math.sqrt(bracket))
    expect = math.exp(-((2 * math.pi * sigma) ** 2) * tau_b**2 * bracket)
    assert float(ou_fid_coherence(r * tau_b, sigma, tau_b)) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("tau_b", [1e4, 1e5, 1e6])
def test_calibrate_ou_sigma_at_long_correlation_times(tau_b):
    # the echo at 0.86 s is deep in the cubic law's regime
    bracket = hahn_bracket_series(0.43 / tau_b)
    expect = 1 / (2 * math.pi * tau_b * math.sqrt(bracket))
    assert calibrate_ou_sigma(tau_b) == pytest.approx(expect, rel=1e-12)
    assert float(ou_hahn_coherence(0.86, expect, tau_b)) == pytest.approx(math.exp(-1), rel=1e-12)


def test_bangbang_matches_filter_function_oracle():
    # zero-detuning members under a hard-pulse train with tau_c/tau_b = 1;
    # each pi pulse flips the switching function, and the ideal echo lies
    # along -y, so -my is the mean of cos(phase): z-scores of that mean
    # against the filter-function integral, over 24 seeds
    sigma, tau_b = 80.0, 2e-3
    tau1, tau_c, n_cycles, every = 1e-3, 2e-3, 8, 2
    noise = NoiseModel(kind="ornstein_uhlenbeck", sigma=sigma, tau_b=tau_b)
    n = 4000
    spec = EnsembleSpec(size=n, distribution="explicit", detunings=(0.0,) * n)
    prog = build_bangbang(
        BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=n_cycles), acquire_every=every
    )
    ends, expect = [], []
    for c in range(every, n_cycles + 1, every):
        edges = [0.0] + [tau1 + k * tau_c for k in range(2 * c)] + [2 * c * tau_c]
        ends.append(edges[-1])
        expect.append(filter_function_coherence(edges, [(-1) ** j for j in range(2 * c + 1)], sigma, tau_b))
    expect = np.array(expect)
    var_phase = -2.0 * np.log(expect)
    se = np.sqrt(((1 + np.exp(-2 * var_phase)) / 2 - np.exp(-var_phase)) / n)
    zs = []
    for seed in range(24):
        _, times, means = acquire_table(run_program(prog, spec, noise=noise, master_seed=seed))
        np.testing.assert_allclose(times, ends, rtol=0, atol=1e-12)
        zs.append((-means[:, 1] - expect) / se)
    assert len(expect) == n_cycles // every
    assert abs(np.mean(zs)) < 0.5 and 0.5 <= np.std(zs) <= 2.0


def switching_functions(prog):
    """``(edges, signs)`` of the switching function up to each acquire of a
    program of waits, hard pi pulses and acquires after its first pulse."""
    t, sign, edges, signs, reads = 0.0, 1.0, [0.0], [], []
    for k, ev in enumerate(prog.expand()):
        if isinstance(ev, Wait):
            t += ev.duration
            edges.append(t)
            signs.append(sign)
        elif isinstance(ev, Acquire):
            reads.append((list(edges), list(signs)))
        else:
            assert ev.area == math.pi or k == 0
            sign = -sign if k else sign
    return reads


SLOW_OU = NoiseModel(kind="ornstein_uhlenbeck", sigma=25.0, tau_b=7e-3)
FAST_OU = NoiseModel(kind="ornstein_uhlenbeck", sigma=80.0, tau_b=2e-3)
V3_BANGBANG = BangBangParams(tau1=1e-3, tau_c=2e-3, n_cycles=10)
V3_ORACLE_CASES = {
    "pi,-pi-every-1": (build_bangbang(V3_BANGBANG, acquire_every=1), FAST_OU),
    "pi,-pi-every-5": (build_bangbang(V3_BANGBANG, acquire_every=5), FAST_OU),
    # an odd pi count: the switching sign alternates between iterations
    "odd": (parse(LOWERING_PROGRAMS["odd"]), SLOW_OU),
    # a free decay: x passes from the event path's waits into the repeat and back
    "handover": (parse("pulse area=pi/2 phase=0; wait 0.5ms; wait 1ms; wait 1.5ms; repeat 6 { wait 0.5ms; "
                       "acquire a; wait 0.5ms }; wait 1ms; acquire b"), SLOW_OU),
    # one draw for all 60 iterations, carried into the event path's acquire
    "read-free": (parse("pulse area=pi/2 phase=0; wait 0.5ms; repeat 60 { pulse area=pi phase=0; wait 0.4ms; "
                        "pulse area=-pi phase=0; wait 0.4ms }; wait 0.3ms; acquire a"), FAST_OU),
}


@pytest.mark.parametrize("name,path", [pytest.param(name, path, id=name if path == "lowered" else f"{name}-events")
                                       for path in ("lowered", "events") for name in sorted(V3_ORACLE_CASES)])
def test_ou_lowered_bodies_match_the_filter_function_oracle(monkeypatch, name, path):
    # zero-detuning members, so each read is the noiseless one with its
    # transverse part times the mean of cos(phase): z-scores of that mean
    # against the O(n^2) filter-function integral, over 24 seeds; "events"
    # runs every repeat event by event, draw scheme v2
    if path == "events":
        monkeypatch.setattr(ensemble, "_LOWERED_EVENTS", 0)
    prog, noise = V3_ORACLE_CASES[name]
    n = 64
    spec = EnsembleSpec(size=n, distribution="explicit", detunings=(0.0,) * n)
    expect = np.array([filter_function_coherence(edges, signs, noise.sigma, noise.tau_b)
                       for edges, signs in switching_functions(prog)])
    var_phase = -2.0 * np.log(expect)
    se = np.sqrt(((1 + np.exp(-2 * var_phase)) / 2 - np.exp(-var_phase)) / n)
    _, _, ideal = acquire_table(run_program(prog, spec))
    zs = []
    for seed in range(24):
        _, _, means = acquire_table(run_program(prog, spec, noise=noise, master_seed=seed))
        coherence = np.sum(means[:, :2] * ideal[:, :2], axis=1) / np.sum(ideal[:, :2] ** 2, axis=1)
        zs.append((coherence - expect) / se)
    assert len(expect) > 1 or name == "read-free"
    assert abs(np.mean(zs)) < 0.5 and 0.5 <= np.std(zs) <= 2.0


def test_composed_spans_match_the_filter_function():
    # a bangbang train's waits composed into one span (draw scheme v3):
    # from a stationary start its phase variance is the filter function's
    sigma, tau_b, tau1, tau_c = 80.0, 2e-3, 1e-3, 2e-3
    for c in (1, 4, 9):
        edges = [0.0] + [tau1 + k * tau_c for k in range(2 * c)] + [2 * c * tau_c]
        signs = [(-1) ** j for j in range(2 * c + 1)]
        span = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
        for h, sign in zip(np.diff(edges).tolist(), signs):
            span = ensemble._compose(span, (h, h, *ensemble._ou_span(h, sigma, tau_b)), sign)
        assert span[0] == pytest.approx(edges[-1], rel=1e-15)
        assert span[1] == pytest.approx(np.dot(np.diff(edges), signs), abs=1e-15)
        _, b, _, _, var_int = span[2:]
        got = math.exp(-0.5 * (2 * math.pi) ** 2 * (b * b * sigma**2 + var_int))
        assert got == pytest.approx(filter_function_coherence(edges, signs, sigma, tau_b), rel=1e-12)
    # and n iterations by doubling are the iterations one after another
    cycle = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    for h, sign in ((3e-4, 1.0), (7e-4, -1.0), (2e-4, -1.0)):
        cycle = ensemble._compose(cycle, (h, h, *ensemble._ou_span(h, sigma, tau_b)), sign)
    for parity in (1.0, -1.0):
        chained = cycle
        for k in range(1, 13):
            chained = ensemble._compose(chained, cycle, parity**k)
        doubled = ensemble._span_power(cycle, 13, parity)
        np.testing.assert_allclose(doubled, chained, rtol=1e-12, atol=1e-18)


def spy_on_ou_normals(monkeypatch):
    """The standard normals each OU bath draws per member, summed over calls."""
    drawn, normals = {}, ensemble._OUBath.normals

    def counted(self, n):
        z = normals(self, n)
        drawn[id(self)] = drawn.get(id(self), 0) + z[0].size
        return z

    monkeypatch.setattr(ensemble._OUBath, "normals", counted)
    return drawn


@pytest.mark.parametrize("record, intervals", [("acquires", 8), ("events", 21)])
def test_lowered_ou_bodies_draw_two_normals_per_read_interval(monkeypatch, record, intervals):
    # 7 iterations: under record="acquires" 7 reads and the wait after the
    # last, under "events" 6 reads per iteration, 3 of them after a wait;
    # each member draws 2 normals per interval that holds a wait
    drawn = spy_on_ou_normals(monkeypatch)
    spec = EnsembleSpec(size=5, distribution="gaussian", fwhm=500.0, seed=1)
    prog = parse(LOWERING_PROGRAMS["bangbang"].replace("wait 0.2ms; ", ""))
    run_program(prog, spec, noise=OU, master_seed=3, record=record)
    assert list(drawn.values()) == [2 * intervals]
    # a read-free repeat is one interval, whatever its count
    for count in (1, 1000, 10**7):
        drawn.clear()
        run_program(parse(f"repeat {count} {{ pulse area=pi phase=0; wait 1us; pulse area=pi phase=180; "
                          "wait 1us }; acquire a"), spec, noise=OU, master_seed=3)
        assert list(drawn.values()) == [2]


ORACLE_RELAXATION = {
    "none": None,
    "toward-0": RelaxationParams(t1=0.3, t2=0.1),
    "toward-0.3": RelaxationParams(t1=0.3, t2=0.1, z_equilibrium=0.3),
}


@pytest.mark.parametrize("relax", sorted(ORACLE_RELAXATION))
@pytest.mark.parametrize("rabi", [None, 100e3], ids=["hard", "finite"])
@pytest.mark.parametrize("size", [64, 1100])
def test_bangbang_against_brute_force_rotation_oracle(size, rabi, relax):
    # explicit members; oracle composes scipy Rotation matrices directly
    # and relaxes in closed form after each free step -- an independent
    # path through the same physics.  Hard pulses stay in the engine's
    # toggling frame, where T2 and T1 toward 0 ride across them as one
    # diagonal factor; toward z_equilibrium 0.3 the engine forms the
    # states after every wait instead.
    rng = np.random.default_rng(64)
    dets = rng.normal(0.0, 4000.0 * SIGMA_FROM_FWHM, size)
    spec = EnsembleSpec(size=size, distribution="explicit", detunings=tuple(dets))
    tau1, tau_c, n_cycles = 1.2e-3, 2e-3, 50
    prog = build_bangbang(
        BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=n_cycles),
        PulseSpec(rabi=rabi),
        acquire_every=n_cycles,
    )
    params = ORACLE_RELAXATION[relax]
    kw = {} if params is None else {"relax": params}
    res = run_program(prog, spec, initial_state=(0.0, 0.0, 1.0), **kw)

    # one rotation per member, applied member by member to its own vector
    def free(v, h):
        v = Rotation.from_rotvec(np.outer(2 * math.pi * dets * h, [0, 0, 1])).apply(v)
        if params is not None:
            v[:, :2] *= math.exp(-h / params.t2)
            v[:, 2] = params.z_equilibrium + (v[:, 2] - params.z_equilibrium) * math.exp(-h / params.t1)
        return v

    def pulse(v, phase, area):
        if rabi is None:
            return Rotation.from_rotvec(np.tile([math.cos(phase) * area, math.sin(phase) * area, 0.0],
                                                (size, 1))).apply(v)
        duration = area / (2 * math.pi * rabi)
        # axis (rabi cos, rabi sin, det) / omega, angle 2 pi omega duration
        axis = np.column_stack([
            np.full(size, rabi * math.cos(phase)), np.full(size, rabi * math.sin(phase)), dets
        ])
        return Rotation.from_rotvec(axis * 2 * math.pi * duration).apply(v)

    v = free(pulse(np.tile([0.0, 0.0, 1.0], (size, 1)), 0.0, math.pi / 2), tau1)
    for k in range(n_cycles):
        v = free(pulse(v, 0.0, math.pi), tau_c)
        v = free(pulse(v, math.pi, math.pi), tau_c if k < n_cycles - 1 else tau_c - tau1)
    _, _, means = acquire_table(res)
    np.testing.assert_allclose(means[-1], np.mean(v, axis=0), atol=1e-9)


def brute_force_hard_acquires(prog, dets, relax=None):
    """Mean Bloch vectors at each acquire of a hard-pulse program run from +z:
    scipy rotations applied member by member, relaxation in closed form
    after each wait."""
    v = np.tile([0.0, 0.0, 1.0], (len(dets), 1))
    means = []
    for ev in prog.expand():
        if isinstance(ev, Wait):
            v = Rotation.from_rotvec(np.outer(2 * math.pi * dets * ev.duration, [0, 0, 1])).apply(v)
            if relax is not None:
                v[:, :2] *= math.exp(-ev.duration / relax.t2)
                v[:, 2] *= math.exp(-ev.duration / relax.t1)
        elif isinstance(ev, Acquire):
            means.append(np.mean(v, axis=0))
        else:
            rotvec = [math.cos(ev.phase) * ev.area, math.sin(ev.phase) * ev.area, 0.0]
            v = Rotation.from_rotvec(np.tile(rotvec, (len(dets), 1))).apply(v)
    return np.array(means)


def test_pi_pulses_that_turn_the_frame_against_brute_force_rotation_oracle():
    # four pi pulses per iteration turn the frame by -120 degrees, so the
    # frame angle moves from one iteration to the next; 300 iterations
    # span several draw blocks
    dets = np.random.default_rng(66).normal(0.0, 4000.0 * SIGMA_FROM_FWHM, 64)
    spec = EnsembleSpec(size=len(dets), distribution="explicit", detunings=tuple(dets))
    relax = RelaxationParams(t1=0.3, t2=0.1)
    prog = parse("pulse area=pi/2; repeat 300 { wait 0.1ms; pulse area=pi phase=30; wait 0.2ms; "
                 "pulse area=pi phase=0; wait 0.1ms; acquire a; pulse area=pi phase=100; wait 0.05ms; "
                 "pulse area=pi phase=250; wait 0.05ms }; wait 0.3ms; acquire b")
    assert prog.expanded_count() > 4 * ensemble._DRAW_BLOCK
    _, _, means = acquire_table(run_program(prog, spec, relax=relax))
    np.testing.assert_allclose(means, brute_force_hard_acquires(prog, dets, relax), atol=1e-9)


@pytest.mark.parametrize("phase", ["1.7e308rad", "1e300rad"])
def test_pi_pulses_at_huge_phases_match_brute_force(phase):
    # a legal phase: the engine reduces it as cos and sin do.  2 phase
    # would overflow at 1.7e308, and at 1e300 its reduction by a rounded
    # 2 pi would give another angle
    dets = np.random.default_rng(67).normal(0.0, 4000.0 * SIGMA_FROM_FWHM, 16)
    spec = EnsembleSpec(size=len(dets), distribution="explicit", detunings=tuple(dets))
    prog = parse(f"pulse area=pi/2; repeat 40 {{ pulse area=pi phase={phase}; wait 0.1ms; acquire a; "
                 "pulse area=pi phase=0; wait 0.1ms }; wait 0.05ms; acquire b")
    _, _, means = acquire_table(run_program(prog, spec))
    np.testing.assert_allclose(means, brute_force_hard_acquires(prog, dets), atol=1e-9)


def test_finite_pulses_under_a_frozen_telegraph_bath_match_brute_force():
    # a telegraph bath that does not flip is a static shift: member i runs
    # at det_i + s_i A, s_i the sign drawn first from its documented stream
    # SeedSequence(master_seed).spawn(n)[i].  At 1e-6 Hz over the 0.2 s
    # program a member flips with probability 2e-7 (1.3e-5 for any of the
    # 64); the first flip times, read from the same streams, confirm that
    # none does.  The oracle is the scipy brute force of the test above.
    size, amplitude, rate, master_seed = 64, 300.0, 1e-6, 5
    dets = np.random.default_rng(65).normal(0.0, 4000.0 * SIGMA_FROM_FWHM, size)
    spec = EnsembleSpec(size=size, distribution="explicit", detunings=tuple(dets))
    tau1, tau_c, n_cycles, rabi = 1.2e-3, 2e-3, 50, 100e3
    prog = build_bangbang(BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=n_cycles),
                          PulseSpec(rabi=rabi), acquire_every=n_cycles)
    noise = NoiseModel(kind="telegraph", amplitude=amplitude, flip_rate=rate)
    res = run_program(prog, spec, noise=noise, master_seed=master_seed)

    streams = [np.random.Generator(np.random.PCG64(s))
               for s in np.random.SeedSequence(master_seed).spawn(size)]
    signs = np.array([1.0 if g.random() < 0.5 else -1.0 for g in streams])
    assert min(g.standard_exponential() / rate for g in streams) > prog.duration()
    assert 0 < np.count_nonzero(signs > 0) < size
    eff = dets + signs * amplitude

    def free(v, h):
        return Rotation.from_rotvec(np.outer(2 * math.pi * eff * h, [0, 0, 1])).apply(v)

    def pulse(v, phase, area):
        # axis (rabi cos, rabi sin, eff) / omega, angle 2 pi omega duration
        axis = np.column_stack([
            np.full(size, rabi * math.cos(phase)), np.full(size, rabi * math.sin(phase)), eff
        ])
        return Rotation.from_rotvec(axis * area / rabi).apply(v)

    v = free(pulse(np.tile([0.0, 0.0, 1.0], (size, 1)), 0.0, math.pi / 2), tau1)
    for k in range(n_cycles):
        v = free(pulse(v, 0.0, math.pi), tau_c)
        v = free(pulse(v, math.pi, math.pi), tau_c if k < n_cycles - 1 else tau_c - tau1)
    _, _, means = acquire_table(res)
    np.testing.assert_allclose(means[-1], np.mean(v, axis=0), atol=1e-9)


def test_a_long_compiled_repeat_under_a_frozen_telegraph_bath_is_one_power():
    # no member flips (checked from the streams, as in the test above), so
    # each member's 100,000 cycles are one flip-free run at det_i + s_i A:
    # its states end at u0 K_i^N, K_i its one-cycle map.  An error in K_i
    # grows N-fold in K_i^N, so K_i is formed as the run forms it: each
    # wait's R_z(2 pi (eff h)) and each pulse's matrix, in body order
    size, amplitude, rate, master_seed, n = 64, 300.0, 1e-6, 5, 100_000
    dets = np.random.default_rng(65).normal(0.0, 4000.0 * SIGMA_FROM_FWHM, size)
    spec = EnsembleSpec(size=size, distribution="explicit", detunings=tuple(dets))
    rabi, tau = 100e3, 1e-3
    prog = parse(f"repeat {n} {{ pulse rabi={rabi} duration={0.5 / rabi} phase=0; wait {tau}; "
                 f"pulse rabi={rabi} duration={0.5 / rabi} phase=180; wait {tau} }}")
    noise = NoiseModel(kind="telegraph", amplitude=amplitude, flip_rate=rate)
    res = run_program(prog, spec, noise=noise, master_seed=master_seed, initial_state=FOUR_STATES)

    streams = [np.random.Generator(np.random.PCG64(s))
               for s in np.random.SeedSequence(master_seed).spawn(size)]
    signs = np.array([1.0 if g.random() < 0.5 else -1.0 for g in streams])
    assert min(g.standard_exponential() / rate for g in streams) > prog.duration()
    assert 0 < np.count_nonzero(signs > 0) < size
    eff = dets + signs * amplitude
    zero, one = np.zeros(size), np.ones(size)
    k = np.eye(3)
    for ev in prog.events[0].body:
        if isinstance(ev, Wait):
            c, s = np.cos(2 * math.pi * (eff * ev.duration)), np.sin(2 * math.pi * (eff * ev.duration))
            k = k @ np.stack([c, s, zero, -s, c, zero, zero, zero, one], axis=-1).reshape(size, 3, 3)
        else:
            k = k @ finite_pulse_matrix(ev.rabi, ev.duration, ev.phase, eff)
    expect = (FOUR_STATES @ np.linalg.matrix_power(k, n)).sum(axis=0) / size
    assert res.duration == pytest.approx(prog.duration(), rel=1e-12)
    np.testing.assert_allclose(res.mean_bloch[-1], expect, rtol=1e-12)


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


def test_acquire_readers_reject_stacked_states():
    prog = parse("pulse area=pi/2 phase=0\nwait 1ms\nacquire a")
    spec = EnsembleSpec(size=2, distribution="explicit", detunings=(0.0, 100.0))
    res = run_program(prog, spec, initial_state=np.eye(3)[:2])
    for read in (lambda: acquire_series(res, "a"), lambda: result_to_json(res, config={})):
        with pytest.raises(ValueError, match=r"\(3, 2, 3\)"):
            read()


def test_result_to_csv_rejects_stacked_states():
    prog = parse("pulse area=pi/2 phase=0\nwait 1ms\nacquire a")
    spec = EnsembleSpec(size=2, distribution="explicit", detunings=(0.0, 100.0))
    res = run_program(prog, spec, initial_state=np.eye(3)[:2])
    with pytest.raises(ValueError, match=r"\(3, 2, 3\)"):
        result_to_csv(res)


def test_acquire_series_ordering():
    prog = build_bangbang(BangBangParams(tau1=1e-3, tau_c=2e-3, n_cycles=6), acquire_every=2)
    spec = EnsembleSpec(size=1, distribution="explicit", detunings=(300.0,))
    res = run_program(prog, spec)
    t, mag = acquire_series(res, "echo")
    np.testing.assert_allclose(t, [2 * 2 * 2e-3, 2 * 4 * 2e-3, 2 * 6 * 2e-3], atol=1e-12)
    assert np.all(mag > 1 - 1e-9)
