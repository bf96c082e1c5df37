"""Pauli-transfer-matrix reconstruction and fidelity."""

import math

import numpy as np
import pytest

from blochdd import sequences, tomography
from blochdd.bloch import NO_RELAXATION, RelaxationParams, finite_pulse_matrix, rotation_matrix
from blochdd.ensemble import EnsembleSpec, NoiseModel, run_program
from blochdd.sequences import (
    Acquire,
    BangBangParams,
    PulseProgram,
    PulseSpec,
    Wait,
    build_bangbang_body,
    parse,
)
from blochdd.tomography import (
    average_gate_fidelity,
    process_result_to_json,
    ptm_to_csv,
    run_process_tomography,
    tomography_series,
)

SINGLE = EnsembleSpec(size=1, distribution="explicit", detunings=(0.0,))
SIGMA_FROM_FWHM = 1 / 2.3548200450309493


def test_empty_process_is_identity():
    res = run_process_tomography(PulseProgram(()), SINGLE)
    np.testing.assert_allclose(res.ptm, np.eye(4), atol=1e-12)
    assert res.fidelity == pytest.approx(1.0)


def test_pi_pulse_channel():
    res = run_process_tomography(parse("pulse area=pi phase=0"), SINGLE)
    np.testing.assert_allclose(res.ptm, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-12)
    assert res.fidelity == pytest.approx(0.0, abs=1e-12)


def test_gaussian_dephasing_channel():
    # free evolution over the inhomogeneous line: XX and YY shrink by the
    # Gaussian FID factor, ZZ stays 1; quadrature makes this exact
    fwhm, t = 4000.0, 1e-4
    spec = EnsembleSpec(size=256, distribution="gaussian", fwhm=fwhm,
                        sampling="gauss_quadrature")
    res = run_process_tomography(parse("wait 0.1ms"), spec)
    decay = math.exp(-0.5 * (2 * math.pi * fwhm * SIGMA_FROM_FWHM * t) ** 2)
    assert res.ptm[1, 1] == pytest.approx(decay, abs=1e-6)
    assert res.ptm[2, 2] == pytest.approx(decay, abs=1e-6)
    assert res.ptm[3, 3] == pytest.approx(1.0, abs=1e-12)
    # reconstruction is exact for the simulated channel: off-diagonals of
    # the lower block vanish apart from the precession rotation, which is
    # zero here because the line is symmetric
    assert abs(res.ptm[1, 2]) < 1e-9
    assert abs(res.ptm[0, 1]) == 0.0


X_PI, Y_PI = "pulse area=pi phase=0", "pulse area=pi phase=90"
XY4 = f"{X_PI}; wait 100us; {Y_PI}; wait 100us; {X_PI}; wait 100us; {Y_PI}"
# pi pulses of 10 us at 50 kHz Rabi
FX_PI, FY_PI, FMX_PI = (f"pulse rabi=50kHz duration=10us phase={p}" for p in (0, 90, 180))
MATRIX_POWER_BODIES = {
    "xy4": f"wait 50us; {XY4}; wait 50us",
    "xy8": f"wait 50us; {XY4}; wait 100us; {Y_PI}; wait 100us; {X_PI}; wait 100us; {Y_PI}; "
           f"wait 100us; {X_PI}; wait 50us",
    "0-30": f"wait 70us; {X_PI}; wait 130us; pulse area=pi phase=30; wait 60us",
    "xy4-finite": f"wait 50us; {FX_PI}; wait 100us; {FY_PI}; wait 100us; {FX_PI}; wait 100us; {FY_PI}; "
                  "wait 50us",
    "pi-pi-finite": f"wait 50us; {FX_PI}; wait 100us; {FMX_PI}; wait 50us",
}


@pytest.mark.parametrize("n", [1, 37, 1000])
@pytest.mark.parametrize("name", sorted(MATRIX_POWER_BODIES))
def test_static_line_ptm_is_the_mean_cycle_rotation_to_the_nth_power(name, n):
    # no bath: member i's n cycles are its one-cycle rotation M_i to the
    # n-th power, and the channel is unital
    dets = np.random.default_rng(6).normal(0.0, 3000.0 * SIGMA_FROM_FWHM, 16)
    spec = EnsembleSpec(size=len(dets), distribution="explicit", detunings=tuple(dets))
    body = MATRIX_POWER_BODIES[name]
    res = run_process_tomography(parse(f"repeat {n} {{ {body} }}"), spec)
    expect = np.zeros((3, 3))
    for det in dets:
        m = np.eye(3)
        for ev in parse(body).expand():
            if isinstance(ev, Wait):
                m = m @ rotation_matrix([0.0, 0.0, 1.0], 2 * math.pi * det * ev.duration)
            elif ev.mode == "finite":
                m = m @ finite_pulse_matrix(ev.rabi, ev.duration, ev.phase, det)
            else:
                m = m @ rotation_matrix([math.cos(ev.phase), math.sin(ev.phase), 0.0], ev.area)
        expect += np.linalg.matrix_power(m, n).T / len(dets)
    np.testing.assert_allclose(res.ptm[1:, 1:], expect, atol=1e-11)
    np.testing.assert_allclose(res.ptm[1:, 0], 0.0, atol=1e-11)


def test_trace_preservation_row():
    res = run_process_tomography(parse("pulse area=1.1rad phase=0.3rad\nwait 0.2ms"), SINGLE)
    np.testing.assert_array_equal(res.ptm[0], [1.0, 0.0, 0.0, 0.0])


def test_unitary_channel_block_is_orthogonal():
    prog = parse("pulse area=0.7rad phase=0.4rad\nwait 0.13ms\npulse area=2rad phase=1rad")
    res = run_process_tomography(prog, EnsembleSpec(size=1, distribution="explicit",
                                                    detunings=(321.0,)))
    block = res.ptm[1:, 1:]
    np.testing.assert_allclose(block.T @ block, np.eye(3), atol=1e-9)


def test_fidelity_examples():
    # trace(R) / 4 of channels of known trace: the identity (4), a quarter
    # turn about z (2) and about x (2), a half turn about x (0)
    quarter = EnsembleSpec(size=1, distribution="explicit", detunings=(250.0,))
    for program, spec, trace in (("", SINGLE, 4.0), ("wait 1ms", quarter, 2.0),
                                 ("pulse area=pi/2 phase=0", SINGLE, 2.0),
                                 ("pulse area=pi phase=0", SINGLE, 0.0)):
        res = run_process_tomography(parse(program), spec)
        assert res.fidelity == pytest.approx(trace / 4.0, abs=1e-12)
        assert res.fidelity == float(np.trace(res.ptm)) / 4.0
    assert average_gate_fidelity(1.0) == pytest.approx(1.0)
    assert average_gate_fidelity(0.25) == pytest.approx(0.5)


def test_relaxation_channel_ptm_is_affine():
    # T1 = T2 = h / ln 2 over a wait h toward z_equilibrium 0.4: contraction
    # 0.5 plus shift 0.2 along z
    h = 1e-3
    relax = RelaxationParams(t1=h / math.log(2), t2=h / math.log(2), z_equilibrium=0.4)
    ptm = run_process_tomography(PulseProgram((Wait(h),)), SINGLE, relax=relax).ptm
    expected = np.eye(4)
    expected[1, 1] = expected[2, 2] = expected[3, 3] = 0.5
    expected[3, 0] = 0.2
    np.testing.assert_allclose(ptm, expected, atol=1e-12)


def train_bodies(tau1, tau_c, n_list, pulse_spec=PulseSpec()):
    """The train's bodies at the ascending counts ``n_list``, as the one
    series program the CLI runs: an acquire ``n<N>`` ends each body."""
    return sequences._bangbang_series(tau1, tau_c, n_list, pulse_spec)


def test_series_trivial_case_and_ordering():
    res = tomography_series(train_bodies(1e-3, 2e-3, [1]), SINGLE)
    assert len(res) == 1
    assert res[0].fidelity == pytest.approx(1.0, abs=1e-12)
    assert res[0].n_cycles == 1
    # one result per acquire, in program order: the CLI orders --n-list
    res = tomography_series(train_bodies(1e-3, 2e-3, [1, 10]), SINGLE)
    assert [r.n_cycles for r in res] == [1, 10]
    for r in res:
        np.testing.assert_allclose(r.ptm, np.eye(4), atol=1e-12)


def test_series_program_is_each_body_with_a_read_at_its_end():
    # up to the acquire of N: the pulses and waits of the N-cycle body, the
    # trailing tau_c of each earlier read split in two there
    for tau1 in (0.4e-3, 1e-3):
        series = train_bodies(tau1, 1e-3, [0, 1, 2, 10])
        events = list(series.expand())
        labels = [ev.label for ev in events if isinstance(ev, Acquire)]
        assert labels == ["n0", "n1", "n2", "n10"]
        assert events[0] == Acquire("n0") and isinstance(events[-1], Acquire)  # t = 0, and the end
        for n in (1, 2, 10):
            cut = events[:events.index(Acquire(f"n{n}"))]
            body = list(build_bangbang_body(BangBangParams(tau1=tau1, tau_c=1e-3, n_cycles=n)).expand())
            merged = []  # the cut, each split wait joined again
            for ev in cut:
                if isinstance(ev, Acquire):
                    continue
                if isinstance(ev, Wait) and merged and isinstance(merged[-1], Wait):
                    merged[-1] = Wait(merged[-1].duration + ev.duration)
                else:
                    merged.append(ev)
            assert [type(ev) for ev in merged] == [type(ev) for ev in body]
            for got, want in zip(merged, body):
                assert got == want or got.duration == pytest.approx(want.duration, rel=1e-12)
        assert series.duration() == pytest.approx(20e-3, rel=1e-12)


def test_zero_cycles_is_the_identity():
    # the body of N = 0 cycles ends at the refocusing instant 0: no free
    # evolution over tau1, so even a 2 kHz line leaves every input alone
    spec = EnsembleSpec(size=64, distribution="gaussian", fwhm=2000.0, seed=3)
    zero, one = tomography_series(train_bodies(0.5e-3, 1e-3, [0, 1]), spec)
    assert zero.n_cycles == 0
    np.testing.assert_array_equal(zero.ptm, np.eye(4))
    assert zero.fidelity == 1.0
    assert one.fidelity == pytest.approx(1.0, abs=1e-12)


SERIES_COUNTS = [0, 1, 2, 10, 100, 300]
SERIES_LINE = EnsembleSpec(size=16, distribution="gaussian", fwhm=2000.0, seed=4)
TELEGRAPH = NoiseModel(kind="telegraph", amplitude=40.0, flip_rate=200.0)
OU = NoiseModel(kind="ornstein_uhlenbeck", sigma=30.0, tau_b=5e-3)
SERIES_CASES = {  # (noise, relaxation, tau1)
    "none": (None, NO_RELAXATION, 0.5e-3),
    "telegraph": (TELEGRAPH, NO_RELAXATION, 0.5e-3),
    "t1t2": (None, RelaxationParams(t1=0.4, t2=0.05), 0.5e-3),
    "tau1-is-tau_c": (TELEGRAPH, NO_RELAXATION, 1e-3),
}
SERIES_PULSES = {"hard": PulseSpec(), "finite": PulseSpec(rabi=50e3)}


def one_run_per_series(monkeypatch):
    """The run_program calls tomography makes, appended to as they come."""
    calls = []

    def counted(*args, **kw):
        calls.append(args[0])
        return run_program(*args, **kw)

    monkeypatch.setattr(tomography, "run_program", counted)
    return calls


def test_series_reads_any_acquire_label(monkeypatch):
    # an n<N> label gives its count, any other label none; one result per
    # acquire, in program order, from one run of each program
    calls = one_run_per_series(monkeypatch)
    for text, counts in (("wait 1ms; acquire echo", [None]),
                         ("acquire n0; repeat 2 { wait 1ms; acquire n1x }", [0, None, None])):
        res = tomography_series(parse(text), SINGLE)
        assert [r.n_cycles for r in res] == counts
        for r in res:
            np.testing.assert_allclose(r.ptm, np.eye(4), atol=1e-12)
    assert len(calls) == 2


@pytest.mark.parametrize("pulses", sorted(SERIES_PULSES))
@pytest.mark.parametrize("case", list(SERIES_CASES))
def test_series_points_equal_the_runs_of_their_bodies(monkeypatch, case, pulses):
    # telegraph flips are continuous-time draws, so the series and each
    # body see one realization up to the body's end; the runs differ only
    # in how their waits are split and their repeats grouped
    noise, relax, tau1 = SERIES_CASES[case]
    spec = SERIES_PULSES[pulses]
    kw = dict(noise=noise, relax=relax, master_seed=9)
    calls = one_run_per_series(monkeypatch)
    series = tomography_series(train_bodies(tau1, 1e-3, SERIES_COUNTS, spec), SERIES_LINE, **kw)
    assert len(calls) == 1
    assert [r.n_cycles for r in series] == SERIES_COUNTS
    for point in series:
        body = build_bangbang_body(BangBangParams(tau1=tau1, tau_c=1e-3, n_cycles=point.n_cycles), spec)
        alone = run_process_tomography(body, SERIES_LINE, **kw)
        np.testing.assert_allclose(point.ptm, alone.ptm, rtol=0, atol=1e-12)
        assert point.fidelity == pytest.approx(alone.fidelity, rel=0, abs=1e-12)
    np.testing.assert_array_equal(series[0].ptm, np.eye(4))


@pytest.mark.parametrize("pulses", sorted(SERIES_PULSES))
def test_ou_series_points_equal_the_series_cut_after_them(monkeypatch, pulses):
    # an OU bath draws per interval, and the series splits a wait at each
    # read: each point is the run of the series program up to its acquire
    program = train_bodies(0.5e-3, 1e-3, SERIES_COUNTS, SERIES_PULSES[pulses])
    calls = one_run_per_series(monkeypatch)
    series = tomography_series(program, SERIES_LINE, noise=OU, master_seed=9)
    assert len(calls) == 1
    for point in series:
        end = program.events.index(Acquire(f"n{point.n_cycles}")) + 1
        cut = run_process_tomography(PulseProgram(program.events[:end]), SERIES_LINE, noise=OU, master_seed=9)
        np.testing.assert_allclose(point.ptm, cut.ptm, rtol=0, atol=1e-12)


def test_one_run_carries_all_four_preparations(monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(np.asarray(kw["initial_state"]).shape)
        return run_program(*args, **kw)

    monkeypatch.setattr(tomography, "run_program", counted)
    res = run_process_tomography(parse("pulse area=pi phase=0"), SINGLE)
    assert calls == [(4, 3)]
    np.testing.assert_allclose(res.ptm, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-12)


def test_series_monotone_and_population_decay():
    # the paper-scale configuration, shortened: fidelity falls with cycle
    # count and the population (ZZ) entry falls faster than coherence
    spec = EnsembleSpec(size=128, distribution="gaussian", fwhm=4000.0,
                        sampling="gauss_quadrature")
    series = tomography_series(train_bodies(1.2e-3, 2e-3, [1, 10, 100], PulseSpec(rabi=100e3)), spec)
    fids = [r.fidelity for r in series]
    assert fids == sorted(fids, reverse=True)
    last = series[-1].ptm
    assert last[3, 3] < min(last[1, 1], last[2, 2])


def test_exports():
    res = run_process_tomography(PulseProgram(()), SINGLE)
    csv = ptm_to_csv(res.ptm)
    lines = csv.splitlines()
    assert lines[0] == "row,I,X,Y,Z"
    assert len(lines) == 5
    doc = process_result_to_json(res, config={"x": 1})
    assert '"fidelity": 1.0' in doc
    assert '"config"' in doc
