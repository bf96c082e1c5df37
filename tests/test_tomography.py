"""Pauli-transfer-matrix reconstruction and fidelity."""

import math

import numpy as np
import pytest

from blochdd import tomography
from blochdd.bloch import finite_pulse_matrix, rotation_matrix
from blochdd.ensemble import EnsembleSpec, run_program
from blochdd.sequences import BangBangParams, PulseProgram, PulseSpec, Wait, build_bangbang_body, parse
from blochdd.tomography import (
    assemble_ptm,
    average_gate_fidelity,
    process_fidelity,
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
    eye = np.eye(4)
    assert process_fidelity(eye) == pytest.approx(1.0)
    assert process_fidelity(np.diag([1.0, 0, 0, 1.0])) == pytest.approx(0.5)
    assert process_fidelity(np.diag([1.0, 1, 1, -1.0])) == pytest.approx(0.5)
    assert average_gate_fidelity(1.0) == pytest.approx(1.0)
    assert average_gate_fidelity(0.25) == pytest.approx(0.5)


def test_assemble_ptm_affine_channel():
    # synthetic channel: contraction 0.5 plus shift 0.2 along z
    outputs = {
        "+z": np.array([0.0, 0.0, 0.7]),
        "-z": np.array([0.0, 0.0, -0.3]),
        "+x": np.array([0.5, 0.0, 0.2]),
        "+y": np.array([0.0, 0.5, 0.2]),
    }
    ptm = assemble_ptm(outputs)
    expected = np.eye(4)
    expected[1, 1] = expected[2, 2] = expected[3, 3] = 0.5
    expected[3, 0] = 0.2
    np.testing.assert_allclose(ptm, expected, atol=1e-12)


def train_bodies(tau1, tau_c, n_list, pulse_spec=PulseSpec()):
    return {n: build_bangbang_body(BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=n), pulse_spec)
            for n in n_list}


def test_series_trivial_case_and_ordering():
    res = tomography_series(train_bodies(1e-3, 2e-3, [1]), SINGLE)
    assert len(res) == 1
    assert res[0].fidelity == pytest.approx(1.0, abs=1e-12)
    assert res[0].n_cycles == 1
    # results follow the order of the mapping; the CLI orders --n-list
    res = tomography_series(train_bodies(1e-3, 2e-3, [10, 1]), SINGLE)
    assert [r.n_cycles for r in res] == [10, 1]
    for r in res:
        np.testing.assert_allclose(r.ptm, np.eye(4), atol=1e-12)


def test_zero_cycles_is_the_identity():
    # the body of N = 0 cycles ends at the refocusing instant 0: no free
    # evolution over tau1, so even a 2 kHz line leaves every input alone
    spec = EnsembleSpec(size=64, distribution="gaussian", fwhm=2000.0, seed=3)
    zero, one = tomography_series(train_bodies(0.5e-3, 1e-3, [0, 1]), spec)
    assert zero.n_cycles == 0
    np.testing.assert_array_equal(zero.ptm, np.eye(4))
    assert zero.fidelity == 1.0
    assert one.fidelity == pytest.approx(1.0, abs=1e-12)


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


def test_fidelity_input_validation():
    with pytest.raises(ValueError):
        process_fidelity(np.eye(3))
