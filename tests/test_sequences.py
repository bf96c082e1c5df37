"""Parser and sequence builders."""

import math

import numpy as np
import pytest

from blochdd.bloch import RelaxationParams
from blochdd.ensemble import EnsembleSpec, acquire_series, run_program
from blochdd.sequences import (
    Acquire,
    BangBangParams,
    Pulse,
    PulseProgram,
    PulseSpec,
    Repeat,
    SequenceError,
    Wait,
    build_bangbang,
    build_bangbang_body,
    build_hahn_echo,
    build_inversion_recovery,
    parse,
)

SINGLE = EnsembleSpec(size=1, distribution="explicit", detunings=(700.0,))


def echo(res, label):
    """Magnitude of the mean transverse vector at the last acquire of a label."""
    return acquire_series(res, label)[1][-1]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_smoke():
    p = parse("pulse area=pi/2 phase=0\nwait 1.2ms\nacquire echo")
    assert len(p.events) == 3
    assert isinstance(p.events[0], Pulse)
    assert p.events[0].area == pytest.approx(math.pi / 2)
    assert p.events[1] == Wait(1.2e-3)
    assert p.events[2] == Acquire("echo")


def test_parse_repeat_block():
    p = parse(
        "repeat 1000 { pulse area=pi phase=0; wait 2ms; "
        "pulse area=pi phase=180; wait 2ms }"
    )
    assert len(p.events) == 1
    rep = p.events[0]
    assert isinstance(rep, Repeat)
    assert rep.count == 1000
    assert len(rep.body) == 4
    assert p.duration() == pytest.approx(4.000, abs=1e-12)
    # bare angles are degrees: 180 means a pi phase
    assert rep.body[2].phase == pytest.approx(math.pi)


def test_parse_negative_wait_rejected():
    with pytest.raises(SequenceError, match="negative duration"):
        parse("wait -3ms")


def test_parse_unknown_unit():
    with pytest.raises(SequenceError, match="unknown time unit"):
        parse("wait 3 days")
    with pytest.raises(SequenceError, match="unknown frequency unit"):
        parse("pulse rabi=2GHz duration=1us phase=0")
    with pytest.raises(SequenceError, match="unknown angle unit"):
        parse("pulse area=1 furlongs phase=0")


def test_parse_error_carries_position():
    try:
        parse("wait 1ms\nbogus 3")
    except SequenceError as err:
        assert err.line == 2
        assert err.column == 1
    else:
        pytest.fail("expected SequenceError")


def test_angle_forms():
    cases = {
        "pi": math.pi,
        "pi/2": math.pi / 2,
        "2pi/3": 2 * math.pi / 3,
        "-pi": -math.pi,
        "0.5pi": 0.5 * math.pi,
        "90deg": math.pi / 2,
        "1.5rad": 1.5,
        "180": math.pi,  # bare defaults to degrees
    }
    for text, value in cases.items():
        p = parse(f"pulse area=pi phase={text}")
        assert p.events[0].phase == pytest.approx(value), text


def test_a_sign_token_before_a_number_negates_it():
    # "- 90" is a sign token and a number, where "-90" is one number token
    for text, value in {"- 90deg": -math.pi / 2, "- 2pi/4": -math.pi / 2, "+ 1.5rad": 1.5}.items():
        assert parse(f"pulse area=pi phase={text}").events[0].phase == pytest.approx(value), text


def test_negative_area_normalizes_to_phase_shift():
    p = parse("pulse area=-pi phase=0")
    ev = p.events[0]
    assert ev.area == pytest.approx(math.pi)
    assert ev.phase == pytest.approx(math.pi)


def test_parse_finite_pulse_and_units():
    p = parse("pulse rabi=100kHz duration=5us phase=90deg")
    ev = p.events[0]
    assert ev.rabi == pytest.approx(1e5)
    assert ev.duration == pytest.approx(5e-6)
    assert ev.phase == pytest.approx(math.pi / 2)


def test_parse_rejects_mixed_pulse_modes():
    with pytest.raises(SequenceError):
        parse("pulse area=pi rabi=1kHz duration=1us phase=0")
    with pytest.raises(SequenceError):
        parse("pulse rabi=1kHz phase=0")


@pytest.mark.parametrize("text", [
    "pulse area=1e400",
    "pulse rabi=1e400Hz duration=1us",
    "pulse rabi=1kHz duration=1e400s",
    "pulse area=pi phase=1e400rad",
    "pulse rabi=0Hz duration=1us",
    "wait 1e400s",
    "repeat 0 { wait 1ms }",
    pytest.param("repeat " + "9" * 5000 + " { wait 1ms }", id="repeat count past int() digit limit"),
])
def test_parse_reports_event_checks_as_sequence_errors(text):
    # the event types own these checks; the parser names the statement
    with pytest.raises(SequenceError, match="^line 2, column 3: "):
        parse("wait 1ms\n  " + text)


@pytest.mark.parametrize("text, message, line, column", [
    # the tokenizer
    ("wait 1ms\n  @", "unexpected character '@'", 2, 3),
    ("pulse area=pi phase=0 & wait 1ms", "unexpected character '&'", 1, 23),
    # numbers
    ("wait ms", "expected a number, got 'ms'", 1, 6),
    ("wait", "expected a number, got ''", 1, 5),
    ("\twait x", "expected a number, got 'x'", 1, 7),
    ("wait - 3ms", "expected a number, got '-'", 1, 6),
    ("pulse area=pi/x", "expected a number, got 'x'", 1, 15),
    ("pulse rabi=kHz duration=1us", "expected a number, got 'kHz'", 1, 12),
    # units
    ("wait 3 days", "unknown time unit 'days'", 1, 8),
    ("wait 3 rabi", "unknown time unit 'rabi'", 1, 8),
    ("pulse rabi=1kHz duration=1 days", "unknown time unit 'days'", 1, 28),
    ("pulse rabi=2GHz duration=1us", "unknown frequency unit 'GHz'", 1, 13),
    ("pulse area=1 furlongs phase=0", "unknown angle unit 'furlongs'", 1, 14),
    # angles
    ("pulse area=pi/0 phase=0", "division by zero in angle", 1, 15),
    ("pulse area=2pi/0.0", "division by zero in angle", 1, 16),
    ("pulse area=deg", "expected an angle, got 'deg'", 1, 12),
    ("pulse area=-x", "expected an angle, got 'x'", 1, 13),
    ("pulse area=pi/2 phase=--pi", "expected an angle, got '-'", 1, 24),
    # durations
    ("wait -3ms", "negative duration", 1, 6),
    ("wait -0.5 us", "negative duration", 1, 6),
    ("pulse rabi=1kHz duration=-1us", "negative duration", 1, 26),
    # pulse statements
    ("pulse", "pulse needs parameters (area= or rabi=/duration=)", 1, 1),
    ("wait 1ms; pulse foo=1", "pulse needs parameters (area= or rabi=/duration=)", 1, 11),
    ("pulse phase", "expected '=' after 'phase'", 1, 12),
    ("pulse area pi", "expected '=' after 'area'", 1, 12),
    ("pulse rabi=1kHz duration 1us", "expected '=' after 'duration'", 1, 26),
    # repeats
    ("repeat x { wait 1ms }", "repeat needs a positive integer count", 1, 8),
    ("repeat 2.5 { wait 1ms }", "repeat needs a positive integer count", 1, 8),
    ("repeat -2 { wait 1ms }", "repeat needs a positive integer count", 1, 8),
    ("repeat 1e3 { wait 1ms }", "repeat needs a positive integer count", 1, 8),
    ("repeat", "repeat needs a positive integer count", 1, 7),
    ("repeat 2 wait 1ms", "expected '{' after repeat count", 1, 10),
    ("repeat 2", "expected '{' after repeat count", 1, 9),
    ("repeat 2 { wait 1ms", "missing closing '}'", 1, 20),
    ("repeat 2 {\n  repeat 3 { wait 1ms }\n", "missing closing '}'", 3, 1),
    ("wait 1ms }", "unmatched '}'", 1, 10),
    ("repeat 2 { wait 1ms } }", "unmatched '}'", 1, 23),
    # acquires and statements
    ("acquire", "acquire needs a label", 1, 8),
    ("acquire 3", "acquire needs a label", 1, 9),
    ("acquire {", "acquire needs a label", 1, 9),
    ("wait 1ms\nbogus 3", "unknown statement 'bogus'", 2, 1),
    ("pulse area=pi\n  phase=0", "unknown statement 'phase'", 2, 3),
    ("wait 2 ms ms", "unknown statement 'ms'", 1, 11),
    ("= 3", "expected a statement, got '='", 1, 1),
    ("3ms", "expected a statement, got '3'", 1, 1),
    # the event checks, at the statement's head
    ("pulse area=0", "pulse area must be positive, got 0.0", 1, 1),
    ("pulse area=pi rabi=1kHz duration=1us",
     "give either area (hard) or rabi+duration (finite), not both", 1, 1),
    ("wait 1ms; pulse rabi=1kHz phase=0", "finite pulse needs both rabi and duration", 1, 11),
    ("pulse duration=1us", "finite pulse needs both rabi and duration", 1, 1),
    ("pulse rabi=-1kHz duration=1us", "rabi must be positive, got -1000.0", 1, 1),
    ("pulse rabi=1kHz duration=0s", "pulse duration must be positive, got 0.0", 1, 1),
    ("pulse area=1e400", "pulse area must be finite, got inf", 1, 1),
    ("pulse area=pi phase=1e400rad", "pulse phase must be finite, got inf", 1, 1),
    ("pulse rabi=1e400Hz duration=1us", "pulse rabi must be finite, got inf", 1, 1),
    ("pulse rabi=1kHz duration=1e400s", "pulse duration must be finite, got inf", 1, 1),
    ("wait 1e400s", "wait duration must be finite", 1, 1),
    ("repeat 0 { wait 1ms }", "repeat count must be a positive integer, got 0", 1, 1),
])
def test_parse_errors_keep_message_line_and_column(text, message, line, column):
    with pytest.raises(SequenceError) as info:
        parse(text)
    assert (str(info.value), info.value.line, info.value.column) == (
        f"line {line}, column {column}: {message}", line, column)


@pytest.mark.parametrize("text, same", [
    ("pulse area=90 phase=0", "pulse area=pi/2 phase=0"),
    ("pulse phase=180 area=pi", "pulse area=pi phase=pi"),
    ("pulse rabi=50000 duration=1e-5", "pulse rabi=50000Hz duration=1e-5s"),
])
def test_a_bare_number_may_precede_the_next_pulse_parameter(text, same):
    # a pulse parameter's name starts the next parameter; it is never a unit
    assert parse(text) == parse(same)
    assert parse("pulse rabi=50000 duration=1e-5") == PulseProgram((Pulse(rabi=5e4, duration=1e-5),))


@pytest.mark.parametrize("text, same", [
    ("wait 3 pulse area=pi", "wait 3s; pulse area=pi"),
    ("pulse area=pi phase=90 wait 1ms", "pulse area=pi phase=90deg; wait 1ms"),
    ("pulse area=90 wait 1ms", "pulse area=pi/2; wait 1ms"),
    ("pulse rabi=50000 duration=1e-5 acquire a", "pulse rabi=50000Hz duration=1e-5s; acquire a"),
    ("wait 2 repeat 2 { wait 1 }", "wait 2s; repeat 2 { wait 1s }"),
])
def test_a_bare_number_may_end_a_statement_before_the_next(text, same):
    # separators are optional: a statement keyword starts the next statement, never a unit
    assert parse(text) == parse(same)
    assert len(parse(text).events) == 2


@pytest.mark.parametrize("text, column", [
    ("pulse area=pi area=pi/2", 15),
    ("pulse rabi=1kHz duration=1us duration=2us", 30),
])
def test_a_pulse_parameter_given_twice_is_an_error(text, column):
    with pytest.raises(SequenceError) as info:
        parse(text)
    assert (info.value.line, info.value.column) == (1, column)
    assert "given twice" in str(info.value)


def test_pulse_validation():
    with pytest.raises(ValueError):
        Pulse(area=-1.0)
    with pytest.raises(ValueError):
        Pulse(rabi=1e5)  # missing duration
    with pytest.raises(ValueError):
        Pulse(rabi=-1.0, duration=1e-6)
    with pytest.raises(ValueError):
        Pulse(area=1.0, rabi=1e5, duration=1e-6)
    for bad in (math.inf, -math.inf, math.nan):
        for kw in ({"area": bad}, {"area": 1.0, "phase": bad},
                   {"rabi": bad, "duration": 1e-6}, {"rabi": 1e5, "duration": bad}):
            with pytest.raises(ValueError, match="must be finite"):
                Pulse(**kw)
    assert Pulse(area=math.pi).mode == "hard"
    assert Pulse(rabi=1e5, duration=5e-6).mode == "finite"


def test_comments_and_separators():
    p = parse("# a comment\npulse area=pi phase=0 ; wait 1ms # trailing\n\n;;\nacquire x")
    assert len(p.events) == 3


def test_acquire_depth_invariant():
    # an acquire may sit at any repeat depth
    ok = PulseProgram((Repeat(3, (Wait(1e-3), Acquire("a"))),))
    assert ok.expanded_count() == 6
    deep = PulseProgram((Repeat(2, (Repeat(3, (Wait(1e-3), Acquire("a"))), Acquire("b"))),))
    assert parse("repeat 2 { repeat 3 { wait 1ms; acquire a }; acquire b }") == deep
    assert [ev.label for ev in deep.expand() if isinstance(ev, Acquire)] == ["a", "a", "a", "b"] * 2


def test_expand_repeat_counts_and_duration():
    body = (Wait(2e-3), PulseSpec().make(math.pi, 0.0), Wait(1e-3))
    prog = PulseProgram((Repeat(7, body),))
    assert prog.expanded_count() == 21
    assert prog.duration() == pytest.approx(7 * 3e-3)


def test_duration_folds_repeats_without_expanding(monkeypatch):
    prog = parse("repeat 200000 { pulse area=pi phase=0; wait 1us; pulse area=-pi phase=0; wait 1us }")

    def unrolled(self):
        raise AssertionError("duration must come from the repeat tree")

    monkeypatch.setattr(PulseProgram, "expand", unrolled)
    # count x body: no drift from 800,000 additions (the sum reads 0.399999999996216)
    assert prog.duration() == 200000 * (1e-6 + 1e-6)
    assert prog.expanded_count() == 800000


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def _random_events(rng, depth=0):
    """1-5 random events; repeats nest, with acquires, up to three levels deep."""
    events = []
    for _ in range(rng.integers(1, 6)):
        kind = rng.integers(5 if depth < 3 else 4)
        if kind == 0:
            events.append(PulseSpec().make(rng.uniform(0.01, 7.0), rng.normal()))
        elif kind == 1:
            events.append(
                PulseSpec(rabi=float(rng.uniform(1e4, 1e6))).make(rng.uniform(0.01, 7.0), rng.normal())
            )
        elif kind == 2:
            events.append(Wait(float(rng.uniform(0, 0.5))))
        elif kind == 3:
            events.append(Acquire(f"tag_{rng.integers(100)}"))
        else:
            events.append(Repeat(int(rng.integers(1, 50)), _random_events(rng, depth + 1)))
    return tuple(events)


def random_program_corpus(n, seed=20240917):
    rng = np.random.default_rng(seed)
    return [PulseProgram(_random_events(rng)) for _ in range(n)]


def program_text(events, pad=""):
    """Sequence text of ``events``, one statement per line, in SI suffixes at
    17 significant digits: enough to give back each float exactly."""
    units = {"area": "rad", "rabi": "Hz", "duration": "s", "phase": "rad"}
    lines = []
    for ev in events:
        if isinstance(ev, Pulse):
            params = (f"{name}={getattr(ev, name):.16e}{unit}" for name, unit in units.items()
                      if getattr(ev, name) is not None)
            lines.append(f"{pad}pulse {' '.join(params)}")
        elif isinstance(ev, Wait):
            lines.append(f"{pad}wait {ev.duration:.16e}s")
        elif isinstance(ev, Acquire):
            lines.append(f"{pad}acquire {ev.label}")
        else:
            lines += [f"{pad}repeat {ev.count} {{", program_text(ev.body, pad + "  "), f"{pad}}}"]
    return "\n".join(lines)


def test_roundtrip_corpus():
    for prog in random_program_corpus(1000):
        assert parse(program_text(prog.events)) == prog


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_hahn_echo_structure():
    p = build_hahn_echo(10e-3)
    assert p.duration() == pytest.approx(20e-3)
    kinds = [type(e).__name__ for e in p.events]
    assert kinds == ["Pulse", "Wait", "Pulse", "Wait", "Acquire"]
    assert p.events[0].area == pytest.approx(math.pi / 2)
    assert p.events[2].area == pytest.approx(math.pi)


def test_hahn_echo_refocuses_static_detuning():
    res = run_program(build_hahn_echo(10e-3), SINGLE)
    mag = echo(res, "echo")
    assert mag == pytest.approx(1.0, abs=1e-12)


def test_hahn_echo_homogeneous_decay():
    # closed-form oracle exp(-2 tau / t2) at tau = 430 ms, t2 = 0.86 s
    relax = RelaxationParams(t2=0.86)
    res = run_program(build_hahn_echo(0.43), SINGLE, relax=relax)
    mag = echo(res, "echo")
    assert mag == pytest.approx(math.exp(-1.0), abs=1e-6)


def last_acquire(res):
    """The mean Bloch vector of the last acquire row of a run's table."""
    return res.mean_bloch[max(i for i, label in enumerate(res.sample_labels) if label is not None)]


def test_inversion_recovery_full_inversion():
    res = run_program(build_inversion_recovery(1e-9), SINGLE)
    assert -last_acquire(res)[1] == pytest.approx(-1.0, abs=1e-6)


def test_inversion_recovery_at_t1():
    # t1 = 145 s, delay = 145 s, z_eq = 0: z before readout is -exp(-1)
    relax = RelaxationParams(t1=145.0, t2=290.0)
    res = run_program(build_inversion_recovery(145.0), SINGLE, relax=relax)
    assert -last_acquire(res)[1] == pytest.approx(-math.exp(-1), abs=1e-9)


def test_inversion_recovery_long_delay_reaches_equilibrium():
    relax = RelaxationParams(t1=1.0, t2=2.0, z_equilibrium=0.25)
    res = run_program(build_inversion_recovery(60.0), SINGLE, relax=relax)
    assert -last_acquire(res)[1] == pytest.approx(0.25, abs=1e-9)


def test_bangbang_duration_examples():
    p = build_bangbang(BangBangParams(tau1=1.2e-3, tau_c=2e-3, n_cycles=1000))
    assert p.duration() == pytest.approx(1.2e-3 + 4.0, abs=1e-9)
    p1 = build_bangbang(BangBangParams(tau1=1.2e-3, tau_c=7.5e-3, n_cycles=1))
    assert p1.duration() == pytest.approx(16.2e-3, abs=1e-12)


def test_bangbang_acquire_at_refocusing_instant():
    p = build_bangbang(BangBangParams(tau1=1.2e-3, tau_c=2e-3, n_cycles=5))
    t = 0.0
    acquire_time = None
    for ev in p.expand():
        if isinstance(ev, Wait):
            t += ev.duration
        elif isinstance(ev, Acquire):
            acquire_time = t
    assert acquire_time == pytest.approx(2 * 5 * 2e-3, abs=1e-12)


def test_bangbang_refocuses_static_detuning():
    res = run_program(build_bangbang(BangBangParams(tau1=1e-3, tau_c=2e-3, n_cycles=7)), SINGLE)
    mag = echo(res, "echo")
    assert mag == pytest.approx(1.0, abs=1e-12)


def test_bangbang_tau1_equal_to_tau_c_refocuses_static_detuning():
    # the longest delay the train admits: the acquire ends the last cycle
    prog = build_bangbang(BangBangParams(tau1=2e-3, tau_c=2e-3, n_cycles=7), acquire_every=3)
    res = run_program(prog, SINGLE)
    times, mags = acquire_series(res, "echo")
    assert list(times) == pytest.approx([12e-3, 24e-3, 28e-3], abs=1e-12)
    for mag in mags:
        assert mag == pytest.approx(1.0, abs=1e-12)


def test_bangbang_n0_degenerates_to_pulse_wait_acquire():
    p = build_bangbang(BangBangParams(tau1=1e-3, tau_c=2e-3, n_cycles=0))
    kinds = [type(e).__name__ for e in p.events]
    assert kinds == ["Pulse", "Wait", "Acquire"]


def test_bangbang_acquire_every():
    p = build_bangbang(BangBangParams(tau1=1e-3, tau_c=2e-3, n_cycles=10), acquire_every=3)
    labels = [e for e in p.expand() if isinstance(e, Acquire)]
    assert len(labels) == 4  # cycles 3, 6, 9 and the final 10th
    total_pulses = sum(1 for e in p.expand() if isinstance(e, Pulse))
    assert total_pulses == 21  # initial + 2 per cycle


def test_bangbang_body_has_no_prep_and_ends_at_echo():
    p = build_bangbang_body(BangBangParams(tau1=1.2e-3, tau_c=2e-3, n_cycles=4))
    assert not any(isinstance(e, Acquire) for e in p.expand())
    assert p.duration() == pytest.approx(2 * 4 * 2e-3, abs=1e-12)
    first = p.events[0]
    assert isinstance(first, Wait)


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_hahn_echo(0.0)
    with pytest.raises(ValueError):
        build_inversion_recovery(-1.0)
    with pytest.raises(ValueError):
        BangBangParams(tau1=0.0, tau_c=1e-3, n_cycles=1)
    with pytest.raises(ValueError, match="no refocusing instant"):
        BangBangParams(tau1=1.5e-3, tau_c=1e-3, n_cycles=1)
