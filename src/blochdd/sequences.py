"""Pulse-program representation, textual language, and sequence builders.

A program is an ordered tuple of events: ``Pulse``, ``Wait``, ``Acquire``
and ``Repeat`` (one nesting level of acquires inside repeats is allowed,
so decay curves can be read out once per cycle).  A ``Pulse`` is hard
(``area``) or finite (``rabi`` and ``duration``) about the equatorial
axis at ``phase``.  Each event checks its own values when it is made:
every pulse value and every wait must be finite, and a repeat's count
positive.  The parser reports a failed check as a :class:`SequenceError`
at the statement's line and column.

Textual form -- one statement per line or separated by ``;``, comments
start with ``#``::

    pulse area=pi/2 phase=0
    wait 1.2ms
    repeat 1000 {
      pulse area=pi phase=0
      wait 2ms
      pulse area=pi phase=180
      wait 2ms
    }
    acquire echo

Grammar (EBNF)::

    program    = { statement , { ";" | NEWLINE } } ;
    statement  = pulse | wait | repeat | acquire ;
    pulse      = "pulse" , param , { param } ;
    param      = ( "area" "=" angle ) | ( "phase" "=" angle )
               | ( "rabi" "=" freq ) | ( "duration" "=" time ) ;
    wait       = "wait" , time ;
    repeat     = "repeat" , INT , "{" , program , "}" ;
    acquire    = "acquire" , IDENT ;
    time       = NUMBER , [ "s" | "ms" | "us" ] ;          (* bare = s *)
    freq       = NUMBER , [ "Hz" | "kHz" | "MHz" ] ;       (* bare = Hz *)
    angle      = [ SIGN ] , [ NUMBER ] , "pi" , [ "/" NUMBER ]
               | NUMBER , [ "rad" | "deg" ] ;              (* bare = deg *)

Units are normalized internally to seconds, hertz and radians.  Bare
duration/frequency numbers are SI (s, Hz); bare angle numbers follow the
NMR convention and are read as degrees -- write ``rad`` or a pi-form for
radians.  A negative ``area`` is normalized to a positive area with the
phase advanced by pi (same axis, reversed sense).

``serialize`` emits the canonical form: seconds/hertz/radians with
explicit unit suffixes at 17 significant digits, so
``parse(serialize(p)) == p`` exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "Pulse",
    "Wait",
    "Acquire",
    "Repeat",
    "PulseProgram",
    "SequenceError",
    "parse",
    "serialize",
    "PulseSpec",
    "HARD_PULSES",
    "BangBangParams",
    "build_hahn_echo",
    "build_inversion_recovery",
    "build_bangbang",
    "build_bangbang_body",
]


@dataclass(frozen=True)
class Pulse:
    """One control pulse: ideal ("hard", zero duration) or finite.

    Hard mode sets ``area`` (radians); finite mode sets ``rabi`` (Hz)
    and ``duration`` (s).  ``phase`` (radians) selects the equatorial
    rotation axis in both modes.  Every value given must be finite.
    """

    phase: float = 0.0
    area: float | None = None
    rabi: float | None = None
    duration: float | None = None

    def __post_init__(self) -> None:
        for name in ("phase", "area", "rabi", "duration"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"pulse {name} must be finite, got {value}")
        hard = self.area is not None
        finite = self.rabi is not None or self.duration is not None
        if hard and finite:
            raise ValueError("give either area (hard) or rabi+duration (finite), not both")
        if hard:
            if not self.area > 0:
                raise ValueError(f"pulse area must be positive, got {self.area}")
        else:
            if self.rabi is None or self.duration is None:
                raise ValueError("finite pulse needs both rabi and duration")
            if not self.rabi > 0:
                raise ValueError(f"rabi must be positive, got {self.rabi}")
            if not self.duration > 0:
                raise ValueError(f"pulse duration must be positive, got {self.duration}")

    @property
    def mode(self) -> str:
        return "hard" if self.area is not None else "finite"

    @property
    def elapsed(self) -> float:
        """Wall-clock length of the pulse in seconds (0 for hard)."""
        return 0.0 if self.area is not None else float(self.duration)


@dataclass(frozen=True)
class Wait:
    duration: float  # seconds, >= 0

    def __post_init__(self) -> None:
        if not self.duration >= 0:
            raise ValueError(f"wait duration must be non-negative, got {self.duration}")
        if not math.isfinite(self.duration):
            raise ValueError("wait duration must be finite")


@dataclass(frozen=True)
class Acquire:
    label: str


Event = Union[Pulse, Wait, Acquire, "Repeat"]


@dataclass(frozen=True)
class Repeat:
    count: int
    body: tuple  # tuple[Event, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"repeat count must be a positive integer, got {self.count}")
        object.__setattr__(self, "body", tuple(self.body))
        # an inner repeat has checked its own body, so one level down suffices
        if any(isinstance(ev, Repeat) and any(isinstance(e, Acquire) for e in ev.body)
               for ev in self.body):
            raise ValueError("acquire events may sit at most one repeat level deep")


@dataclass(frozen=True)
class PulseProgram:
    """Immutable executable pulse sequence."""

    events: tuple  # tuple[Event, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def expand(self) -> Iterator[Event]:
        """Yield primitive events (Pulse/Wait/Acquire) with repeats unrolled."""

        def walk(events):
            for ev in events:
                if isinstance(ev, Repeat):
                    for _ in range(ev.count):
                        yield from walk(ev.body)
                else:
                    yield ev

        return walk(self.events)

    def _fold(self, leaf):
        """Sum of ``leaf(event)`` over the expanded events, a repeat as count x body."""

        def walk(events):
            return sum(ev.count * walk(ev.body) if isinstance(ev, Repeat) else leaf(ev)
                       for ev in events)

        return walk(self.events)

    def duration(self) -> float:
        """Total expanded duration in seconds (hard pulses take no time)."""

        def elapsed(ev):
            if isinstance(ev, Wait):
                return ev.duration
            return ev.elapsed if isinstance(ev, Pulse) else 0.0

        return float(self._fold(elapsed))

    def expanded_count(self) -> int:
        """Number of primitive events :meth:`expand` yields, without expanding."""
        return self._fold(lambda ev: 1)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class SequenceError(ValueError):
    """Syntax or validation error in sequence text, with line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}=;/+-])
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
_FREQ_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6}


@dataclass
class _Token:
    kind: str  # number | ident | punct | newline | end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        s = m.group()
        if kind == "bad":
            raise SequenceError(f"unexpected character {s!r}", line, col)
        if kind not in ("space", "comment"):
            tokens.append(_Token("newline" if kind == "newline" else kind, s, line, col))
        if kind == "newline":
            line += 1
            col = 1
        else:
            col += len(s)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def skip_separators(self) -> None:
        while self.peek().kind == "newline" or self.peek().text == ";":
            self.next()

    def error(self, msg: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise SequenceError(msg, tok.line, tok.col)

    def build(self, head: _Token, factory, *args, **kw):
        """``factory(...)``; a ValueError it raises names the statement at ``head``."""
        try:
            return factory(*args, **kw)
        except ValueError as exc:
            self.error(str(exc), head)

    # -- value parsers ------------------------------------------------

    def parse_number(self) -> float:
        tok = self.next()
        if tok.kind != "number":
            self.error(f"expected a number, got {tok.text!r}", tok)
        return float(tok.text)

    def parse_time(self) -> float:
        tok = self.peek()
        value = self.parse_number()
        unit = 1.0
        if self.peek().kind == "ident":
            name = self.peek().text
            if name in _TIME_UNITS:
                unit = _TIME_UNITS[name]
                self.next()
            else:
                self.error(f"unknown time unit {name!r}")
        value *= unit
        if value < 0:
            self.error("negative duration", tok)
        return value

    def parse_freq(self) -> float:
        value = self.parse_number()
        unit = 1.0
        if self.peek().kind == "ident":
            name = self.peek().text
            if name in _FREQ_UNITS:
                unit = _FREQ_UNITS[name]
                self.next()
            else:
                self.error(f"unknown frequency unit {name!r}")
        return value * unit

    def parse_angle(self) -> float:
        # [sign] [coef] pi [/ divisor]  |  number [rad|deg]
        sign = 1.0
        tok = self.peek()
        if tok.text in ("+", "-"):
            sign = -1.0 if tok.text == "-" else 1.0
            self.next()
            tok = self.peek()
        coef = None
        if tok.kind == "number":
            coef = sign * self.parse_number()
            sign = 1.0
        if self.peek().kind == "ident" and self.peek().text == "pi":
            self.next()
            value = (coef if coef is not None else 1.0) * math.pi * sign
            if self.peek().text == "/":
                self.next()
                div = self.parse_number()
                if div == 0:
                    self.error("division by zero in angle")
                value /= div
            return value
        if coef is None:
            self.error(f"expected an angle, got {tok.text!r}", tok)
        # plain number: explicit rad/deg, bare defaults to degrees
        if self.peek().kind == "ident":
            name = self.peek().text
            if name == "rad":
                self.next()
                return coef
            if name == "deg":
                self.next()
                return math.radians(coef)
            self.error(f"unknown angle unit {name!r}")
        return math.radians(coef)

    # -- statements ----------------------------------------------------

    def parse_program(self, stop_at_brace: bool = False) -> tuple:
        events = []
        while True:
            self.skip_separators()
            tok = self.peek()
            if tok.kind == "end":
                if stop_at_brace:
                    self.error("missing closing '}'")
                break
            if tok.text == "}":
                if not stop_at_brace:
                    self.error("unmatched '}'")
                break
            events.append(self.parse_statement())
        return tuple(events)

    def parse_statement(self) -> Event:
        tok = self.next()
        if tok.kind != "ident":
            self.error(f"expected a statement, got {tok.text!r}", tok)
        if tok.text == "pulse":
            return self.parse_pulse(tok)
        if tok.text == "wait":
            return self.build(tok, Wait, self.parse_time())
        if tok.text == "acquire":
            name = self.next()
            if name.kind != "ident":
                self.error("acquire needs a label", name)
            return Acquire(name.text)
        if tok.text == "repeat":
            count_tok = self.next()
            if count_tok.kind != "number" or not re.fullmatch(r"\d+", count_tok.text):
                self.error("repeat needs a positive integer count", count_tok)
            brace = self.next()
            if brace.text != "{":
                self.error("expected '{' after repeat count", brace)
            body = self.parse_program(stop_at_brace=True)
            closing = self.next()
            if closing.text != "}":
                self.error("expected '}'", closing)
            # int() too: a count of over 4300 digits is a ValueError
            return self.build(tok, lambda: Repeat(int(count_tok.text), body))
        self.error(f"unknown statement {tok.text!r}", tok)

    def parse_pulse(self, head: _Token) -> Pulse:
        params: dict[str, float] = {}
        while self.peek().kind == "ident" and self.peek().text in (
            "area",
            "phase",
            "rabi",
            "duration",
        ):
            key = self.next().text
            eq = self.next()
            if eq.text != "=":
                self.error(f"expected '=' after {key!r}", eq)
            if key in ("area", "phase"):
                params[key] = self.parse_angle()
            elif key == "rabi":
                params[key] = self.parse_freq()
            else:
                params[key] = self.parse_time()
        if not params:
            self.error("pulse needs parameters (area= or rabi=/duration=)", head)
        phase = params.pop("phase", 0.0)
        area = params.pop("area", None)
        rabi = params.pop("rabi", None)
        duration = params.pop("duration", None)
        if area is not None and area < 0:
            # reversed rotation: same axis area, phase advanced by pi
            area = -area
            phase = phase + math.pi
        return self.build(head, Pulse, phase=phase, area=area, rabi=rabi, duration=duration)


def parse(text: str) -> PulseProgram:
    """Parse sequence-language source into a :class:`PulseProgram`."""
    parser = _Parser(text)
    events = parser.parse_program()
    return PulseProgram(events)


# ---------------------------------------------------------------------------
# serialization (canonical form)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    # 17 significant digits: exact float round-trip, well past the
    # 12-digit minimum the canonical form guarantees.
    return format(float(x), ".16e")


def _serialize_events(events, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    for ev in events:
        if isinstance(ev, Pulse):
            if ev.mode == "hard":
                lines.append(f"{pad}pulse area={_fmt(ev.area)}rad phase={_fmt(ev.phase)}rad")
            else:
                lines.append(
                    f"{pad}pulse rabi={_fmt(ev.rabi)}Hz duration={_fmt(ev.duration)}s "
                    f"phase={_fmt(ev.phase)}rad"
                )
        elif isinstance(ev, Wait):
            lines.append(f"{pad}wait {_fmt(ev.duration)}s")
        elif isinstance(ev, Acquire):
            lines.append(f"{pad}acquire {ev.label}")
        elif isinstance(ev, Repeat):
            lines.append(f"{pad}repeat {ev.count} {{")
            _serialize_events(ev.body, indent + 1, lines)
            lines.append(f"{pad}}}")
        else:
            raise TypeError(f"unknown event type {type(ev).__name__}")


def serialize(program: PulseProgram) -> str:
    """Canonical one-statement-per-line form; inverse of :func:`parse`."""
    lines: list[str] = []
    _serialize_events(program.events, 0, lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical sequence builders
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseSpec:
    """How builders realize nominal rotation angles.

    ``rabi=None`` produces ideal hard pulses; a finite Rabi frequency
    (Hz) produces square pulses of duration ``area / (2*pi*rabi)``.
    """

    rabi: float | None = None

    def make(self, area: float, phase: float) -> Pulse:
        if self.rabi is None:
            return Pulse(phase=phase, area=area)
        return Pulse(phase=phase, rabi=self.rabi, duration=area / (2.0 * math.pi * self.rabi))


HARD_PULSES = PulseSpec()


@dataclass(frozen=True)
class BangBangParams:
    """Decoupling-train parameters.

    ``tau1`` is the delay between the initial (coherence-generating)
    pulse and the first decoupling pulse; ``tau_c`` the spacing of the
    pi,-pi train; ``n_cycles`` the number of pi,-pi pairs;
    ``initial_area`` the area of :func:`build_bangbang`'s preparation pulse.
    ``tau1 <= tau_c`` is required: a longer delay leaves the train no
    refocusing instant.
    """

    tau1: float
    tau_c: float
    n_cycles: int
    initial_area: float = math.pi / 2

    def __post_init__(self) -> None:
        if not self.tau1 > 0:
            raise ValueError(f"tau1 must be positive, got {self.tau1}")
        if not self.tau_c > 0:
            raise ValueError(f"tau_c must be positive, got {self.tau_c}")
        if self.tau1 > self.tau_c:
            raise ValueError(f"tau1 ({self.tau1:g} s) must not exceed tau_c ({self.tau_c:g} s): "
                             "the train would have no refocusing instant")
        if self.n_cycles < 0:
            raise ValueError(f"n_cycles must be >= 0, got {self.n_cycles}")


def build_hahn_echo(tau: float, pulse_spec: PulseSpec = HARD_PULSES) -> PulseProgram:
    """Two-pulse echo: pi/2 -- tau -- pi -- tau -- acquire ``echo``.

    Static detuning refocuses exactly at the acquire (2*tau after the
    first pulse), so the ensemble echo amplitude isolates irreversible
    decay.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return PulseProgram(
        (
            pulse_spec.make(math.pi / 2, 0.0),
            Wait(tau),
            pulse_spec.make(math.pi, 0.0),
            Wait(tau),
            Acquire("echo"),
        )
    )


def build_inversion_recovery(delay: float, pulse_spec: PulseSpec = HARD_PULSES) -> PulseProgram:
    """Longitudinal-relaxation probe: pi -- delay -- pi/2 -- acquire ``signal``.

    The readout pi/2 converts z into transverse signal: with phase-0
    pulses the signed z before the readout appears as -m_y.
    """
    if not delay > 0:
        raise ValueError(f"delay must be positive, got {delay}")
    return PulseProgram(
        (
            pulse_spec.make(math.pi, 0.0),
            Wait(delay),
            pulse_spec.make(math.pi / 2, 0.0),
            Acquire("signal"),
        )
    )


def _bangbang_train(p: BangBangParams, pulse_spec: PulseSpec, acquire_every: int | None) -> list:
    """The train after the preparation pulse: tau1, then the pi,-pi cycles.

    An ``echo`` acquire follows every ``acquire_every``-th cycle and the
    last one (only the last for None).  With pulses every tau_c after the
    delay tau1 <= tau_c, the static-detuning phase integral returns to
    zero (tau_c - tau1) into the trailing wait of a cycle: the acquire
    sits there, and the remaining tau1 completes the period.
    """
    if acquire_every is not None and acquire_every < 1:
        raise ValueError(f"acquire_every must be >= 1, got {acquire_every}")
    events: list[Event] = [Wait(p.tau1)]
    n = p.n_cycles
    if n == 0:
        return events + [Acquire("echo")]
    pi = pulse_spec.make(math.pi, 0.0)
    minus_pi = pulse_spec.make(math.pi, math.pi)  # -pi as phase-advanced pi
    plain = (pi, Wait(p.tau_c), minus_pi, Wait(p.tau_c))
    refocus = (Wait(p.tau_c - p.tau1),) if p.tau_c > p.tau1 else ()
    read = (pi, Wait(p.tau_c), minus_pi, *refocus, Acquire("echo"), Wait(p.tau1))

    def cycles(k: int) -> tuple:  # k cycles, read after the last
        return ((Repeat(k - 1, plain),) if k > 1 else ()) + read

    groups, rest = divmod(n, n + 1 if acquire_every is None else acquire_every)
    if groups > 0:
        events.append(Repeat(groups, cycles(acquire_every)))
    if rest > 0:
        events.extend(cycles(rest))
    return events


def build_bangbang(
    p: BangBangParams, pulse_spec: PulseSpec = HARD_PULSES, acquire_every: int | None = None
) -> PulseProgram:
    """Decoupling train: initial pulse -- tau1 -- N x (pi -- tau_c -- -pi -- tau_c).

    The ``echo`` acquire is placed at the refocusing instant ``2*N*tau_c``
    after the initial pulse (inside the final trailing wait); the full
    expanded duration is ``tau1 + 2*N*tau_c``.  ``acquire_every=m``
    additionally reads the echo every m-th cycle so a single run yields
    a decay curve.
    """
    prep = pulse_spec.make(p.initial_area, 0.0)
    return PulseProgram((prep, *_bangbang_train(p, pulse_spec, acquire_every)))


def build_bangbang_body(p: BangBangParams, pulse_spec: PulseSpec = HARD_PULSES) -> PulseProgram:
    """The decoupling train as a bare channel: no preparation pulse, no
    acquire, ending at the refocusing instant ``2*N*tau_c``.

    This is the process that tomography characterizes; preparations are
    injected by the tomography driver.
    """
    events = _bangbang_train(p, pulse_spec, None)
    return PulseProgram(tuple(events[:events.index(Acquire("echo"))]))
