"""Pulse-program representation, textual language, and sequence builders.

A program is an ordered tuple of events: ``Pulse``, ``Wait``, ``Acquire``
and ``Repeat``, which may nest and hold acquires at any depth, so decay
curves can be read out once per cycle.  A ``Pulse`` is hard
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
    pulse      = "pulse" , param , { param } ;     (* each name at most once *)
    param      = ( "area" | "phase" ) , "=" , angle
               | "rabi" , "=" , freq | "duration" , "=" , time ;
    wait       = "wait" , time ;
    repeat     = "repeat" , INT , "{" , program , "}" ;
    acquire    = "acquire" , IDENT ;
    time       = NUMBER , [ "s" | "ms" | "us" ] ;          (* bare = s *)
    freq       = NUMBER , [ "Hz" | "kHz" | "MHz" ] ;       (* bare = Hz *)
    angle      = [ SIGN ] , [ NUMBER ] , "pi" , [ "/" NUMBER ]
               | NUMBER , [ "rad" | "deg" ] ;              (* bare = deg *)

Units are normalized to seconds, hertz and radians; bare angles follow the
NMR convention and are read as degrees.  Inside a pulse a parameter name is
never a unit, so a bare number may be followed directly by the next
parameter.  Nor is a statement keyword, so a bare number may end a
statement with no separator before the next (``wait 3 pulse area=pi``).
A negative ``area`` is normalized to a positive area with the phase
advanced by pi (same axis, reversed sense).
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


@dataclass(frozen=True)
class PulseProgram:
    """Immutable executable pulse sequence."""

    events: tuple  # tuple[Event, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def expand(self, keep=None) -> Iterator[Event]:
        """Yield primitive events (Pulse/Wait/Acquire) with repeats unrolled.

        A repeat for which ``keep(repeat)`` is true is yielded whole instead.
        """

        def walk(events):
            for ev in events:
                if isinstance(ev, Repeat) and not (keep and keep(ev)):
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
  | (?P<newline>\n)
  | (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# The units of each quantity, as factors to its SI unit.  A bare number is
# SI, and a bare angle is in degrees (the NMR convention).  ``pi`` may stand
# alone and take a divisor.
_UNITS = {
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
    "angle": {"rad": 1.0, "deg": math.pi / 180, "pi": math.pi},
}
# The quantity of each pulse parameter.  Inside a pulse these names start
# the next parameter and are never read as units.
_PULSE_PARAMS = {"area": "angle", "rabi": "frequency", "duration": "time", "phase": "angle"}
# The statement keywords: each starts the next statement, never a unit.
_STATEMENTS = ("pulse", "wait", "acquire", "repeat")


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
        if kind != "skip":
            tokens.append(_Token(kind, s, line, col))
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

    def error(self, msg: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise SequenceError(msg, tok.line, tok.col)

    def expect(self, want: str, msg: str) -> _Token:
        """The next token, which must read ``want`` or be of kind ``want``."""
        tok = self.next()
        if want not in (tok.text, tok.kind):
            self.error(msg, tok)
        return tok

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

    def quantity(self, kind: str, stops=()) -> float:
        """A ``kind`` of :data:`_UNITS` in its SI unit: a number and an
        optional unit, or for an angle ``[sign] [coef] pi [/ div]``.  An
        identifier after the number is its unit unless it is in ``stops`` or
        starts a statement (:data:`_STATEMENTS`)."""
        first = tok = self.peek()
        sign = 1.0
        if kind == "angle" and tok.text in ("+", "-"):
            sign = -1.0 if self.next().text == "-" else 1.0
            tok = self.peek()
        if kind == "angle" and tok.kind != "number":
            if tok.text != "pi":
                self.error(f"expected an angle, got {tok.text!r}", tok)
            value = sign
        else:
            value = sign * self.parse_number()
        units = _UNITS[kind]
        unit = self.peek()
        if unit.kind == "ident" and unit.text not in stops and unit.text not in _STATEMENTS:
            if unit.text not in units:
                self.error(f"unknown {kind} unit {unit.text!r}")
            value *= units[self.next().text]
            if unit.text == "pi" and self.peek().text == "/":
                self.next()
                div_tok = self.peek()
                div = self.parse_number()
                if div == 0:
                    self.error("division by zero in angle", div_tok)
                value /= div
        else:
            value *= units["deg"] if kind == "angle" else 1.0
        if kind == "time" and value < 0:
            self.error("negative duration", first)
        return value

    # -- statements ----------------------------------------------------

    def parse_program(self, nested: bool = False) -> tuple:
        """The statements to the end of the text, or to a ``nested`` body's '}'."""
        events = []
        while True:
            while self.peek().kind == "newline" or self.peek().text == ";":
                self.next()
            tok = self.peek()
            if tok.kind == "end" and nested:
                self.error("missing closing '}'")
            if tok.text == "}" and not nested:
                self.error("unmatched '}'")
            if tok.kind == "end" or tok.text == "}":
                return tuple(events)
            events.append(self.parse_statement())

    def parse_statement(self) -> Event:
        tok = self.next()
        if tok.kind != "ident":
            self.error(f"expected a statement, got {tok.text!r}", tok)
        if tok.text == "pulse":
            return self.parse_pulse(tok)
        if tok.text == "wait":
            return self.build(tok, Wait, self.quantity("time"))
        if tok.text == "acquire":
            return Acquire(self.expect("ident", "acquire needs a label").text)
        if tok.text == "repeat":
            count_tok = self.next()
            if count_tok.kind != "number" or not re.fullmatch(r"\d+", count_tok.text):
                self.error("repeat needs a positive integer count", count_tok)
            self.expect("{", "expected '{' after repeat count")
            body = self.parse_program(nested=True)
            self.expect("}", "expected '}'")
            # int() too: a count of over 4300 digits is a ValueError
            return self.build(tok, lambda: Repeat(int(count_tok.text), body))
        self.error(f"unknown statement {tok.text!r}", tok)

    def parse_pulse(self, head: _Token) -> Pulse:
        params: dict[str, float] = {}
        while self.peek().text in _PULSE_PARAMS:
            name = self.next()
            if name.text in params:
                self.error(f"pulse parameter {name.text!r} given twice", name)
            self.expect("=", f"expected '=' after {name.text!r}")
            params[name.text] = self.quantity(_PULSE_PARAMS[name.text], stops=_PULSE_PARAMS)
        if not params:
            self.error("pulse needs parameters (area= or rabi=/duration=)", head)
        if params.get("area", 0.0) < 0:
            # reversed rotation: same axis area, phase advanced by pi
            params.update(area=-params["area"], phase=params.get("phase", 0.0) + math.pi)
        return self.build(head, Pulse, **params)


def parse(text: str) -> PulseProgram:
    """Parse sequence-language source into a :class:`PulseProgram`."""
    return PulseProgram(_Parser(text).parse_program())


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


def _bangbang_cycles(p: BangBangParams, pulse_spec: PulseSpec):
    """``cycles(k, label)``: k pi,-pi cycles, the echo read as ``label`` in the last.

    With pulses every tau_c after the delay tau1 <= tau_c, the static-detuning
    phase integral returns to zero (tau_c - tau1) into the trailing wait of a
    cycle: the acquire sits there, and the remaining tau1 completes the period.
    """
    pi = pulse_spec.make(math.pi, 0.0)
    minus_pi = pulse_spec.make(math.pi, math.pi)  # -pi as phase-advanced pi
    plain = (pi, Wait(p.tau_c), minus_pi, Wait(p.tau_c))
    refocus = (Wait(p.tau_c - p.tau1),) if p.tau_c > p.tau1 else ()

    def cycles(k: int, label: str = "echo") -> tuple:
        read = (pi, Wait(p.tau_c), minus_pi, *refocus, Acquire(label), Wait(p.tau1))
        return ((Repeat(k - 1, plain),) if k > 1 else ()) + read

    return cycles


def _bangbang_train(p: BangBangParams, pulse_spec: PulseSpec, acquire_every: int | None) -> list:
    """The train after the preparation pulse: tau1, then the pi,-pi cycles.

    An ``echo`` acquire follows every ``acquire_every``-th cycle and the
    last one (only the last for None), at the refocusing instant.
    """
    if acquire_every is not None and acquire_every < 1:
        raise ValueError(f"acquire_every must be >= 1, got {acquire_every}")
    events: list[Event] = [Wait(p.tau1)]
    n = p.n_cycles
    if n == 0:
        return events + [Acquire("echo")]
    cycles = _bangbang_cycles(p, pulse_spec)
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
    injected by the tomography driver.  At ``n_cycles = 0`` it is the
    empty program, the identity.
    """
    return PulseProgram(_bangbang_series(p.tau1, p.tau_c, [p.n_cycles], pulse_spec).events[:-1])  # all but its read


def _bangbang_series(tau1: float, tau_c: float, counts, pulse_spec: PulseSpec) -> PulseProgram:
    """The bare train (no preparation pulse) read at each of the ascending
    cycle counts ``counts``: an acquire labelled ``n<N>`` at the refocusing
    instant ``2*N*tau_c`` of each N (t = 0 for N = 0), and the program ends
    at the last.

    Up to the acquire of N it is the series of N alone, the N-cycle
    :func:`build_bangbang_body` and its read, except that each earlier
    read splits its cycle's trailing wait tau_c into tau_c - tau1 and tau1.
    """
    cycles = _bangbang_cycles(BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=max(counts)), pulse_spec)
    events: list[Event] = [Acquire("n0")] if counts[0] == 0 else []
    events.append(Wait(tau1))
    done = 0
    for n in counts:
        if n > 0:
            events.extend(cycles(n - done, f"n{n}"))
            done = n
    return PulseProgram(tuple(events[:-1]))  # not the tau1 after the last read
