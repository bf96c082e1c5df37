"""Outside-in tracing of one ``blochdd`` CLI run.

The tracer wraps public functions of the package's modules from the
outside -- nothing under ``src/`` is changed.  A target is named by its
module-qualified name (``"ensemble.run_program"``); the function found
there at run time is replaced by a wrapper in every ``blochdd`` module
that holds a reference to it, so calls made through ``from .ensemble
import run_program`` aliases are traced too.  A name that no longer
exists is recorded in ``absent`` and its metrics read 0 instead of the
run crashing.

Spans carry a name, start, end, parent and run id; they are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the time its children cover; the self time of the root
span (``cli.self_s``) is the time inside the CLI that no span covers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

_clock = time.perf_counter

SERIALIZERS = (
    "ensemble.result_to_csv",
    "ensemble.result_to_json",
    "analysis.sweep_to_csv",
    "analysis.sweep_to_json",
    "analysis.fit_to_json",
    "tomography.ptm_to_csv",
    "tomography.process_result_to_json",
    "hamiltonian.critical_point_report_json",
)
SEQUENCE_FACTORIES = (
    "sequences.parse",
    "sequences.build_bangbang",
    "sequences.build_bangbang_body",
    "sequences.build_hahn_echo",
    "sequences.build_inversion_recovery",
)
SPAN_TARGETS = (
    *SERIALIZERS,
    *SEQUENCE_FACTORIES,
    "ensemble.write_text_atomic",
    "ensemble.run_program",
    "analysis.sweep_t2_vs_tauc",
    "analysis.fit_decay",
    "analysis.fit_inversion_recovery",
    "tomography.tomography_series",
    "tomography.run_process_tomography",
    "hamiltonian.find_critical_point",
    "hamiltonian.field_gradient",
    "hamiltonian.frequency_hessian",
)
# called per pulse or per wait: counted, not spanned, to keep overhead low;
# target -> (counter, amount taken from the call's result).  ``_wait_steps``
# is private: once the dt stepping goes, it is listed as absent and
# ``ensemble.noise_steps`` reads 0.
COUNT_TARGETS = {
    "bloch.rotate": ("bloch.rotate_calls", lambda result: 1),
    "ensemble._wait_steps": ("ensemble.wait_steps", len),
}
# generator method: count the events it yields and time their production
EXPAND_TARGET = "sequences.PulseProgram.expand"

ROOT = "cli.main"
TOMOGRAPHY_SPANS = ("tomography.tomography_series", "tomography.run_process_tomography")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    covered: float  # seconds covered by child spans and timed leaf work
    error: str | None = None


class Tracer:
    """Span and counter recorder for one process; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, _clock(), 0.0, parent, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span, error: BaseException | None = None) -> None:
        span.end = _clock()
        span.error = None if error is None else type(error).__name__
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].covered += span.end - span.start

    def leaf_time(self, seconds: float) -> None:
        """Work timed outside any span (generator steps) still counts as covered."""
        if self._stack:
            self._stack[-1].covered += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        for target in SPAN_TARGETS:
            self._patch(target, self._span_wrapper)
        for target in COUNT_TARGETS:
            self._patch(target, self._count_wrapper)
        self._patch(EXPAND_TARGET, self._expand_wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, target: str, make_wrapper) -> None:
        parts = target.split(".")
        owner = sys.modules.get("blochdd." + parts[0])
        for attr in parts[1:-1]:
            owner = getattr(owner, attr, None)
        original = getattr(owner, parts[-1], None) if owner is not None else None
        if not callable(original):
            self.absent.append(target)
            return
        wrapper = make_wrapper(target, original)
        if inspect.isclass(owner):
            self._restore.append((owner, parts[-1], original))
            setattr(owner, parts[-1], wrapper)
            return
        # replace every alias (``from .x import f``) across the package
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "blochdd" or mod_name.startswith("blochdd.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _span_wrapper(self, target, original):
        hook = _CALL_HOOKS.get(target)
        signature = inspect.signature(original) if hook else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            before = dict(self.counters) if hook else None
            span = self.open(target)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.close(span, exc)
                raise
            self.close(span)
            if hook:
                hook(self, signature.bind(*args, **kwargs).arguments, before)
            return result

        return wrapper

    def _count_wrapper(self, target, original):
        name, amount = COUNT_TARGETS[target]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            self.count(name, amount(result))
            return result

        return wrapper

    def _expand_wrapper(self, target, original):
        @functools.wraps(original)
        def wrapper(program, *args, **kwargs):
            start = _clock()
            inner = iter(original(program, *args, **kwargs))
            self._expand_done(_clock() - start, 0)
            return _TimedIterator(inner, self)

        return wrapper

    def _expand_done(self, seconds: float, n_events: int) -> None:
        self.count("sequences.expand_s", seconds)
        self.count("sequences.expanded_events", n_events)
        self.leaf_time(seconds)


class _TimedIterator:
    """Counts and times each step of a wrapped generator."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        start = _clock()
        try:
            item = next(self._inner)
        except StopIteration:
            self._tracer._expand_done(_clock() - start, 0)
            raise
        self._tracer._expand_done(_clock() - start, 1)
        return item


def _logical_events(events) -> int:
    """Primitive events a program stands for, with repeats multiplied out.

    Read from the program's structure, not from any expansion, so the
    figure stays comparable when the simulator stops unrolling repeats.
    """
    total = 0
    for ev in events:
        body = getattr(ev, "body", None)
        if body is not None and isinstance(getattr(ev, "count", None), int):
            total += ev.count * _logical_events(body)
        else:
            total += 1
    return total


def _run_program_hook(tracer: Tracer, arguments: dict, before: dict) -> None:
    program = arguments.get("program")
    spec = arguments.get("ensemble")
    size = getattr(spec, "size", None)
    events = getattr(program, "events", None)
    if not isinstance(size, int) or events is None:
        return
    tracer.count("ensemble.member_events", size * _logical_events(events))
    steps = tracer.counters.get("ensemble.wait_steps", 0) - before.get("ensemble.wait_steps", 0)
    tracer.count("ensemble.noise_steps", size * steps)


_CALL_HOOKS = {"ensemble.run_program": _run_program_hook}


# ---------------------------------------------------------------------------
# aggregation into per-layer metrics
# ---------------------------------------------------------------------------

def _inclusive(spans, names) -> float:
    return sum(s.end - s.start for s in spans if s.name in names)


def _self(spans, names) -> float:
    return sum(s.end - s.start - s.covered for s in spans if s.name in names)


def _calls(spans, names) -> int:
    return sum(1 for s in spans if s.name in names)


def _failures(spans, name, error) -> int:
    return sum(1 for s in spans if s.name == name and s.error == error)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced run."""
    spans = tracer.spans
    c = tracer.counters
    by_id = {s.id: s for s in spans}

    def under_tomography(span) -> bool:
        parent = span.parent
        while parent is not None:
            if by_id[parent].name in TOMOGRAPHY_SPANS:
                return True
            parent = by_id[parent].parent
        return False

    run_program_s = _inclusive(spans, {"ensemble.run_program"})
    member_events = c.get("ensemble.member_events", 0)
    return {
        "sequences.expanded_events": int(c.get("sequences.expanded_events", 0)),
        "sequences.build_s": _inclusive(spans, set(SEQUENCE_FACTORIES)) + c.get("sequences.expand_s", 0.0),
        "ensemble.run_program_s": run_program_s,
        "ensemble.run_program_calls": _calls(spans, {"ensemble.run_program"}),
        "ensemble.member_events": int(member_events),
        "ensemble.ns_per_member_event": (
            1e9 * run_program_s / member_events if member_events else 0.0
        ),
        "ensemble.noise_steps": int(c.get("ensemble.noise_steps", 0)),
        "bloch.rotate_calls": int(c.get("bloch.rotate_calls", 0)),
        "hamiltonian.gradient_calls": _calls(spans, {"hamiltonian.field_gradient"}),
        "hamiltonian.gradient_s": _inclusive(spans, {"hamiltonian.field_gradient"}),
        "hamiltonian.gradient_failures": _failures(
            spans, "hamiltonian.field_gradient", "DegenerateLevelsError"
        ),
        "hamiltonian.search_self_s": _self(spans, {"hamiltonian.find_critical_point"}),
        "hamiltonian.hessian_s": _inclusive(spans, {"hamiltonian.frequency_hessian"}),
        "cli.self_s": _self(spans, {ROOT}),
        "cli.serialize_s": _inclusive(spans, set(SERIALIZERS)),
        "cli.write_s": _inclusive(spans, {"ensemble.write_text_atomic"}),
        "analysis.fit_calls": _calls(spans, {"analysis.fit_decay", "analysis.fit_inversion_recovery"}),
        "analysis.fit_s": _inclusive(spans, {"analysis.fit_decay", "analysis.fit_inversion_recovery"}),
        "analysis.fit_failures": sum(
            _failures(spans, n, "FitError")
            for n in ("analysis.fit_decay", "analysis.fit_inversion_recovery")
        ),
        "analysis.sweep_self_s": _self(spans, {"analysis.sweep_t2_vs_tauc"}),
        "tomography.self_s": _self(spans, set(TOMOGRAPHY_SPANS)),
        "tomography.run_program_calls": sum(
            1 for s in spans if s.name == "ensemble.run_program" and under_tomography(s)
        ),
    }


def spans_to_records(tracer: Tracer) -> list:
    return [
        {
            "run_id": tracer.run_id,
            "id": s.id,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "self_s": s.end - s.start - s.covered,
            "error": s.error,
        }
        for s in tracer.spans
    ]
