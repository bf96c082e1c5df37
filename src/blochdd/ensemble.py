"""Ensemble simulation: inhomogeneous lines, stochastic baths, program runs.

An ensemble member is a Bloch vector with a static detuning drawn from
the inhomogeneous line, optionally riding on its own stochastic
detuning trajectory (Ornstein-Uhlenbeck or random telegraph).  Members
evolve independently; observables are weighted means.  A bath has one
implementation, the exact draw inside :func:`run_program`: per interval,
or in a lowered repeat of waits, hard pi pulses and acquires, per read
interval: under an OU bath the waits between two reads compose to one
exact step (draw scheme v3).  A telegraph bath's integral over any
interval, of the event path, a compiled repeat or a lowered one, is one
sum by parts over the flips in it (:meth:`_TelegraphBath.values`).

:func:`run_program` keeps the members in the toggling frame of the hard
pi pulses: a wait adds each member's signed phase to one number, a pi
pulse changes one angle and one sign shared by all members, and the
states themselves move only at the other pulses.  Observables are read
from that frame directly into the one table a run returns, whose acquire
rows are labelled; acquire magnitudes and phases are computed from its
rows.  A repeated cycle with no acquire is compiled when it runs with no
bath, or holds other pulses than hard pi and fits a draw block under a
telegraph bath: each member's cycle is one 3x3 map, so the states move
once per repeat with no bath, and under a telegraph bath once per flip,
not once per pulse.

Determinism contract: a run is a pure function of (program, ensemble
spec, noise model, relaxation, master seed).  Member ``i`` draws its
randomness from one stream derived only from ``(master_seed, i)``, numpy's
``SeedSequence(master_seed).spawn(n)[i]`` hashed for all members at once,
and consumes it in order, its OU value is stepped one interval (or, in
v3, one read interval) after another, each phase is one running sum in
event order, each interval's telegraph flip terms are summed in time
order, and a compiled repeat moves each member by runs of iterations set
by its flips alone, so results are bit-identical for any draw block
size.  Every observable is a numpy pairwise sum over all
members, not a BLAS call, so results do not depend on the number of
BLAS threads either (CI diffs the outputs at 1 and 2 threads).
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # numpy 2 loads it on first use: load it with the package, not in a run
from numpy.random.bit_generator import ISeedSequence

from .bloch import NO_RELAXATION, RelaxationParams, _check_real, _real, finite_pulse_matrix, rotate
from .sequences import Acquire, Pulse, PulseProgram, Repeat, Wait

__all__ = [
    "EnsembleSpec",
    "NoiseModel",
    "NO_NOISE",
    "SimulationResult",
    "SimulationBudgetError",
    "sample_detunings",
    "run_program",
    "acquire_series",
    "ou_fid_coherence",
    "ou_hahn_coherence",
    "calibrate_ou_sigma",
    "result_to_csv",
    "result_to_json",
    "write_text_atomic",
]

GAUSS_FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))  # 1/2.3548


@dataclass(frozen=True)
class EnsembleSpec:
    """Static detuning distribution of the ensemble.

    ``distribution``: ``gaussian`` or ``lorentzian`` (both parameterized
    by FWHM in Hz) or ``explicit`` (detunings given directly).
    ``sampling``: ``monte_carlo`` (seeded draws, uniform weights) or
    ``gauss_quadrature`` (Gauss-Hermite nodes and weights; gaussian
    only -- exact ensemble means at polynomial cost).
    """

    size: int
    distribution: str = "gaussian"
    fwhm: float | None = None
    detunings: tuple | None = None
    sampling: str = "monte_carlo"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        _check_real(self, "fwhm")
        if self.detunings is not None:
            listed = isinstance(self.detunings, (list, tuple)) or (
                isinstance(self.detunings, np.ndarray) and self.detunings.ndim == 1)
            if not (listed and all(map(_real, self.detunings))):
                raise TypeError(f"detunings must be a sequence of real numbers, got {self.detunings!r}")
        if self.distribution not in ("gaussian", "lorentzian", "explicit"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.sampling not in ("monte_carlo", "gauss_quadrature"):
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if self.distribution == "explicit":
            if self.detunings is None:
                raise ValueError("explicit distribution needs detunings")
            object.__setattr__(self, "detunings", tuple(float(d) for d in self.detunings))
            if self.size != len(self.detunings):
                raise ValueError("size must equal len(detunings) for explicit distribution")
            if not all(map(math.isfinite, self.detunings)):
                raise ValueError(f"detunings must be finite, got {self.detunings}")
        else:
            if self.fwhm is None or not 0 < self.fwhm < math.inf:
                raise ValueError(f"fwhm must be positive and finite, got {self.fwhm}")
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.sampling == "gauss_quadrature" and self.distribution != "gaussian":
            raise ValueError("gauss_quadrature sampling requires a gaussian distribution")


def sample_detunings(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return (detunings_hz, weights), each of shape ``(size,)``.

    Weights are uniform ``1/size`` for monte_carlo/explicit; for
    gauss_quadrature they are the Gauss-Hermite weights (summing to 1)
    and the detunings are the scaled nodes.  Deterministic for a given
    spec (the Monte-Carlo seed lives in the spec).
    """
    n = spec.size
    if spec.distribution == "explicit":
        return np.asarray(spec.detunings, dtype=float), np.full(n, 1.0 / n)
    if spec.sampling == "gauss_quadrature":
        # numpy's hermgauss overflows above ~400 nodes; scipy's is stable, and only this imports it
        from scipy.special import roots_hermite
        nodes, weights = roots_hermite(n)
        sigma = spec.fwhm * GAUSS_FWHM_TO_SIGMA
        return math.sqrt(2.0) * sigma * nodes, weights / math.sqrt(math.pi)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    if spec.distribution == "gaussian":
        sigma = spec.fwhm * GAUSS_FWHM_TO_SIGMA
        det = rng.normal(0.0, sigma, n)
    else:  # lorentzian: FWHM = 2 * scale
        det = rng.standard_cauchy(n) * (spec.fwhm / 2.0)
    return det, np.full(n, 1.0 / n)


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic detuning (z-axis) fluctuations seen by each member.

    ``ornstein_uhlenbeck``: stationary Gaussian noise with rms ``sigma``
    (Hz) and correlation time ``tau_b`` (s); the effective bath cutoff
    is ``omega_c ~ 1/tau_b``.  ``telegraph``: jumps between
    ``+-amplitude`` (Hz) at Poisson rate ``flip_rate`` (Hz).
    :func:`run_program` propagates both exactly, with no time step.
    """

    kind: str = "none"
    sigma: float = 0.0
    tau_b: float | None = None
    amplitude: float = 0.0
    flip_rate: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "ornstein_uhlenbeck", "telegraph"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        _check_real(self, "sigma", "tau_b", "amplitude", "flip_rate")
        if self.kind == "none":
            return
        if self.kind == "ornstein_uhlenbeck":
            if not 0 <= self.sigma < math.inf:
                raise ValueError(f"sigma must be >= 0 and finite, got {self.sigma}")
            if self.tau_b is None or not 0 < self.tau_b < math.inf:
                raise ValueError(f"tau_b must be positive and finite, got {self.tau_b}")
        else:
            if not 0 <= self.amplitude < math.inf:
                raise ValueError(f"amplitude must be >= 0 and finite, got {self.amplitude}")
            if self.flip_rate is None or not 0 < self.flip_rate < math.inf:
                raise ValueError(f"flip_rate must be positive and finite, got {self.flip_rate}")


NO_NOISE = NoiseModel()


# ---------------------------------------------------------------------------
# program execution
# ---------------------------------------------------------------------------

class SimulationBudgetError(RuntimeError):
    """A run exceeds ``_MAX_MEMBER_STATES`` or ``_MAX_MEMBER_STEPS``."""


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """The sample table of one program run (rows: see :func:`run_program`).

    Row ``i`` holds ``sample_times[i]``, the weighted-mean Bloch vector
    ``mean_bloch[i]`` (shaped like the initial state) and
    ``sample_labels[i]``, the label of its acquire or None.
    """

    sample_times: np.ndarray
    sample_labels: tuple  # str | None per row
    mean_bloch: np.ndarray
    n_members: int
    duration: float
    master_seed: int


def _one_state(result: SimulationResult) -> None:
    """Raise a ValueError naming the shape unless the table holds one state per row."""
    if result.mean_bloch.ndim != 2:
        raise ValueError(f"tables are read with one state per row, shape (n, 3); got {result.mean_bloch.shape}")


def _acquired(result: SimulationResult, label: str | None = None) -> tuple:
    """``(rows, sqrt(mx^2 + my^2), atan2(my, mx))`` of the acquires
    labelled ``label`` (every acquire for None) of a one-state table."""
    _one_state(result)
    rows = [i for i, lbl in enumerate(result.sample_labels)
            if lbl is not None and (label is None or lbl == label)]
    if label is not None and not rows:
        raise KeyError(f"no acquire labeled {label!r}")
    mx, my = result.mean_bloch[rows, :2].T
    # libm's atan2: numpy's SIMD arctan2 can differ from it in the last bit
    phases = np.fromiter(map(math.atan2, my.tolist(), mx.tolist()), float, len(rows))
    return rows, np.hypot(mx, my), phases


def acquire_series(result: SimulationResult, label: str) -> tuple[np.ndarray, np.ndarray]:
    """(times, magnitudes) over every occurrence of a label."""
    rows, mags, _ = _acquired(result, label)
    return result.sample_times[rows], mags


def _wait_steps(duration: float, dt: float) -> list[float]:
    """Split a wait into full dt steps plus a remainder (sum == duration).

    Not called by the package: ``run_program`` no longer steps waits.
    ``bench/tracer.py`` still lists it as a counting target and the
    benchmark's tests require every target to resolve; remove it together
    with that target.
    """
    if duration <= 0:
        return []
    k = int(math.floor(duration / dt + 1e-9))
    rem = duration - k * dt
    steps = [dt] * k
    if rem > 1e-15:
        steps.append(rem)
    return steps


# Program events are read this many at a time: a block of single events,
# or of a lowered repeat's read intervals (_Body); a compiled repeat
# (_Cycle) advances the run's time by whole iterations of about this many
# intervals.  Each member's bath draws come this many intervals (OU) or
# flips (telegraph) at most at a time.  It bounds memory only: each
# member's draws are consumed in stream order, the OU values are stepped
# one interval after another (_OUBath.steps), each phase is one running
# sum, a lowered interval's flip terms are summed in time order, and a
# compiled repeat's runs between flips carry across blocks, so results
# never depend on it.
_DRAW_BLOCK = 256
# A lowered repeat (_Body) sums its times t += h over whole iterations of
# about this many waits (16 kB) at a time.  It bounds memory only.
_TIME_CHUNK = 2048
# A Repeat body of waits, hard pi pulses and acquires of at most this many
# expanded events is lowered to arrays once per run (_Body).
_LOWERED_EVENTS = 4096
# Under a bath a compiled body (_Cycle) draws whole iterations, so it compiles
# only while an iteration's bath intervals fit the draw block at import.
_COMPILED_INTERVALS = _DRAW_BLOCK
# Work budget of one run: members x states x (expanded events + expected
# telegraph flips + 1 to form and read each state).  Bounds run time.
_MAX_MEMBER_STEPS = 2e9
# Member-states (members x states) of one run.  Each takes 24 bytes of state
# and ~57 bytes per read summed: 14.7 kB measured for a block of _DRAW_BLOCK
# reads, so the state array and one block of reads stay within 1 GB.
_MAX_MEMBER_STATES = 2**16
# Bytes of the per-member maps one run keeps (_Run.held): each finite pulse's
# and compiled body's at the held bath levels, 72 bytes a level.  Two bodies
# at the most levels a run holds (2**16 members, a telegraph bath's two),
# 18.9 MB, so a pi,-pi train keeps both pulses; past it the maps are built
# again at every use, with bit-identical results.
_PULSE_TABLE_BYTES = 2 * 72 * 2 * _MAX_MEMBER_STATES


def _ou_integral_bracket(r: float) -> float:
    """``2r - 3 + 4e^-r - e^-2r``: Var of the OU integral over ``h = r tau_b``
    in units of ``(sigma tau_b)^2``."""
    if r < 0.1:
        # the closed form cancels to O(r^3); sum its Taylor series instead
        return sum(
            (-1) ** n * (4 - 2**n) * r**n / math.factorial(n) for n in range(17, 2, -1)
        )
    return 2.0 * r + 4.0 * math.expm1(-r) - math.expm1(-2.0 * r)


def _ou_span(h: float, sigma: float, tau_b: float) -> tuple:
    """Exact one-interval OU moments ``(a, b, var_x, cov, var_int)``.

    Given ``x0``, the value after ``h`` has mean ``a x0`` and variance
    ``var_x``, the integral over ``h`` mean ``b x0`` and variance
    ``var_int``, and ``cov`` is their covariance (Gillespie, PRE 54, 2084
    (1996)).
    """
    r = h / tau_b
    one_minus_a = -math.expm1(-r)
    return (math.exp(-r), tau_b * one_minus_a, sigma**2 * -math.expm1(-2.0 * r),
            sigma**2 * tau_b * one_minus_a**2, (sigma * tau_b) ** 2 * _ou_integral_bracket(r))


def _cholesky(a, b, var_x, cov, var_int) -> tuple:
    """``(a, b, l11, l21, l22)`` of moments ``(a, b, var_x, cov, var_int)``
    (numbers or arrays): given ``x0`` and standard normals ``z1, z2``, the
    value is ``a x0 + l11 z1`` and the integral ``b x0 + l21 z1 + l22 z2``."""
    l11 = np.sqrt(var_x)
    l21 = cov / np.where(l11 > 0, l11, np.inf)
    return a, b, l11, l21, np.sqrt(np.maximum(var_int - l21 * l21, 0.0))


def _ou_factors(h: float, sigma: float, tau_b: float) -> tuple:
    """Exact one-interval OU draw as ``(a, b, l11, l21, l22)`` (:func:`_cholesky`
    of :func:`_ou_span`)."""
    return _cholesky(*_ou_span(h, sigma, tau_b))


def _compose(first: tuple, then: tuple, sign: float) -> tuple:
    """The span of waits ``first`` followed by ``then``, whose switching
    function is ``sign`` (+-1) times its own.  A span is ``(duration, signed
    duration, a, b, var_x, cov, var_int)``, the OU bath's moments as
    :func:`_ou_span`'s: the integral is the signed one, and ``b`` multiplies
    the value at the start of ``first``."""
    h1, s1, a1, b1, xx1, xi1, ii1 = first
    h2, s2, a2, b2, xx2, xi2, ii2 = then
    b2, xi2 = sign * b2, sign * xi2
    return (h1 + h2, s1 + sign * s2, a2 * a1, b1 + b2 * a1, a2 * a2 * xx1 + xx2, a2 * (xi1 + b2 * xx1) + xi2,
            ii1 + b2 * (2.0 * xi1 + b2 * xx1) + ii2)


def _span_power(span: tuple, n: int, parity: float) -> tuple:
    """``n`` iterations of ``span`` (``n >= 1``), each signed ``parity`` times
    the one before it, by doubling: O(log n) compositions."""
    out, sign = None, 1.0
    while True:
        if n & 1:
            out = span if out is None else _compose(out, span, sign)
            sign *= parity
        n >>= 1
        if not n:
            return out
        span, parity = _compose(span, span, parity), 1.0


class _OUBath:
    """One Ornstein-Uhlenbeck process per member, drawn exactly.

    ``x`` holds each member's current value.  Each member's stream gives
    its stationary start, then two standard normals per step:
    ``(z1, z2)`` per interval of the event path (draw scheme v2, by
    :func:`_ou_factors`), ``(z2, z1)`` per read interval of a lowered body
    (v3, :meth:`_Run.spans`), where ``z1`` drives the value and ``z2`` is
    the integral's own part (:func:`_cholesky`).  Both take the same
    :meth:`steps`, so the value passes between them exactly and no value
    depends on the blocks.
    """

    def __init__(self, model: NoiseModel, rngs: list):
        self.rngs = rngs
        self.sigma, self.tau_b = model.sigma, model.tau_b
        self.x = model.sigma * np.array([rng.standard_normal() for rng in rngs])

    def normals(self, n: int) -> np.ndarray:
        """``(m, n, 2)``: each member's next ``2 n`` standard normals, in stream order."""
        z = np.empty((len(self.rngs), n, 2))
        for member, rng in zip(z, self.rngs):
            rng.standard_normal(out=member)
        return z

    def steps(self, factors: np.ndarray, z: np.ndarray) -> tuple:
        """``(starts, integrals)`` of ``B`` steps from ``x``, each ``(B, m)``.

        ``factors`` are ``(5, B, 1)`` :func:`_cholesky` factors of each
        step and ``z`` ``(m, B, 2)`` its normals, ``z1`` first: one step
        after another, ``x' = a x + l11 z1``.  ``starts`` are the values at
        the start of each step and ``integrals`` the integrals over them.
        """
        a, b, l11, l21, l22 = factors
        z = np.ascontiguousarray(z.transpose(1, 2, 0))  # (B, 2, m)
        xs = np.empty((len(z) + 1, len(self.x)))
        xs[0] = self.x
        np.multiply(l11, z[:, 0], out=xs[1:])  # the kicks, then each row's carry
        for ak, prev, row in zip(a.ravel().tolist(), xs[:-1], xs[1:]):
            row += ak * prev
        self.x, starts = xs[-1].copy(), xs[:-1]  # x holds no view of the block
        integrals = b * starts
        integrals += l21 * z[:, 0]
        integrals += l22 * z[:, 1]
        return starts, integrals

    def block(self, lengths: np.ndarray, edges: np.ndarray) -> tuple:
        """``(starts, integrals)`` of intervals ``lengths``, each ``(B, m)``,
        by :meth:`steps`: their factors are built once per distinct length."""
        distinct, which = np.unique(lengths, return_inverse=True)
        rows = np.array([_ou_factors(h, self.sigma, self.tau_b) for h in distinct.tolist()])
        return self.steps(rows[which.ravel()].T[:, :, None], self.normals(len(lengths)))


class _TelegraphBath:
    """One random telegraph process per member, integrated exactly.

    Each member's stream gives its first sign (``random()`` below 0.5:
    +1), then exponential gaps ``_DRAW_BLOCK`` at a time, whose cumulative
    sums over the rate are the flip times, so the sign is
    piecewise constant between known times and its integral over any
    interval is exact.  The flips are kept sparse: :meth:`flips` reads
    the (member, time) pairs up to a time, and :meth:`values`, the one
    sum of an interval's flips, integrates them by parts from the signed
    time of each in its interval: on the event path's intervals
    (:meth:`block`), in a compiled repeat's iterations that flip
    (:meth:`_Run.cycle_maps`), and in a lowered body's read intervals
    (:meth:`spans`).
    """

    def __init__(self, model: NoiseModel, rngs: list):
        self.rngs = rngs
        self.amplitude = model.amplitude
        self.rate = model.flip_rate
        m = len(rngs)
        first, self.gaps = np.empty(m), np.empty((m, _DRAW_BLOCK))
        for i, rng in enumerate(rngs):  # each stream: its sign, then its first gaps
            first[i] = rng.random()
            rng.standard_exponential(out=self.gaps[i])
        self.sign = np.where(first < 0.5, 1.0, -1.0)
        self.next_flip = self.gaps[:, 0] / self.rate
        self.col = np.ones(m, dtype=np.intp)

    def flips(self, end: float) -> tuple:
        """``(members, times, signs)`` of every flip at or before ``end`` not
        read yet, and ``sign`` then holds each member's sign after ``end``.

        The flips come in rounds of every member's next one, so each
        member's are in time order; ``signs`` are the signs before each.
        """
        members, times, signs = [np.empty(0, dtype=np.intp)], [np.empty(0)], [np.empty(0)]
        width = self.gaps.shape[1]
        while True:
            idx = np.flatnonzero(self.next_flip <= end)
            if idx.size == 0:
                break
            members.append(idx)
            times.append(self.next_flip[idx])
            signs.append(self.sign[idx])
            self.sign[idx] = -signs[-1]
            # move each on to its next flip, refilling the gaps of those that ran out
            col = self.col[idx]
            for k in np.flatnonzero(col == width):
                self.gaps[idx[k]] = self.rngs[idx[k]].standard_exponential(width)
                col[k] = 0
            self.next_flip[idx] += self.gaps[idx, col] / self.rate
            self.col[idx] = col + 1
        return np.concatenate(members), np.concatenate(times), np.concatenate(signs)

    def values(self, start, length, rows, cols, lever, signs, carry) -> tuple:
        """``(starts, integrals, carry)`` of n values over L intervals of
        (signed) lengths ``length``, each ``(L, n)``: column j starts at
        ``start[j]``, and flip f, in interval ``rows[f]`` of column
        ``cols[f]``, comes ``lever[f]`` (signed time) after its start, after a
        value of sign ``signs[f]``; each column's flips in time order.  By
        parts, an interval's integral is ``A s_end length + 2A sum_f s_f
        lever_f``, ``s_end`` the sign at its end.  The flip terms are summed
        in time order, interval 0's from ``carry``; those in row L, after the
        last interval, are the new carry.  ``starts`` are the values at each
        interval's start."""
        shape = (len(length) + 1, len(start))
        terms, odd = np.zeros(shape), np.zeros(shape, dtype=bool)
        terms[0] = carry
        np.add.at(terms, (rows, cols), 2.0 * self.amplitude * signs * lever)
        np.logical_xor.at(odd, (rows, cols), True)
        # sides[r]: the value at the start of interval r, and at the end of r - 1
        sides = np.empty(shape)
        sides[0] = start
        sides[1:] = np.where(np.logical_xor.accumulate(odd[:-1], axis=0), -start, start)
        return sides[:-1], sides[1:] * length + terms[:-1], terms[-1].copy()

    def block(self, lengths: np.ndarray, edges: np.ndarray) -> tuple:
        """``(starts, integrals)`` as :meth:`_OUBath.block`, of the
        intervals between ``edges``, by :meth:`values`."""
        start = self.amplitude * self.sign
        members, times, signs = self.flips(edges[-1])
        k = np.searchsorted(edges[1:], times)  # edges[k] < f <= edges[k + 1]
        return self.values(start, np.diff(edges)[:, None], k, members, times - edges[k], signs, 0.0)[:2]

    def spans(self, body: "_Body", edges: np.ndarray, q0: int, first: int, signed: np.ndarray, end: float,
              carry: np.ndarray) -> tuple:
        """``(integrals, carry)`` of :meth:`values` over a lowered body's read
        intervals ``first ... first + L - 1`` (:meth:`_Run.spans`), of signed
        lengths ``signed``, from the flips up to ``end``, each located on the
        wait ``edges`` of iterations ``q0`` on: its lever is the signed time
        (:meth:`_Body.signed_time`) from the start of its read interval.  The
        carry holds the flip terms of interval ``first``, and then of
        ``first + L``."""
        start = self.amplitude * self.sign
        members, times, signs = self.flips(end)
        if not (len(times) or len(signed)):  # nothing flips, nothing ends: the carry stands
            return signed[:, None], carry
        w = np.searchsorted(edges[1:], times)  # edges[w] < f <= edges[w + 1]
        qf, jf = np.divmod(w, max(len(body.wait_h), 1))
        n_reads = len(body.read_waits)
        i = (q0 + qf) * n_reads + np.searchsorted(body.read_waits, jf, "right")  # the interval each lies in
        qs, js = np.divmod(np.maximum(i - 1, 0), max(n_reads, 1))  # it begins at read i - 1 of iteration qs
        g0 = np.where(i > 0, body.g[body.read_waits[js]], 0.0) if n_reads else 0.0  # (i = 0: at the start)
        lever = body.signed_time(q0 + qf - qs, jf, times - edges[w]) - g0
        return self.values(start, signed[:, None], i - first, members, lever, signs, carry)[1:]


class _StreamSeed(ISeedSequence):
    """Hands PCG64 one row of :func:`_stream_seeds`."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.state


def _stream_seeds(master_seed: int, n: int) -> np.ndarray:
    """``(n, 4)`` uint64, row i ``SeedSequence(master_seed).spawn(n)[i]
    .generate_state(4, np.uint64)``: numpy's hash (O'Neill's seed_seq) of
    each child's entropy, the seed's 32-bit words padded with zeros to the
    pool's 4 and then i, as uint32 array arithmetic over all members."""
    seed = int(np.random.SeedSequence(master_seed).entropy)  # numpy checks the seed
    words = [seed >> b & 0xFFFFFFFF for b in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.array([w], dtype=np.uint32) for w in words + [0] * (4 - len(words))]
    words.append(np.arange(n, dtype=np.uint32))
    const = 0x43B0D7E5

    def hashmix(value, mult=0x931E8875):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        value = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return value ^ value >> np.uint32(16)

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    const = 0x8B51F9DD  # generate_state: the same step, on its own constants
    out = np.empty((n, 8), dtype="<u4")  # little-endian pairs of 32-bit words
    for k in range(8):
        out[:, k] = hashmix(pool[k % 4], 0x58F38DED)
    return out.view("<u8").astype(np.uint64, copy=False)


def _check_budget(program: PulseProgram, ensemble: EnsembleSpec, noise: NoiseModel | None, n_states: int) -> None:
    """Raise :class:`SimulationBudgetError` if a run would exceed
    ``_MAX_MEMBER_STATES`` or ``_MAX_MEMBER_STEPS``, a telegraph bath's flips counted."""
    if ensemble.size * n_states > _MAX_MEMBER_STATES:
        raise SimulationBudgetError(
            f"{ensemble.size} members x {n_states} states exceeds the limit of "
            f"{_MAX_MEMBER_STATES} member-states; use fewer members"
        )
    n_events = program.expanded_count()
    flips = noise.flip_rate * program.duration() if noise is not None and noise.kind == "telegraph" else 0
    if ensemble.size * n_states * (n_events + flips + 1) > _MAX_MEMBER_STEPS:
        raise SimulationBudgetError(
            f"{ensemble.size} members x {n_states} states x ({n_events} events + "
            f"{flips:.3g} telegraph flips) exceeds the budget of {_MAX_MEMBER_STEPS:.0f}; "
            "use fewer members or a shorter program"
        )


def _decay(relax: RelaxationParams, taus) -> np.ndarray | None:
    """``(e2, e2, e1)`` after ``taus`` of free evolution, shaped ``taus.shape + (3,)``.

    None without relaxation.  Toward ``z_equilibrium = 0`` relaxation is
    this diagonal factor alone, which commutes with z rotations and with
    hard pi pulses; toward any other value the factor needs an offset.
    """
    if relax.t1 == relax.t2 == math.inf:
        return None
    taus = np.asarray(taus, dtype=float)
    e2 = np.exp(-taus / relax.t2)
    return np.stack([e2, e2, np.exp(-taus / relax.t1)], axis=-1)


def _pi_angle(alpha: float, phase: float) -> float:
    """``2 phase - alpha`` in [-pi, pi], the frame angle after a hard pi pulse;
    ``phase`` is reduced by atan2 of its cos and sin, as the pulse's axis is."""
    return math.remainder(2.0 * math.atan2(math.sin(phase), math.cos(phase)) - alpha, 2.0 * math.pi)


def _materialize(u: np.ndarray, phase: np.ndarray, alpha: float, sign: float, decay) -> np.ndarray:
    """The states ``D (u R_z(2 pi phase)) P`` of a toggling frame, ``(m, k, 3)``:
    ``(x, sign y)`` turns by ``sign 2 pi phase + alpha`` and z by ``sign``."""
    angle = sign * (2.0 * math.pi * phase[:, None]) + alpha  # (m, 1): a member's states turn alike
    c, s = np.cos(angle), np.sin(angle)
    x, y = u[..., 0], sign * u[..., 1]
    v = np.empty_like(u)
    v[..., 0] = x * c - y * s
    v[..., 1] = x * s + y * c
    v[..., 2] = sign * u[..., 2]
    if decay is not None:
        v *= decay
    return v


def _weighted_sums(u: np.ndarray, weights: np.ndarray, phases: np.ndarray, alphas: np.ndarray,
                   signs: np.ndarray, decay) -> np.ndarray:
    """Weighted member sums of toggling-frame states at R points, flat ``(R, 3 k)``.

    Row ``r`` sums ``w_i D_r (u_i R_z(2 pi phases[r, i])) P_r`` over the
    members ``i``: ``phases`` is ``(R, m)``, ``P_r`` the frame ``(alphas[r],
    signs[r])`` and ``decay`` None or ``(R, 3)``.  The member sums are numpy
    pairwise sums, not BLAS calls: each row is summed alone, in the same
    order whatever R is and on any number of threads.
    """
    angle = 2.0 * math.pi * phases[:, None, :]  # (R, 1, m)
    c, s = np.cos(angle), np.sin(angle)
    # members on the last, contiguous axis: each sum is one pairwise sum
    wx, wy, wz = np.ascontiguousarray(u.T) * weights  # each (k, m)
    x = (c * wx - s * wy).sum(axis=-1)  # (R, k)
    # P commutes with R_z up to the sign of the angle, so it acts on the sum
    signs = signs[:, None]
    y = (s * wx + c * wy).sum(axis=-1) * signs
    ca, sa = np.cos(alphas)[:, None], np.sin(alphas)[:, None]
    means = np.empty(x.shape + (3,))
    means[..., 0], means[..., 1], means[..., 2] = x * ca - y * sa, x * sa + y * ca, wz.sum(axis=-1) * signs
    if decay is not None:
        means *= decay[:, None, :]
    return means.reshape(len(means), -1)


class _Body:
    """A Repeat body of waits, hard pi pulses and acquires, lowered to arrays.

    The pi pulses of the body map the frame's angle ``alpha -> parity
    alpha + turn`` (see :func:`run_program`), and those up to a point
    within it ``alpha -> sign alpha + angle``; ``turn`` and each ``angle``
    lie in [-pi, pi].  Kept per wait of the body: its length and sign
    within the body, and ``g``, the signed time up to each wait (W + 1
    entries); per read (each acquire, or each event under
    ``record="events"``): its label, the count of waits up to it, and its
    sign and angle within the body.  The run steps by read intervals
    (:meth:`_Run.spans`), from the composed tables of :meth:`spans`.
    """

    def __init__(self, events: list, record: str):
        waits, reads = [], []
        sign, angle = 1.0, 0.0
        for ev in events:
            if isinstance(ev, Wait):
                waits.append((ev.duration, sign))
            elif isinstance(ev, Pulse):
                sign, angle = -sign, _pi_angle(angle, ev.phase)
            if record == "events" or isinstance(ev, Acquire):
                reads.append((ev.label if isinstance(ev, Acquire) else None, len(waits), sign, angle))
        self.parity, self.turn = sign, angle
        self.wait_h = np.array([w[0] for w in waits], dtype=float)
        self.wait_sign = np.array([w[1] for w in waits], dtype=float)
        self.g = np.concatenate([[0.0], np.cumsum(self.wait_sign * self.wait_h)])
        self.read_labels = np.array([r[0] for r in reads], dtype=object)
        self.read_waits = np.array([r[1] for r in reads], dtype=np.intp)
        self.read_sign = np.array([r[2] for r in reads], dtype=float)
        self.read_angle = np.array([r[3] for r in reads], dtype=float)
        self.tables: dict = {}  # see spans

    def spans(self, bath, count: int) -> tuple:
        """The read intervals of ``count`` iterations under ``bath`` (or none),
        as ``(signed, drawn, factors)`` over their types: the waits' signed summed
        length, whether any wait lies in it, and under an OU bath the ``(5, T,
        1)`` :func:`_cholesky` factors of its waits composed (:func:`_compose`,
        draw scheme v3), else None; each signed within the body.  With R reads
        per iteration, type ``j <= R`` is the waits before read ``j`` of an
        iteration (``j = R``: after its last read) and type ``R + 1`` the last
        ones of an iteration and the first ones of the next, which counts with
        ``parity``; with no read, type 0 is all ``count`` iterations, composed
        by doubling.  Built once per run, and per ``count`` with no read."""
        key = None if len(self.read_waits) else count
        if key not in self.tables:
            ou = isinstance(bath, _OUBath)
            waits = {h: (h, h, *(_ou_span(h, bath.sigma, bath.tau_b) if ou else (1.0, 0.0, 0.0, 0.0, 0.0)))
                     for h in set(self.wait_h.tolist())}
            bounds = (0, *self.read_waits.tolist(), len(self.wait_h))
            spans = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                span = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
                for h, sign in zip(self.wait_h[lo:hi].tolist(), self.wait_sign[lo:hi].tolist()):
                    span = _compose(span, waits[h], sign)
                spans.append(span)
            drawn = np.diff(bounds) > 0
            if key is None:
                spans.append(_compose(spans[-1], spans[0], self.parity))
                drawn = np.append(drawn, drawn[0] | drawn[-1])
            else:
                spans = [_span_power(spans[0], count, self.parity)]
            cols = np.array(spans).T
            self.tables[key] = cols[1], drawn, np.array(_cholesky(*cols[2:]))[:, :, None] if ou else None
        return self.tables[key]

    def frame(self, q: np.ndarray, alpha: float, sign: float) -> tuple:
        """``(alphas, signs)`` of the frame before iterations ``q`` of a repeat
        entered with the frame ``(alpha, sign)``."""
        if self.parity > 0:
            return alpha + q * self.turn, sign
        odd = q % 2 == 1
        return np.where(odd, self.turn - alpha, alpha), np.where(odd, -sign, sign)

    def signed_time(self, d: np.ndarray, j: np.ndarray, part: np.ndarray) -> np.ndarray:
        """G, the body's signed-time function: the signed time from the start
        of an iteration to ``part`` into wait ``j`` of the ``d``-th iteration
        after it, each wait signed in the frame of the first."""
        odd = d % 2 if self.parity < 0 else 0
        return (odd if self.parity < 0 else d) * self.g[-1] + (1 - 2 * odd) * (self.g[j] + self.wait_sign[j] * part)


def _rz(cycles: np.ndarray, decay) -> np.ndarray:
    """``(n, 3, 3)`` matrices ``R_z(2 pi cycles) D``, ``D`` the diagonal ``decay``
    ``(3,)`` or the identity for None."""
    c, s = np.cos(2.0 * math.pi * cycles), np.sin(2.0 * math.pi * cycles)
    m = np.zeros((len(cycles), 3, 3))
    m[:, 0, 0] = m[:, 1, 1] = c
    m[:, 0, 1], m[:, 1, 0] = s, -s
    m[:, 2, 2] = 1.0
    if decay is not None:
        m *= decay  # column j times decay[j]: R_z, then D
    return m


def _power(ladder: list, rows: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``(len(rows), 3, 3)`` powers ``K[rows]^n`` (``n >= 0``) by repeated
    squaring: ``ladder[b]`` holds the maps ``K^(2^b)``, squared on as far as
    ``n`` needs, and the rungs of ``n``'s binary digits are multiplied
    lowest first, as :func:`numpy.linalg.matrix_power` does."""
    out = np.broadcast_to(np.eye(3), (len(rows), 3, 3)).copy()
    for b in range(int(n.max(initial=0)).bit_length()):
        if b == len(ladder):
            ladder.append(ladder[-1] @ ladder[-1])
        sel = np.flatnonzero(n >> b & 1)
        out[sel] = out[sel] @ ladder[b].take(rows[sel], axis=0)
    return out


class _Cycle:
    """A Repeat body of waits and pulses, compiled to per-member cycle maps;
    a finite pulse is a one-event ``_Cycle`` (:meth:`_Run.pulse`).

    With its bath value ``b`` held, member ``i``'s iteration of the body
    is one 3x3 map (row vectors, applied as ``u @ K``): the product, in
    body order, of ``R_z(2 pi (det_i + b) h) D(h)`` for each wait of
    length ``h`` (``D`` the relaxation factor of :func:`_decay`), of each
    finite pulse's matrix at ``det_i + b`` and of each hard pulse's
    matrix (:meth:`_Run.pulse_matrix`).  The run keeps these at its held
    bath levels (:meth:`_Run.held`).  An iteration in which a member's
    telegraph bath flips is built by :meth:`walk` from the drawn values
    instead.  ``lengths`` are the body's bath intervals, its waits and
    finite pulses, and ``period`` their exact sum.
    """

    def __init__(self, events: list, relax: RelaxationParams):
        self.events = events
        self.lengths = np.array([ev.duration for ev in events if isinstance(ev, Wait) or ev.mode == "finite"])
        self.period = math.fsum(self.lengths)
        self.decays = _decay(relax, [ev.duration for ev in events if isinstance(ev, Wait)])

    def walk(self, run: "_Run", det: np.ndarray, members=None, starts=None, integrals=None) -> np.ndarray:
        """``(n, 3, 3)`` maps of one iteration at detunings ``det`` ``(n,)``.

        With no bath values given, ``det`` is each detuning plus its held
        bath value (:meth:`_Run.maps`).  Else these are the iterations of
        ``members`` (an index array), given their bath values at the start
        of each interval and the integrals over it, each ``(L, n)``: a wait
        turns by ``det h + integral`` cycles and a finite pulse takes its
        matrix at its start's value (:meth:`_Run.maps`).
        """
        out = None
        k = w = 0  # bath intervals and waits so far
        for ev in self.events:
            if isinstance(ev, Wait):
                cycles = det * ev.duration
                if integrals is not None:
                    cycles += integrals[k]
                m = _rz(cycles, None if self.decays is None else self.decays[w])
                k, w = k + 1, w + 1
            elif ev.mode == "finite":
                m = (finite_pulse_matrix(ev.rabi, ev.duration, ev.phase, det) if starts is None
                     else run.maps(run.pulse(ev), starts[k], members))
                k += 1
            else:
                m = run.pulse_matrix(ev)
            out = m if out is None else out @ m
        return np.broadcast_to(np.eye(3) if out is None else out, (len(det), 3, 3))


class _Run:
    """The state of one :func:`run_program` pass (see its docstring).

    ``noise`` is the run's bath (:class:`_OUBath`, :class:`_TelegraphBath`)
    or None; ``psi``, ``alpha``, ``sign`` and ``t_ref`` make up the
    toggling frame; ``waits`` (bath interval, length, sign) and ``reads``
    (wait count, alpha, sign, tau) are those taken since the last settle.
    ``levels`` are the detunings at which members hold their bath value
    through a finite pulse or a compiled iteration: ``det`` with no bath,
    ``det +- A`` interleaved with a telegraph bath (its values are
    exactly ``+-A``), and None for an OU bath.
    """

    def __init__(self, det, weights, u, noise, relax, record):
        self.det, self.weights, self.u = det, weights, u
        self.noise, self.relax, self.record = noise, relax, record
        if noise is None:
            self.levels = det
        elif isinstance(noise, _TelegraphBath):
            self.levels = (det[:, None] + (noise.amplitude, -noise.amplitude)).ravel()
        else:
            self.levels = None
        self.store: dict = {}  # _Cycle -> its maps at the levels
        # relaxation toward z_equilibrium != 0 does not commute with pi pulses
        self.affine = math.isfinite(relax.t1) and relax.z_equilibrium != 0.0
        self.hard: dict = {}  # hard Pulse -> its matrix (pulse_matrix)
        # id(Repeat.body) -> its _Body or _Cycle, or None: run event by event;
        # repeats of one body tuple (a series' cycles) share it.  A finite
        # Pulse -> its one-event _Cycle (pulse).
        self.bodies: dict = {}
        self.integrals = None
        self.psi = np.zeros(len(weights))  # toggling-frame phase in cycles, per member
        self.alpha, self.sign = 0.0, 1.0  # hard pi pulses since the last materialization
        self.t = self.t_ref = 0.0  # now, and the last materialization
        # the table; flat float buffers: 8 bytes a time, 24 a sample
        self.sample_times, self.sample_labels, self.samples = array("d"), [], array("d")
        self.waits, self.reads = [], []
        self.read(None)  # t = 0

    def pulse_matrix(self, ev: Pulse) -> np.ndarray:
        """The matrix of a hard pulse (row j = image of e_j), built once per run.

        A pi pulse is the toggling frame's ``P`` (see :func:`run_program`),
        ``(x, y, z) -> (x cos a + y sin a, x sin a - y cos a, -z)`` at its
        angle ``a``: z is kept apart exactly, and a pi,-pi pair composes to
        the identity, as in the frame.
        """
        m = self.hard.get(ev)
        if m is None:
            if ev.area == math.pi:
                a = _pi_angle(0.0, ev.phase)
                m = np.array([[math.cos(a), math.sin(a), 0.0], [math.sin(a), -math.cos(a), 0.0],
                              [0.0, 0.0, -1.0]])
            else:
                m = rotate(np.eye(3), np.array([math.cos(ev.phase), math.sin(ev.phase), 0.0]), ev.area)
            self.hard[ev] = m
        return m

    def pulse(self, ev: Pulse) -> _Cycle:
        """The one-event body of a finite pulse, made once per run."""
        body = self.bodies.get(ev)
        if body is None:
            body = self.bodies[ev] = _Cycle([ev], self.relax)
        return body

    def held(self, body: _Cycle) -> np.ndarray | None:
        """``body``'s maps at the ``levels``, ``(len(levels), 3, 3)``, from the
        store, which keeps them for the run while all it keeps fits in
        ``_PULSE_TABLE_BYTES``; None when no level is held or past it."""
        maps = self.store.get(body)
        if maps is None and self.levels is not None and (
                72 * len(self.levels) * (len(self.store) + 1) <= _PULSE_TABLE_BYTES):
            maps = self.store[body] = body.walk(self, self.levels)
        return maps

    def rows(self, start, members=None) -> np.ndarray:
        """Rows of the telegraph levels of ``members`` (None: all m) at bath
        values ``start``: ``2 i`` at ``+A`` (or None), ``2 i + 1`` at ``-A``."""
        rows = 2 * (np.arange(len(self.det)) if members is None else members)
        return rows if start is None else rows + (start < 0)

    def maps(self, body: _Cycle, start=None, members=None) -> np.ndarray:
        """``(n, 3, 3)`` maps of one iteration of ``body`` for ``members`` (an
        index array; None: all m), each with its bath value ``start`` held
        through it (None: no bath): rows of :meth:`held`, or else built at
        ``det + start``.  Each map is an elementwise function of its
        member's detuning, so both ways give the same bits."""
        held = self.held(body)
        if held is None:
            det = self.det if members is None else self.det[members]
            return body.walk(self, det if start is None else det + start)
        return held if not self.noise else held.take(self.rows(start, members), axis=0)

    def lowered(self, rep: Repeat) -> bool:
        """Whether ``rep`` runs as one unit, not event by event.  Its body
        must expand to at most ``_LOWERED_EVENTS`` events, and it is either

        * compiled to per-member cycle maps (:class:`_Cycle`), under
          ``record="acquires"``: waits and pulses of any kind, no acquire,
          no bath or a telegraph bath (the cases that hold ``levels``),
          under a bath at most ``_COMPILED_INTERVALS`` bath intervals, and
          no relaxation toward a nonzero ``z_equilibrium``; or
        * lowered to arrays (:class:`_Body`): waits, hard pi pulses and
          acquires, and no wait under relaxation toward a nonzero
          ``z_equilibrium``.  Such a body compiles instead when it can and
          no bath is drawn: its iterations are then one power.

        Every other body runs event by event.
        """
        key = id(rep.body)
        if key not in self.bodies:
            body = PulseProgram(rep.body)
            self.bodies[key] = None
            if body.expanded_count() <= _LOWERED_EVENTS:
                events = list(body.expand())
                hard_pi = all(isinstance(ev, Acquire) or isinstance(ev, Wait) and not self.affine
                              or isinstance(ev, Pulse) and ev.area == math.pi for ev in events)
                compiles = (self.record == "acquires" and not self.affine and self.levels is not None
                            and not any(isinstance(ev, Acquire) for ev in events))
                if compiles and not (hard_pi and self.noise):
                    body = _Cycle(events, self.relax)
                    if not self.noise or len(body.lengths) <= _COMPILED_INTERVALS:
                        self.bodies[key] = body
                elif hard_pi:
                    self.bodies[key] = _Body(events, self.record)
        return self.bodies[key] is not None

    def bath(self, lengths, reps: int = 1) -> np.ndarray:
        """The edges of the next intervals, ``lengths`` ``reps`` times, from ``t``:
        bit for bit the running sum ``t += h`` that every interval adds to it."""
        edges = np.empty(reps * len(lengths) + 1)
        edges[0] = self.t
        edges[1:].reshape(reps, len(lengths))[:] = lengths
        return np.cumsum(edges, out=edges)

    def read(self, label) -> None:  # a table row at t, summed at the next settle
        self.sample_times.append(self.t)
        self.sample_labels.append(label)
        self.reads.append((len(self.waits), self.alpha, self.sign, self.t - self.t_ref))

    def form(self):
        """Settle, form the states of the frame into ``u`` and start a new
        frame at t; return the relaxation factor applied (:func:`_decay`)."""
        self.settle()
        decay = _decay(self.relax, self.t - self.t_ref)
        self.u = _materialize(self.u, self.psi, self.alpha, self.sign, decay)
        self.psi = np.zeros(len(self.weights))
        self.alpha, self.sign, self.t_ref = 0.0, 1.0, self.t
        return decay

    def settle(self) -> None:
        """Add the pending waits to ``psi`` and sum the pending reads."""
        ks, hs, signs = (np.array(col) for col in zip(*self.waits)) if self.waits else ((),) * 3
        rows, alphas, frame_signs, taus = (np.array(col) for col in zip(*self.reads)) if self.reads else ((),) * 4
        self._settle(ks, hs, signs, rows, alphas, frame_signs, taus)
        self.waits, self.reads = [], []

    def _settle(self, ks, hs, signs, rows, alphas, frame_signs, taus) -> None:
        """Add waits (bath interval ``ks``, length ``hs``, switching sign) to
        ``psi``; sum reads (row of the phases after that many of the waits,
        the frame's angle and sign, time since the frame's start) into the
        table."""
        phases = self.psi[None]  # phases[j]: after the first j waits
        if len(hs):
            phases = np.empty((len(hs) + 1, len(self.psi)))
            phases[0] = self.psi
            angles = np.multiply(hs[:, None], self.det, out=phases[1:])
            if self.noise:
                angles += self.integrals[ks]
            angles *= signs[:, None]
            # from the carried phase: bit for bit one running sum since the
            # last materialization, however the blocks split it
            if len(hs) > 1:
                np.cumsum(phases, axis=0, out=phases)
            else:  # the same sum; cumsum costs one inner loop per member
                phases[1] += phases[0]
        if len(rows):
            sums = _weighted_sums(self.u, self.weights, phases[rows], alphas, frame_signs,
                                  _decay(self.relax, taus))
            self.samples.frombytes(sums.tobytes())
        self.psi = phases[-1]

    def events(self, run: list) -> None:
        """Step through ``run``, primitive events, one at a time; then settle."""
        lengths = [
            ev.duration for ev in run
            if isinstance(ev, Wait) or isinstance(ev, Pulse) and ev.mode == "finite"
        ] if self.noise else []
        starts = None
        if lengths:  # the bath's values at each interval's start; its integrals are kept
            self.integrals = None  # settled: let the draws reuse its memory
            starts, self.integrals = self.noise.block(np.array(lengths), self.bath(lengths))
        k = 0  # index of the next bath interval in the block
        for ev in run:
            if isinstance(ev, Wait):
                self.waits.append((k, ev.duration, self.sign))
                self.t += ev.duration
                k += 1
                materialize = self.affine
            elif isinstance(ev, Acquire):
                materialize = False
            elif ev.mode == "finite":
                materialize = True
            else:
                materialize = ev.area != math.pi
                if not materialize:
                    self.alpha, self.sign = _pi_angle(self.alpha, ev.phase), -self.sign
            if materialize:
                decay = self.form()
                if isinstance(ev, Wait):  # z relaxes toward z_equilibrium, not 0
                    self.u[..., 2] += self.relax.z_equilibrium * (1.0 - decay[2])
                elif ev.mode == "hard":
                    self.u = (self.u.reshape(-1, 3) @ self.pulse_matrix(ev)).reshape(self.u.shape)
                else:  # a finite pulse, with the bath value frozen at its start
                    # one matrix per member, applied to each of its states
                    self.u = self.u @ self.maps(self.pulse(ev), starts[k] if self.noise else None)
                    self.t += ev.elapsed
                    self.t_ref = self.t
                    k += 1
            if self.record == "events" or isinstance(ev, Acquire):
                self.read(ev.label if isinstance(ev, Acquire) else None)
        self.settle()

    def repeat(self, rep: Repeat) -> None:
        """Run a lowered repeat: a compiled body (:meth:`cycles`) or one lowered to arrays (:meth:`spans`)."""
        body = self.bodies[id(rep.body)]
        (self.cycles if isinstance(body, _Cycle) else self.spans)(rep.count, body)

    def spans(self, count: int, body: _Body) -> None:
        """Run ``count`` iterations of a lowered body by its read intervals.

        Interval ``i`` runs from read ``i - 1`` (or the start) to read ``i``
        (``i = n``: the end) and adds one step to ``psi``, the sign of the
        frame it begins in times ``det signed + integral`` (:meth:`_Body.spans`):
        no integral with no bath, v3's exact OU step of the composed waits, or
        the sum over the flips (:meth:`_TelegraphBath.spans`).  The times are
        the event path's running sum ``t += h``, over whole iterations of about
        ``_TIME_CHUNK`` waits at a time, and the intervals settle ``_DRAW_BLOCK``
        at a time: no result depends on either.  Then the frame moves on."""
        signed, drawn, factors = body.spans(self.noise, count)
        n_reads, n_waits = len(body.read_waits), len(body.wait_h)
        n, per = count * n_reads, max(n_reads, 1)
        carry = np.zeros(len(self.det))  # telegraph: the flip terms of the interval under way
        chunk = max(1, _TIME_CHUNK // n_waits) if n_waits else count
        for q0 in range(0, count, chunk):
            q1 = min(q0 + chunk, count)
            edges = self.bath(body.wait_h, q1 - q0)
            self.t = float(edges[-1])
            top = q1 * n_reads + (q1 == count)  # intervals up to top - 1 end in iterations q0 ... q1 - 1
            # none ends: skip the block loop, and a telegraph bath's flips carry.  A fast path: the
            # loop run once with no interval gives the same bits, 2-3x slower for read-free repeats
            if top == q0 * n_reads and isinstance(self.noise, _TelegraphBath):
                carry = self.noise.spans(body, edges, q0, top, signed[:0], self.t, carry)[1]
            for lo in range(q0 * n_reads, top, _DRAW_BLOCK):
                i = np.arange(lo, min(lo + _DRAW_BLOCK, top))
                q, j = np.divmod(i, per)
                wrap = (j == 0) & (i > 0)  # begun in the iteration before
                types = np.where(i == n, n_reads, np.where(wrap, n_reads + 1, j))
                steps = np.flatnonzero(drawn[types])
                k = np.flatnonzero(i < n)  # the intervals that end at a read
                times = edges[(q[k] - q0) * n_waits + body.read_waits[j[k]]]
                if isinstance(self.noise, _OUBath) and len(steps):  # each member's normals as (z2, z1)
                    z = self.noise.normals(len(steps))[..., ::-1]
                    self.integrals = self.noise.steps(factors[:, types[steps]], z)[1]
                elif isinstance(self.noise, _TelegraphBath):  # flips to the last read, or to the iterations' end
                    end = edges[-1] if lo + _DRAW_BLOCK >= top else times[-1]
                    integrals, carry = self.noise.spans(body, edges, q0, lo, signed[types], end, carry)
                    self.integrals = integrals[steps]
                signs = np.broadcast_to(body.frame(q - wrap, self.alpha, self.sign)[1], i.shape)[steps]
                alphas, frame_signs = body.frame(q[k], self.alpha, self.sign)
                j = j[k]
                self.sample_times.frombytes(times.tobytes())
                self.sample_labels.extend(body.read_labels[j].tolist())
                self._settle(slice(None), signed[types[steps]], signs, np.cumsum(drawn[types])[k],
                             body.read_sign[j] * alphas + body.read_angle[j], body.read_sign[j] * frame_signs,
                             times - self.t_ref)
            edges = None  # let the next iterations' times reuse its memory
        alpha, sign = body.frame(np.array(count), self.alpha, self.sign)
        self.alpha, self.sign = math.remainder(float(alpha), 2.0 * math.pi), float(sign)

    def cycles(self, count: int, body: _Cycle) -> None:
        """Run ``count`` iterations of a compiled body (see :func:`run_program`):
        form the states once, then move them by one power of each member's
        map with no bath draw, else by its flips: the exact maps of the
        iterations in which it flips (:meth:`cycle_maps`) and, for each run
        of ``r`` iterations between them at the sign ``s`` of its value,
        ``K(s)^r`` from a ladder of the held maps' squares.  A run open at
        the end of a draw block carries on into the next."""
        self.form()
        m = len(self.weights)
        if not self.noise or not len(body.lengths):
            self.u = self.u @ _power([self.maps(body)], np.arange(m), np.full(m, count))
            self.t += count * body.period
        else:
            held = self.held(body)
            ladder = [body.walk(self, self.levels) if held is None else held]
            open_run = np.zeros(m, dtype=np.intp)  # flip-free iterations not applied yet
            per = max(1, _DRAW_BLOCK // len(body.lengths))  # whole iterations per draw block
            for q0 in range(0, count, per):
                n = min(per, count - q0)
                i, q, start, exact = self.cycle_maps(body, n)
                first, last = np.diff(i, prepend=-1) != 0, np.diff(i, append=-1) != 0
                runs = np.diff(q, prepend=-1) - 1  # since the member's last flip iteration
                runs[first] = open_run[i[first]] + q[first]
                steps = _power(ladder, self.rows(start, i), runs) @ exact
                # a member's steps in order: its j-th flip iteration of the block in round j
                rank = np.arange(len(i)) - np.flatnonzero(first)[np.cumsum(first) - 1]
                for j in range(rank.max(initial=-1) + 1):
                    sel = np.flatnonzero(rank == j)
                    self.u[i[sel]] = self.u[i[sel]] @ steps[sel]
                open_run += n
                open_run[i[last]] = n - 1 - q[last]
            self.u = self.u @ _power(ladder, self.rows(self.noise.sign), open_run)
        self.t_ref = self.t

    def cycle_maps(self, body: _Cycle, n: int) -> tuple:
        """Advance ``t`` over the next ``n`` iterations of a compiled body,
        read the telegraph bath's flips in them and build exactly the
        member-iterations that flip.  Returns ``(i, q, start, exact)``,
        ordered by member, then iteration: each such member, its iteration
        in the block, its bath value at the iteration's start and its map
        (:meth:`_Cycle.walk`), from the values and integrals the event path
        would draw."""
        bath, size = self.noise, len(body.lengths)
        edges = self.bath(body.lengths, n)
        self.t = float(edges[-1])
        members, times, signs = bath.flips(edges[-1])
        k = np.searchsorted(edges[1:], times)  # edges[k] < f <= edges[k + 1]
        # a member-iteration's first flip is its earliest: its sign is the start's
        key, first, col = np.unique(members * n + k // size, return_index=True, return_inverse=True)
        i, q = np.divmod(key, n)
        start = bath.amplitude * signs[first]
        intervals = q * size + np.arange(size)[:, None]  # (L, flip iterations)
        starts, integrals, _ = bath.values(start, np.diff(edges)[intervals], k % size, col, times - edges[k],
                                           signs, 0.0)
        return i, q, start, body.walk(self, self.det[i], i, starts, integrals)


def run_program(
    program: PulseProgram,
    ensemble: EnsembleSpec,
    noise=None,
    relax: RelaxationParams = NO_RELAXATION,
    master_seed: int = 0,
    initial_state: Sequence[float] = (0.0, 0.0, 1.0),
    record: str = "acquires",
) -> SimulationResult:
    """Run a pulse program over the ensemble and average.

    Each member carries its static detuning plus (optionally) its own
    bath, propagated exactly with no time step: once per interval --
    every wait and every finite pulse -- or, in a lowered repeat, once
    per read interval (below).  A wait rotates about z by
    ``2*pi*(detuning*h + integral of the bath over h)``.  Hard pulses
    are instantaneous rotations; finite pulses rotate about the member's
    tilted axis with the bath value frozen at the pulse start, while the
    bath clock runs on through the pulse.

    The result is one table, :class:`SimulationResult`.  Under
    ``record="acquires"`` its rows are t = 0, each acquire and the end;
    under ``record="events"`` t = 0 and the state after every expanded
    event.  Acquire rows carry the acquire's label, the others None.

    The states are kept in the toggling frame of the hard pi pulses.  A
    hard pi pulse P about an equatorial axis inverts z rotations, P
    R_z(theta) = R_z(-theta) P, so any run of waits and hard pi pulses
    leaves member ``i``'s states at ``u_i R_z(2 pi psi_i) P`` (row
    vectors, see :mod:`blochdd.bloch`).  ``u`` holds the states at the
    last materialization, ``psi`` their phase in cycles since then -- the
    bath and detuning phase of each wait, signed by the switching
    function, the parity of the pi pulses before it -- and ``P`` the
    product of those pulses.  A pi pulse at phase phi maps ``w = x + i y``
    to ``e^{2 i phi} conj(w)`` and z to -z, so ``P`` flips ``(y, z)`` by
    a sign, the parity of the pulses, and then turns ``(x, y)`` by one
    angle ``alpha``, the same for all members: a wait adds to ``psi``, a
    pi pulse sets ``alpha <- 2 phi - alpha`` (in [-pi, pi]) and flips the
    sign, and no state moves.  T2, and T1 toward ``z_equilibrium = 0``,
    are diagonal factors that commute with both, carried as the time
    since the last materialization.  An
    acquire (and every sample of ``record="events"``) reads the weighted
    sum of those states without forming them.  The states are formed
    (materialized), and the frame reset, before any other pulse -- a
    finite pulse, or a hard pulse of another area -- and after each wait
    when T1 relaxes toward a nonzero ``z_equilibrium``, the one
    relaxation that does not commute with P.

    A finite pulse then multiplies each member's states by that member's
    matrix.  With no bath, or with a telegraph bath, a member's frozen
    bath value is 0 or exactly ``+-amplitude``, so the run holds those
    levels: each distinct finite pulse, like each compiled body below,
    builds its per-member maps at every level on first use, into one
    store kept for the run, and every use picks each member's map by the
    sign of its bath value.  Under an OU bath, or where the maps would
    take the store past ``_PULSE_TABLE_BYTES`` (18.9 MB, two bodies at
    2**16 members), they are built at every use instead; both ways give
    the same bits.

    ``noise`` is one :class:`NoiseModel` or None; None and
    :data:`NO_NOISE` both mean no bath, and any other type raises a
    TypeError.  Member ``i`` draws its bath from one PCG64 stream seeded
    as by ``SeedSequence(master_seed).spawn(n)[i]``, all members' seeds
    hashed at once (:func:`_stream_seeds`).
    An OU bath draws two standard normals per interval (Gillespie, PRE
    54, 2084 (1996)) and steps its value one interval after another,
    ``x' = a x + l11 z1``, so its values do not depend on how the
    intervals are split into blocks (draw scheme v2).  Under an OU bath
    a lowered repeat (below) with a wait takes draw scheme v3: the waits
    between two reads, and from the repeat's start to its first read or
    from its last read to its end, compose to one exact step of the
    member's pair (x, phase), ``x' = a x + l11 z1`` and ``dphase = b x +
    l21 z1 + l22 z2``, signed by the frame of the iteration it begins
    in, so each member draws two normals per read interval that holds a
    wait.  Each step's factors are built once per run per kind of
    interval; a repeat with no read is one step whatever its count, its
    iterations composed by doubling.  Both schemes take the same step,
    so the bath's value passes between the event path and a lowered
    repeat exactly.  v3 moves OU outputs statistically, not in their
    last bits, and its streams still depend only on ``(master_seed,
    i)``; a telegraph bath keeps draw scheme v2.

    ``initial_state`` is one Bloch vector ``(3,)`` or a stack ``(k, 3)``.
    A stack runs all ``k`` states through one pass: each member's bath
    draws and pulse matrices serve every state, so the result equals
    ``k`` single-state runs with the same seed.  ``mean_bloch`` is then
    ``(n_samples, k, 3)``, else ``(n_samples, 3)``, the only shape that
    :func:`acquire_series` and the exports read; they raise a ValueError
    for a stack.

    The program is streamed in blocks of ``_DRAW_BLOCK`` events.  A
    ``Repeat`` whose body holds only waits, hard pi pulses and acquires
    (at most ``_LOWERED_EVENTS`` of them expanded), and no wait if T1
    relaxes toward a nonzero ``z_equilibrium``, is lowered once per run
    to arrays of its waits and reads (:class:`_Body`), unless it compiles
    (below).  It then runs by read intervals: no event is dispatched, the
    frame before iteration q is ``alpha + q turn`` (an even count of pi
    pulses per iteration, ``turn`` the angle they add) or alternates
    between ``alpha`` and ``turn - alpha`` (an odd count), each interval
    adds one step to each member's phase (v3's under an OU bath, the sum
    over its flips under a telegraph bath), and the reads are appended in
    bulk at the event path's times: O(reads + flips) per member.

    Under ``record="acquires"``, a ``Repeat`` whose body holds waits and
    pulses of any kind but no acquire (at most ``_LOWERED_EVENTS``
    expanded), run with no relaxation or T1/T2 toward ``z_equilibrium =
    0``, is compiled once per run (:class:`_Cycle`) when no bath is drawn,
    or when one telegraph bath is, the body holds a pulse other than a
    hard pi, and its bath intervals fit one draw block (256).  A longer
    body runs event by event, and its inner repeats compile.  With its
    bath value held at 0 or ``+-A``, member ``i``'s iteration is one map
    ``K_i``, kept in the store above: the product of its waits' ``R_z(2 pi
    (det_i + b) h) D(h)`` and its pulses' matrices, a hard pi pulse as
    the frame's ``P``.  The states are formed once at the repeat and
    move as ``u <- u K`` in iteration order.  With no bath the ``count``
    iterations are one power ``K_i^count``, by repeated squaring, and
    the time advances by ``count`` times the body's summed length.  With
    a telegraph bath a member steps by its flips.  The bath clock runs
    through blocks of whole iterations, about ``_DRAW_BLOCK`` intervals
    each, as one running sum, and the same flips are drawn, so interval
    edges and flip times are the event path's, bit for bit.  An
    iteration in which a member flips is built exactly from the drawn
    values: each wait turns by ``det_i h`` plus the bath's integral over
    it, summed by parts from its flips as on the event path
    (:meth:`_TelegraphBath.values`), and each finite pulse takes its map
    at the value at its start from the store.  Each run of ``r``
    iterations between flips, at the sign ``s`` of the member's value, is
    ``K_i(s)^r``, by the binary digits of ``r``.  A run open at a block's end carries on into the
    next, so no result depends on ``_DRAW_BLOCK``, and nothing is sized
    by the iterations times the members.  The compiled and event paths
    multiply the same rotations in another order, so they agree to
    rounding.

    Every other event is read one at a time from a lazy walk of
    :meth:`PulseProgram.expand`.  The bath draws for the bath intervals
    of each block at once, O(``_DRAW_BLOCK``) values per member for
    either kind; the block's waits between two materializations add to
    ``psi`` in one cumulative sum that starts from the carried ``psi``,
    and its reads (the t = 0 and end rows too) are summed together
    straight into the table.  Nothing sized by the expanded program is
    kept but the table returned.

    Raises :class:`SimulationBudgetError`, before any work, when the
    ``size * k`` member-states exceed ``_MAX_MEMBER_STATES`` (2**16), or
    they times the work of each -- the expanded events
    (:meth:`PulseProgram.expanded_count`), the expected telegraph flips
    (``flip_rate * duration`` of a telegraph bath), and 1 to form
    and read the state -- exceed ``_MAX_MEMBER_STEPS`` (2e9).
    """
    if record not in ("acquires", "events"):
        raise ValueError(f"unknown record mode {record!r}")
    initial = np.asarray(initial_state, dtype=float)
    if initial.shape[-1:] != (3,) or initial.ndim > 2 or initial.size == 0:
        raise ValueError(f"initial_state must be a 3-vector or a (k, 3) stack, got shape {initial.shape}")

    if noise is not None and not isinstance(noise, NoiseModel):
        raise TypeError(f"noise must be a NoiseModel or None, got {type(noise).__name__}")
    _check_budget(program, ensemble, noise, initial.size // 3)

    det, weights = sample_detunings(ensemble)
    # every member carries each initial state; all see its detuning and bath
    u = np.tile(initial.reshape(1, -1, 3), (len(weights), 1, 1))
    bath = None
    if noise is not None and noise.kind != "none":
        rngs = [np.random.Generator(np.random.PCG64(_StreamSeed(s)))
                for s in _stream_seeds(master_seed, ensemble.size)]
        bath = (_OUBath if noise.kind == "ornstein_uhlenbeck" else _TelegraphBath)(noise, rngs)
    run = _Run(det, weights, u, bath, relax, record)
    block = []
    for ev in program.expand(keep=run.lowered):
        if isinstance(ev, Repeat):
            run.events(block)
            block = []
            run.repeat(ev)
        else:
            block.append(ev)
            if len(block) == _DRAW_BLOCK:
                run.events(block)
                block = []
    run.events(block)
    if record != "events":
        run.read(None)  # the end
    run.settle()

    return SimulationResult(
        sample_times=np.array(run.sample_times),
        sample_labels=tuple(run.sample_labels),
        mean_bloch=np.array(run.samples).reshape((-1,) + initial.shape) / float(weights.sum()),
        n_members=ensemble.size,
        duration=run.t,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# analytic Ornstein-Uhlenbeck dephasing (calibration and oracles)
# ---------------------------------------------------------------------------

def ou_fid_coherence(t, sigma: float, tau_b: float):
    """Free-induction coherence under OU noise (Gaussian-phase result).

    ``exp(-sigma_w^2 tau_b^2 [t/tau_b - 1 + e^(-t/tau_b)])`` with
    ``sigma_w = 2*pi*sigma``; ``sigma`` in Hz, times in s.  The bracket
    is summed as ``r + expm1(-r)``, and below r = 0.1, where that cancels
    its leading term, as its Taylor series (as :func:`_ou_integral_bracket`).
    """
    r = np.asarray(t, dtype=float) / tau_b
    w2 = (2.0 * math.pi * sigma) ** 2
    short = np.minimum(r, 0.1)  # np.where evaluates both branches: no overflow here
    series = sum((-short) ** n / math.factorial(n) for n in range(17, 1, -1))
    return np.exp(-w2 * tau_b**2 * np.where(r < 0.1, series, r + np.expm1(-r)))


def ou_hahn_coherence(total_time, sigma: float, tau_b: float):
    """Two-pulse-echo coherence at total evolution time ``2*tau``.

    ``exp(-sigma_w^2 tau_b^2 [2 tau/tau_b - 3 + 4 e^(-tau/tau_b) -
    e^(-2 tau/tau_b)])``, the bracket summed stably as in the OU draw
    (:func:`_ou_integral_bracket`); reduces to the cubic law
    ``exp(-(2/3) sigma_w^2 tau^3 / tau_b)`` for ``tau << tau_b``.
    """
    r = np.asarray(total_time, dtype=float) / 2.0 / tau_b
    w2 = (2.0 * math.pi * sigma) ** 2
    return np.exp(-w2 * tau_b**2 * np.vectorize(_ou_integral_bracket, otypes=[float])(r))


def calibrate_ou_sigma(tau_b: float) -> float:
    """Noise strength (Hz rms) giving a two-pulse-echo 1/e time of 0.86 s.

    The echo exponent scales as sigma^2, so the analytic expression
    (:func:`ou_hahn_coherence`) inverts in closed form.  The target is
    the 0.86 s asymptotic decay time of the material this package models.
    """
    bracket = _ou_integral_bracket(0.86 / 2.0 / tau_b)
    return 1.0 / (2.0 * math.pi * tau_b * math.sqrt(bracket))


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file + rename so readers never see partial files."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def result_to_csv(result: SimulationResult) -> str:
    """Trajectory table of a one-state run, fixed header ``time_s,mx,my,mz``."""
    _one_state(result)
    lines = ["time_s,mx,my,mz"]
    for t, v in zip(result.sample_times, result.mean_bloch):
        lines.append(f"{t:.17g},{v[0]:.17g},{v[1]:.17g},{v[2]:.17g}")
    return "\n".join(lines) + "\n"


def result_to_json(result: SimulationResult, config: dict) -> str:
    """Result document: config echo plus the acquire rows of the table."""
    rows, mags, phases = _acquired(result)
    doc = {
        "config": config,
        "n_members": result.n_members,
        "duration_s": result.duration,
        "master_seed": result.master_seed,
        "acquires": [
            {"label": result.sample_labels[i], "time_s": t, "magnitude": mag,
             "phase_rad": phase, "mx": mx, "my": my, "mz": mz}
            for i, t, mag, phase, (mx, my, mz) in zip(
                rows, result.sample_times[rows].tolist(), mags.tolist(), phases.tolist(),
                result.mean_bloch[rows].tolist())
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
