"""Ensemble simulation: inhomogeneous lines, stochastic baths, program runs.

An ensemble member is a Bloch vector with a static detuning drawn from
the inhomogeneous line, optionally riding on its own stochastic
detuning trajectory (Ornstein-Uhlenbeck or random telegraph).  Members
evolve independently; observables are weighted means.  A bath has one
implementation: the exact per-interval draw inside :func:`run_program`.

Determinism contract: a run is a pure function of (program, ensemble
spec, noise model, relaxation, master seed).  Member ``i`` draws its
randomness from a stream derived only from ``(master_seed, i)`` and
consumes it in order, so results are bit-identical for any draw block
size.  All members are stepped through each event as one array, and
every observable is one weighted sum over all of them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import roots_hermite

from .bloch import NO_RELAXATION, RelaxationParams, evolve_free, finite_pulse_matrix, rotate
from .sequences import Acquire, Pulse, PulseProgram, Wait

__all__ = [
    "EnsembleSpec",
    "NoiseModel",
    "NO_NOISE",
    "AcquireSample",
    "SimulationResult",
    "SimulationBudgetError",
    "sample_detunings",
    "run_program",
    "echo_amplitude",
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
        # numpy's hermgauss overflows above ~400 nodes; scipy is stable.
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
    """size x states x work per member exceeds the ``_MAX_MEMBER_STEPS`` budget."""


@dataclass(frozen=True, eq=False)
class AcquireSample:
    label: str
    time: float
    mean: np.ndarray  # weighted-mean Bloch vector(s), shaped like the initial state


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Weighted-mean trajectory and acquire table of one program run."""

    sample_times: np.ndarray
    mean_bloch: np.ndarray  # (len(sample_times), *initial_state.shape)
    acquires: tuple  # tuple[AcquireSample, ...]
    n_members: int
    duration: float
    master_seed: int

    def labels(self) -> tuple:
        seen = []
        for a in self.acquires:
            if a.label not in seen:
                seen.append(a.label)
        return tuple(seen)


def echo_amplitude(result: SimulationResult, label: str) -> tuple[float, float]:
    """(magnitude, phase) of the mean transverse vector at an acquire.

    Magnitude is ``sqrt(mx^2 + my^2)`` of the weighted-mean Bloch
    vector, phase is ``atan2(my, mx)``.  If the label was acquired
    repeatedly (decay readout), the last occurrence is reported.
    """
    hits = [a for a in result.acquires if a.label == label]
    if not hits:
        raise KeyError(f"no acquire labeled {label!r}")
    m = hits[-1].mean
    return float(np.hypot(m[0], m[1])), float(math.atan2(m[1], m[0]))


def acquire_series(result: SimulationResult, label: str) -> tuple[np.ndarray, np.ndarray]:
    """(times, magnitudes) over every occurrence of a label."""
    hits = [a for a in result.acquires if a.label == label]
    if not hits:
        raise KeyError(f"no acquire labeled {label!r}")
    t = np.array([a.time for a in hits])
    mag = np.array([np.hypot(a.mean[0], a.mean[1]) for a in hits])
    return t, mag


def _noise_list(noise) -> list[NoiseModel]:
    if noise is None:
        return []
    if isinstance(noise, NoiseModel):
        return [] if noise.kind == "none" else [noise]
    models = [m for m in noise if m.kind != "none"]
    return list(models)


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


# Program events are read this many at a time, and each member's bath
# draws come this many intervals (OU) or flips (telegraph) at most at a
# time.  It bounds memory only: each member's draws are consumed in
# stream order, so results never depend on it.
_DRAW_BLOCK = 256
# Work budget of one run: members x states x (expanded events + expected
# telegraph flips).  Bounds the run time of any parseable input.
_MAX_MEMBER_STEPS = 2e9
_BATH_STREAM_STRIDE = 2**120  # draws between the streams of one member's baths


def _ou_integral_bracket(r: float) -> float:
    """``2r - 3 + 4e^-r - e^-2r``: Var of the OU integral over ``h = r tau_b``
    in units of ``(sigma tau_b)^2``."""
    if r < 0.1:
        # the closed form cancels to O(r^3); sum its Taylor series instead
        return sum(
            (-1) ** n * (4 - 2**n) * r**n / math.factorial(n) for n in range(17, 2, -1)
        )
    return 2.0 * r + 4.0 * math.expm1(-r) - math.expm1(-2.0 * r)


def _ou_factors(h: float, sigma: float, tau_b: float) -> tuple:
    """Exact one-interval OU draw as ``(a, b, l11, l21, l22)``.

    Given ``x0`` and standard normals ``z1, z2``, the value after ``h`` is
    ``a x0 + l11 z1`` and the integral over ``h`` is ``b x0 + l21 z1 +
    l22 z2``: the Cholesky factor of their bivariate Gaussian (Gillespie,
    PRE 54, 2084 (1996)).
    """
    r = h / tau_b
    one_minus_a = -math.expm1(-r)
    var_x = sigma**2 * -math.expm1(-2.0 * r)
    var_int = (sigma * tau_b) ** 2 * _ou_integral_bracket(r)
    cov = sigma**2 * tau_b * one_minus_a**2
    l11 = math.sqrt(var_x)
    l21 = cov / l11 if l11 > 0 else 0.0
    l22 = math.sqrt(max(var_int - l21 * l21, 0.0))
    return math.exp(-r), tau_b * one_minus_a, l11, l21, l22


def _ou_advance(x0: np.ndarray, factors: np.ndarray, z: np.ndarray) -> tuple:
    """Carry OU values across consecutive intervals.

    ``x0`` is ``(m,)``, ``factors`` is ``(B, 5)`` rows of
    :func:`_ou_factors`, ``z`` is ``(B, m, 2)`` standard normals.  Returns
    ``(xs, integrals)``: the values at the ``B + 1`` interval boundaries,
    ``(B + 1, m)``, and the integral over each interval, ``(B, m)``.
    """
    a, b, l11, l21, l22 = (factors[:, j, None] for j in range(5))
    kick = l11 * z[..., 0]
    xs = np.empty((len(factors) + 1, len(x0)))
    xs[0] = x0
    for k in range(len(factors)):
        xs[k + 1] = a[k] * xs[k] + kick[k]
    return xs, b * xs[:-1] + l21 * z[..., 0] + l22 * z[..., 1]


class _OUBath:
    """One Ornstein-Uhlenbeck process per member, drawn exactly per interval."""

    def __init__(self, model: NoiseModel, rngs: list):
        self.rngs = rngs
        self.model = model
        self.factors: dict = {}  # interval length -> row of _ou_factors
        self.x = model.sigma * np.array([rng.standard_normal() for rng in rngs])

    def block(self, lengths: list, edges: np.ndarray) -> tuple:
        for h in lengths:
            if h not in self.factors:
                self.factors[h] = _ou_factors(h, self.model.sigma, self.model.tau_b)
        z = np.empty((len(lengths), len(self.rngs), 2))
        for i, rng in enumerate(self.rngs):
            z[:, i] = rng.standard_normal((len(lengths), 2))
        xs, integrals = _ou_advance(self.x, np.array([self.factors[h] for h in lengths]), z)
        self.x = xs[-1]
        return xs[:-1], integrals


class _TelegraphBath:
    """One random telegraph process per member, integrated exactly.

    Flip times are cumulative sums of exponential gaps, so the sign is
    piecewise constant between known times and its integral over any
    interval is exact.
    """

    def __init__(self, model: NoiseModel, rngs: list):
        self.rngs = rngs
        self.amplitude = model.amplitude
        self.rate = model.flip_rate
        self.sign = np.array([1.0 if rng.random() < 0.5 else -1.0 for rng in rngs])
        m = len(rngs)
        self.gaps = np.empty((m, _DRAW_BLOCK))
        self.col = np.full(m, _DRAW_BLOCK)
        self.next_flip = np.zeros(m)
        self._advance(np.arange(m))

    def _advance(self, idx: np.ndarray) -> None:
        """Move members ``idx`` on to their next flip time."""
        for i in idx[self.col[idx] == self.gaps.shape[1]]:
            self.gaps[i] = self.rngs[i].standard_exponential(self.gaps.shape[1])
            self.col[i] = 0
        self.next_flip[idx] += self.gaps[idx, self.col[idx]] / self.rate
        self.col[idx] += 1

    def block(self, lengths: list, edges: np.ndarray) -> tuple:
        # flips[k] is -1 where a member flips an odd number of times in interval k
        flips = np.ones((len(lengths), len(self.rngs)))
        correction = np.zeros_like(flips)
        start = np.empty_like(flips)
        start[0] = self.amplitude * self.sign
        # each round takes every member's next flip inside the block
        while True:
            idx = np.flatnonzero(self.next_flip <= edges[-1])
            if idx.size == 0:
                break
            f = self.next_flip[idx]
            k = np.searchsorted(edges[1:], f)  # edges[k] < f <= edges[k + 1]
            # flipping s -> -s at f changes the interval's integral by -2 s (edges[k + 1] - f)
            correction[k, idx] -= 2.0 * self.amplitude * self.sign[idx] * (edges[k + 1] - f)
            flips[k, idx] = -flips[k, idx]
            self.sign[idx] = -self.sign[idx]
            self._advance(idx)
        np.cumprod(flips[:-1], axis=0, out=start[1:])
        start[1:] *= start[0]
        return start, start * np.diff(edges)[:, None] + correction


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
    bath.  The bath is propagated exactly once per interval -- every
    wait and every finite pulse -- with no time step: a wait rotates
    about z by ``2*pi*(detuning*h + integral of the bath over h)``.  Hard
    pulses are instantaneous rotations; finite pulses rotate about the
    member's tilted axis with the bath value frozen at the pulse start,
    while the bath clock runs on through the pulse.  ``record="events"``
    samples the mean Bloch vector at every expanded event boundary
    instead of only at t=0, acquires and the end.

    ``noise`` may be a single :class:`NoiseModel` or a sequence of them
    (independent processes, detunings summed) -- e.g. two
    Ornstein-Uhlenbeck components standing in for a structured bath.
    Member ``i`` draws from one PCG64 stream seeded by ``(master_seed,
    i)``; bath ``j`` of the member starts ``j * 2**120`` draws along it.

    ``initial_state`` is one Bloch vector ``(3,)`` or a stack ``(k, 3)``.
    A stack runs all ``k`` states through one pass: each member's bath
    draws and pulse matrices serve every state, so the result equals
    ``k`` single-state runs with the same seed.  ``mean_bloch`` is then
    ``(n_samples, k, 3)`` and each acquire's ``mean`` is ``(k, 3)``; with
    a ``(3,)`` state they are ``(n_samples, 3)`` and ``(3,)``, the only
    shapes that :func:`echo_amplitude` and the exports read.

    The program is streamed: one lazy walk of :meth:`PulseProgram.expand`,
    read ``_DRAW_BLOCK`` events at a time, moves the whole ensemble, one
    array, through each event in turn.  The baths draw for the bath
    intervals of each such run at once: O(``_DRAW_BLOCK``) values per
    member for either bath.  Nothing sized by the expanded program is
    kept but the samples returned.

    Raises :class:`SimulationBudgetError`, before any work, when
    ``size * k`` times the work per member -- the expanded events
    (:meth:`PulseProgram.expanded_count`) plus the expected telegraph
    flips, ``flip_rate * duration`` summed over telegraph baths --
    exceeds the constant ``_MAX_MEMBER_STEPS`` (2e9).
    """
    if record not in ("acquires", "events"):
        raise ValueError(f"unknown record mode {record!r}")
    initial = np.asarray(initial_state, dtype=float)
    if initial.shape[-1:] != (3,) or initial.ndim > 2 or initial.size == 0:
        raise ValueError(f"initial_state must be a 3-vector or a (k, 3) stack, got shape {initial.shape}")

    models = _noise_list(noise)
    n_states = initial.size // 3
    n_events = program.expanded_count()
    flips = sum(m.flip_rate for m in models if m.kind == "telegraph") * program.duration()
    if ensemble.size * n_states * (n_events + flips) > _MAX_MEMBER_STEPS:
        raise SimulationBudgetError(
            f"{ensemble.size} members x {n_states} states x ({n_events} events + "
            f"{flips:.3g} telegraph flips) exceeds the budget of {_MAX_MEMBER_STEPS:.0f}; "
            "use fewer members or a shorter program"
        )

    detunings, weights = sample_detunings(ensemble)
    # per-member values are (members,) or, for stacked states, (members, 1)
    per_member = weights.shape + (1,) * (initial.ndim - 1)
    det = detunings.reshape(per_member)
    # every member carries each initial state; all see its detuning and baths
    v = np.tile(initial, weights.shape + (1,) * initial.ndim)
    seeds = np.random.SeedSequence(master_seed).spawn(ensemble.size) if models else None
    baths = []
    for j, mod in enumerate(models):
        rngs = [np.random.Generator(np.random.PCG64(s).advance(j * _BATH_STREAM_STRIDE)) for s in seeds]
        baths.append((_OUBath if mod.kind == "ornstein_uhlenbeck" else _TelegraphBath)(mod, rngs))

    def weighted_sum() -> np.ndarray:
        return weights @ v.reshape(len(weights), -1)  # flat (3 k,)

    hard: dict = {}
    edges = np.zeros(1)
    t = 0.0
    # flat float buffers: 8 bytes a time, 24 a sample
    sample_times, samples = array("d", [0.0]), array("d", weighted_sum())
    acquire_meta, acquire_sums = [], []
    events = program.expand()
    # events are read _DRAW_BLOCK at a time; the baths draw for the bath
    # intervals (waits and finite pulses) among them in one block
    while run := list(itertools.islice(events, _DRAW_BLOCK)):
        lengths = [
            ev.duration for ev in run
            if isinstance(ev, Wait) or isinstance(ev, Pulse) and ev.mode == "finite"
        ] if models else []
        if lengths:
            # from the last block's end: bit for bit one cumsum over the program
            edges = np.cumsum([edges[-1], *lengths])
            # summed bath values at the start of, and integrals over, each interval
            parts = [b.block(lengths, edges) for b in baths]
            shape = (len(lengths),) + per_member
            starts = sum(p[0] for p in parts).reshape(shape)
            integrals = sum(p[1] for p in parts).reshape(shape)
            del parts  # free the per-bath blocks while the events run
        k = 0  # index of the next bath interval in the block
        for ev in run:
            if isinstance(ev, Wait):
                h = ev.duration
                eff = det + integrals[k] / h if models and h > 0 else det
                v = evolve_free(v, h, eff, relax)
                t += h
                k += 1
            elif isinstance(ev, Acquire):
                acquire_meta.append((ev.label, t))
                acquire_sums.append(weighted_sum())
            elif ev.mode == "hard":
                m = hard.get(ev)
                if m is None:
                    axis = np.array([math.cos(ev.phase), math.sin(ev.phase), 0.0])
                    m = hard[ev] = rotate(np.eye(3), axis, ev.area)  # row j = image of e_j
                # one 2-D product, over every member's states when stacked
                v = v @ m if v.ndim == 2 else (v.reshape(-1, 3) @ m).reshape(v.shape)
            else:  # a finite pulse, with the bath value frozen at its start
                eff = det + starts[k] if models else det
                # one matrix per member, applied to each of its states
                m = finite_pulse_matrix(ev.rabi, ev.duration, ev.phase, eff).reshape(-1, 3, 3)
                v = (v.reshape(len(m), -1, 3) @ m).reshape(v.shape)
                t += ev.elapsed
                k += 1
            if record == "events":
                sample_times.append(t)
                samples.extend(weighted_sum())
    if record != "events":
        sample_times.extend(tm for _, tm in acquire_meta)
        samples.extend(np.ravel(acquire_sums))
        sample_times.append(t)
        samples.extend(weighted_sum())

    total_w = float(weights.sum())
    return SimulationResult(
        sample_times=np.array(sample_times),
        mean_bloch=np.array(samples).reshape((-1,) + initial.shape) / total_w,
        acquires=tuple(
            AcquireSample(label=lbl, time=tm, mean=s.reshape(initial.shape) / total_w)
            for (lbl, tm), s in zip(acquire_meta, acquire_sums)
        ),
        n_members=ensemble.size,
        duration=t,
        master_seed=master_seed,
    )


# ---------------------------------------------------------------------------
# analytic Ornstein-Uhlenbeck dephasing (calibration and oracles)
# ---------------------------------------------------------------------------

def ou_fid_coherence(t, sigma: float, tau_b: float):
    """Free-induction coherence under OU noise (Gaussian-phase result).

    ``exp(-sigma_w^2 tau_b^2 [t/tau_b - 1 + e^(-t/tau_b)])`` with
    ``sigma_w = 2*pi*sigma``; ``sigma`` in Hz, times in s.
    """
    t = np.asarray(t, dtype=float)
    w2 = (2.0 * math.pi * sigma) ** 2
    return np.exp(-w2 * tau_b**2 * (t / tau_b - 1.0 + np.exp(-t / tau_b)))


def ou_hahn_coherence(total_time, sigma: float, tau_b: float):
    """Two-pulse-echo coherence at total evolution time ``2*tau``.

    ``exp(-sigma_w^2 tau_b^2 [2 tau/tau_b - 3 + 4 e^(-tau/tau_b) -
    e^(-2 tau/tau_b)])``; reduces to the cubic law
    ``exp(-(2/3) sigma_w^2 tau^3 / tau_b)`` for ``tau << tau_b``.
    """
    tau = np.asarray(total_time, dtype=float) / 2.0
    x = np.exp(-tau / tau_b)
    w2 = (2.0 * math.pi * sigma) ** 2
    return np.exp(-w2 * tau_b**2 * (2.0 * tau / tau_b - 3.0 + 4.0 * x - x * x))


def calibrate_ou_sigma(tau_b: float) -> float:
    """Noise strength (Hz rms) giving a two-pulse-echo 1/e time of 0.86 s.

    The echo exponent scales as sigma^2, so the analytic expression
    inverts in closed form.  The target is the 0.86 s asymptotic decay
    time of the material this package models.
    """
    tau = 0.86 / 2.0
    x = math.exp(-tau / tau_b)
    bracket = 2.0 * tau / tau_b - 3.0 + 4.0 * x - x * x
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
    """Trajectory table, fixed header ``time_s,mx,my,mz``."""
    lines = ["time_s,mx,my,mz"]
    for t, v in zip(result.sample_times, result.mean_bloch):
        lines.append(f"{t:.17g},{v[0]:.17g},{v[1]:.17g},{v[2]:.17g}")
    return "\n".join(lines) + "\n"


def result_to_json(result: SimulationResult, config: dict | None = None) -> str:
    """Result document: config echo plus the acquire table."""
    doc = {
        "config": config if config is not None else {},
        "n_members": result.n_members,
        "duration_s": result.duration,
        "master_seed": result.master_seed,
        "acquires": [
            {
                "label": a.label,
                "time_s": a.time,
                "magnitude": float(np.hypot(a.mean[0], a.mean[1])),
                "phase_rad": float(math.atan2(a.mean[1], a.mean[0])),
                "mx": float(a.mean[0]),
                "my": float(a.mean[1]),
                "mz": float(a.mean[2]),
            }
            for a in result.acquires
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
