"""Decay-curve fitting and timescale extraction.

Models
------
single_exp          a(t) = A exp(-t / t2)
stretched           a(t) = A exp(-(t / t_m)^x)     (t is total evolution
                    time, i.e. 2*tau for an echo train -- the usual
                    stretched-echo convention)
inv_recovery        m(t) = m_eq - (m_eq - m0) exp(-t / t1)

Fits are nonlinear least squares (damped Gauss-Newton via
``scipy.optimize.least_squares``) initialized from a log-amplitude
linear regression.  Parameter uncertainties are linearized
(Jacobian-based, 1-sigma).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .bloch import NO_RELAXATION, RelaxationParams
from .ensemble import (
    EnsembleSpec,
    NoiseModel,
    acquire_series,
    run_program,
)
from .sequences import BangBangParams, PulseSpec, HARD_PULSES, build_bangbang

__all__ = [
    "DecayCurve",
    "DecayFit",
    "FitError",
    "fit_decay",
    "fit_inversion_recovery",
    "SweepPoint",
    "sweep_cycles",
    "sweep_t2_vs_tauc",
    "sweep_to_csv",
    "sweep_to_json",
    "fit_to_json",
]


class FitError(RuntimeError):
    """Rank-deficient or non-convergent fit."""


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Sampled decay: strictly increasing times (s), amplitudes, optional 1-sigma."""

    times: np.ndarray
    amplitudes: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        a = np.asarray(self.amplitudes, dtype=float)
        if t.ndim != 1 or t.shape != a.shape:
            raise ValueError("times and amplitudes must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(a))):
            raise ValueError("times and amplitudes must be finite")
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "amplitudes", a)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            if s.shape != t.shape:
                raise ValueError("sigma must match times in length")
            if not np.all((s > 0) & (s < np.inf)):
                raise ValueError("sigma values must be positive and finite")
            object.__setattr__(self, "sigma", s)

    @classmethod
    def from_csv(cls, text: str) -> "DecayCurve":
        """Parse ``time_s,amplitude[,sigma]`` CSV.

        Blank and ``#`` lines are skipped anywhere; other non-numeric lines
        (a header) may only precede the first numeric row.  Every numeric
        row has 2 or 3 columns, as many as the first.
        """
        rows = []
        for n, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [float(p) for p in line.split(",")]
            except ValueError:
                if rows:
                    raise ValueError(f"line {n} is not numeric: {line!r}") from None
                continue
            if not 2 <= len(row) <= 3:
                raise ValueError(f"line {n} has {len(row)} columns; rows need at least "
                                 "time_s and amplitude columns, and at most a sigma after them")
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"line {n} has {len(row)} columns, the first numeric row {len(rows[0])}")
            rows.append(row)
        if not rows:
            raise ValueError("no numeric rows found")
        data = np.asarray(rows)
        sigma = data[:, 2] if data.shape[1] == 3 else None
        return cls(times=data[:, 0], amplitudes=data[:, 1], sigma=sigma)


@dataclass(frozen=True, eq=False)
class DecayFit:
    model: str
    params: dict  # name -> fitted value
    uncertainties: dict  # name -> 1-sigma
    residual_norm: float


def _lsq(residual_fn, p0, names, model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = least_squares(residual_fn, p0, method="lm", max_nfev=20000)
    if not res.success and np.linalg.norm(res.fun) > 1e-10:
        raise FitError(f"{model} fit did not converge: {res.message}")
    jac = res.jac
    jtj = jac.T @ jac
    dof = max(len(res.fun) - len(p0), 1)
    s2 = float(res.fun @ res.fun) / dof
    try:
        cov = np.linalg.inv(jtj) * s2
    except np.linalg.LinAlgError as exc:
        raise FitError(f"{model} fit is rank deficient: {exc}") from exc
    if not np.all(np.isfinite(cov)):
        raise FitError(f"{model} fit is rank deficient (singular Jacobian)")
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return res, dict(zip(names, map(float, res.x))), dict(zip(names, map(float, sig)))


def _log_slope_init(t, a):
    """Amplitude and rate from a log-linear regression on positive points."""
    pos = a > 0
    if pos.sum() < 2:
        raise FitError("need at least two positive amplitudes to initialize")
    if not pos.all():
        warnings.warn(
            f"clipping {int((~pos).sum())} non-positive amplitudes "
            "for log initialization (fit itself uses all points)",
            stacklevel=3,
        )
    slope, intercept = np.polyfit(t[pos], np.log(a[pos]), 1)
    return math.exp(intercept), max(-slope, 1e-300)


def fit_decay(curve: DecayCurve, model: str = "single_exp") -> DecayFit:
    """Fit a decay law; see the module docstring for the model forms.

    Requires >= 4 points (single_exp) or >= 6 (stretched).  Raises
    :class:`FitError` on rank deficiency or non-convergence.
    """
    t = curve.times
    a = curve.amplitudes
    w = 1.0 / curve.sigma if curve.sigma is not None else np.ones_like(a)
    if model == "single_exp":
        if len(t) < 4:
            raise ValueError(f"single_exp needs >= 4 points, got {len(t)}")
        amp0, rate0 = _log_slope_init(t, a)

        def resid(p):
            return (p[0] * np.exp(-t / p[1]) - a) * w

        res, params, sig = _lsq(resid, [amp0, 1.0 / rate0], ["amplitude", "t2"], model)
        if params["t2"] <= 0:
            raise FitError(f"single_exp fit gave non-positive t2 = {params['t2']}")
    elif model == "stretched":
        if len(t) < 6:
            raise ValueError(f"stretched needs >= 6 points, got {len(t)}")
        amp0, rate0 = _log_slope_init(t, a)

        def resid(p):
            return (p[0] * np.exp(-((t / p[1]) ** p[2])) - a) * w

        res, params, sig = _lsq(
            resid, [amp0, 1.0 / rate0, 1.0], ["amplitude", "t_m", "exponent"], model
        )
        if params["t_m"] <= 0 or not 0 < params["exponent"] <= 5:
            raise FitError(
                f"stretched fit left the physical domain: t_m={params['t_m']}, "
                f"x={params['exponent']}"
            )
    else:
        raise ValueError(f"unknown decay model {model!r}")
    return DecayFit(
        model=model,
        params=params,
        uncertainties=sig,
        residual_norm=float(np.linalg.norm(res.fun)),
    )


def fit_inversion_recovery(curve: DecayCurve) -> DecayFit:
    """Fit ``m(t) = m_eq - (m_eq - m0) exp(-t/t1)``; >= 4 points."""
    t = curve.times
    a = curve.amplitudes
    w = 1.0 / curve.sigma if curve.sigma is not None else np.ones_like(a)
    if len(t) < 4:
        raise ValueError(f"inversion recovery needs >= 4 points, got {len(t)}")
    m_eq0 = float(a[-1])
    m00 = float(a[0])
    # crude rate guess from the (signed) recovery trajectory
    span = abs(m_eq0 - m00)
    if span <= 0:
        raise FitError("flat data: recovery amplitude span is zero")
    mid = m_eq0 - (m_eq0 - m00) / math.e
    k = int(np.argmin(np.abs(a - mid)))
    t10 = t[k] if t[k] > 0 else (t[-1] - t[0]) / 3.0

    def resid(p):
        t1, m0, m_eq = p
        return (m_eq - (m_eq - m0) * np.exp(-t / t1) - a) * w

    res, params, sig = _lsq(resid, [t10, m00, m_eq0], ["t1", "m0", "m_eq"], "inv_recovery")
    if params["t1"] <= 0:
        raise FitError(f"inversion recovery gave non-positive t1 = {params['t1']}")
    return DecayFit(
        model="inv_recovery",
        params=params,
        uncertainties=sig,
        residual_norm=float(np.linalg.norm(res.fun)),
    )


# ---------------------------------------------------------------------------
# decoupling sweep harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepPoint:
    tau_c: float
    t2: float  # math.inf flags "no measurable decay"
    t2_sigma: float
    status: str  # fitted | no_measurable_decay | fit_failed
    n_points: int


def sweep_cycles(tau_c_values, total_time: float) -> list[tuple[float, int]]:
    """``(tau_c, n_cycles)`` of each sweep point, sorted by ``tau_c``.

    A train of ``n_cycles = floor(total_time / (2 tau_c))`` cycles reads
    one echo per cycle.  Raises ValueError if a spacing is not positive,
    is repeated or gives fewer than the 4 echoes a single_exp fit needs.
    """
    points = []
    for tau_c in sorted(float(x) for x in tau_c_values):
        if not tau_c > 0:
            raise ValueError(f"tau_c must be positive, got {tau_c}")
        if points and tau_c == points[-1][0]:
            raise ValueError(f"tau_c {tau_c:g} s is repeated; each spacing runs once")
        n_cycles = int(math.floor(total_time / (2.0 * tau_c)))
        if n_cycles < 4:
            raise ValueError(
                f"tau_c {tau_c:g} s gives {n_cycles} echoes in {total_time:g} s; the T2 fit needs >= 4"
            )
        points.append((tau_c, n_cycles))
    return points


# a longer echo series is thinned to this many evenly spaced points for the fit
_MAX_FIT_POINTS = 200


def sweep_t2_vs_tauc(
    tau_c_values,
    *,
    noise: NoiseModel,
    ensemble: EnsembleSpec,
    total_time: float,
    tau1: float | None = None,
    pulse_spec: PulseSpec = HARD_PULSES,
    master_seed: int = 0,
    relax: RelaxationParams = NO_RELAXATION,
):
    """Extract the decoupled coherence time at each pulse spacing.

    For every ``tau_c`` a pulse train of total length ``total_time`` is
    run with an echo read-out every cycle, and a single-exponential fit
    of the echo decay, thinned to at most 200 evenly spaced echoes,
    gives T2.  All points share the same master seed so member noise
    realizations are common mode across the sweep, which makes the
    extracted trend insensitive to Monte-Carlo fluctuations.

    A fitted rate that is non-positive means the decay is below the
    noise floor of the run; the point is flagged ``no_measurable_decay``
    with ``t2 = inf``.  Fit failures are recorded and the sweep
    continues.  Every spacing is checked by :func:`sweep_cycles` before
    the first run.  Returns points sorted by ``tau_c``.
    """
    points = []
    for tau_c, n_cycles in sweep_cycles(tau_c_values, total_time):
        t1_delay = tau1 if tau1 is not None else min(0.5 * tau_c, 0.25e-3)
        program = build_bangbang(
            BangBangParams(tau1=t1_delay, tau_c=tau_c, n_cycles=n_cycles),
            pulse_spec,
            acquire_every=1,
        )
        result = run_program(
            program,
            ensemble,
            noise=noise,
            relax=relax,
            master_seed=master_seed,
            record="acquires",
        )
        times, mags = acquire_series(result, "echo")
        if len(times) > _MAX_FIT_POINTS:
            idx = np.linspace(0, len(times) - 1, _MAX_FIT_POINTS).astype(int)
            times, mags = times[idx], mags[idx]
        try:
            fit = fit_decay(DecayCurve(times=times, amplitudes=mags), "single_exp")
            points.append(
                SweepPoint(
                    tau_c=tau_c,
                    t2=fit.params["t2"],
                    t2_sigma=fit.uncertainties["t2"],
                    status="fitted",
                    n_points=len(times),
                )
            )
        except FitError:
            # decay below the run's noise floor fits to a non-positive or
            # runaway rate; report it as unmeasurably slow
            rate = -np.polyfit(times, np.log(np.clip(mags, 1e-300, None)), 1)[0]
            if rate <= 0 or not np.isfinite(rate):
                points.append(
                    SweepPoint(tau_c, math.inf, math.inf, "no_measurable_decay", len(times))
                )
            else:
                points.append(SweepPoint(tau_c, math.inf, math.inf, "fit_failed", len(times)))
    return points


def sweep_to_csv(points) -> str:
    lines = ["tau_c_s,t2_s,t2_sigma_s,status,n_points"]
    for p in points:
        lines.append(
            f"{p.tau_c:.17g},{p.t2:.17g},{p.t2_sigma:.17g},{p.status},{p.n_points}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(points, config: dict | None = None) -> str:
    doc = {
        "config": config if config is not None else {},
        "points": [
            {
                "tau_c_s": p.tau_c,
                "t2_s": None if math.isinf(p.t2) else p.t2,
                "t2_sigma_s": None if math.isinf(p.t2_sigma) else p.t2_sigma,
                "status": p.status,
                "n_points": p.n_points,
            }
            for p in points
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def fit_to_json(fit: DecayFit, config: dict | None = None) -> str:
    doc = {
        "config": config if config is not None else {},
        "model": fit.model,
        "params": {k: fit.params[k] for k in sorted(fit.params)},
        "uncertainties": {k: fit.uncertainties[k] for k in sorted(fit.uncertainties)},
        "residual_norm": fit.residual_norm,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
