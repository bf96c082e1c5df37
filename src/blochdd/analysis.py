"""Decay-curve fitting and timescale extraction.

Models
------
single_exp          a(t) = A exp(-t / t2)
stretched           a(t) = A exp(-(t / t_m)^x)     (t is total evolution
                    time, i.e. 2*tau for an echo train -- the usual
                    stretched-echo convention)
inv_recovery        m(t) = m_eq - (m_eq - m0) exp(-t / t1)

Fits are nonlinear least squares, solved in the package by
Levenberg-Marquardt on each model's analytic Jacobian and initialized
from a log-amplitude linear regression (the stretched law from a
Weibull plot, ln(-ln(a / A)) against ln t).  Parameter uncertainties are
linearized from the same Jacobian (1-sigma).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import NO_RELAXATION, RelaxationParams
from .ensemble import (
    EnsembleSpec,
    NoiseModel,
    acquire_series,
    run_program,
)

__all__ = [
    "DecayCurve",
    "DecayFit",
    "FitError",
    "fit_decay",
    "fit_inversion_recovery",
    "SweepPoint",
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


# Levenberg-Marquardt: MINPACK's default tolerances, and caps on the
# iterations and on the damping increases of one iteration
_FTOL = _XTOL = 1.49e-8
_MAX_ITER = 200
_MAX_DAMPING = 40


def _weighted(model_fn, curve: DecayCurve, p) -> tuple:
    """Residuals ``(f - a) / sigma`` of ``model_fn(t, p) -> (f, df/dp)`` and their Jacobian."""
    f, jac = model_fn(curve.times, p)
    w = 1.0 / curve.sigma if curve.sigma is not None else np.ones_like(f)
    return (f - curve.amplitudes) * w, jac * w[:, None]


def _lsq(model_fn, curve: DecayCurve, p0, names, model) -> DecayFit:
    """Weighted least-squares fit of ``model_fn`` (see :func:`_weighted`).

    Damped Gauss-Newton steps with Marquardt's diagonal scaling (More,
    LNM 630 (1978)).  The covariance comes from the final ``J^T J``.
    """
    def evaluate(p):
        r, jac = _weighted(model_fn, curve, p)
        return r @ r, p, r, jac

    with np.errstate(all="ignore"):
        cost, x, r, jac = evaluate(np.asarray(p0, dtype=float))
        scale, lam = np.zeros(len(x)), 1e-3
        try:
            for _ in range(_MAX_ITER):
                jtj, grad = jac.T @ jac, jac.T @ r
                scale = np.maximum(scale, np.diag(jtj))
                d = np.sqrt(np.where(scale > 0, scale, 1.0))
                for _ in range(_MAX_DAMPING):
                    step = np.linalg.solve(jtj + lam * np.diag(d * d), -grad)
                    done = np.linalg.norm(d * step) <= _XTOL * np.linalg.norm(d * x)
                    trial = evaluate(x + step)
                    if done or trial[0] < cost:
                        break
                    lam *= 10.0
                else:
                    raise FitError(f"{model} fit did not converge: no damping reduced the residual")
                if trial[0] < cost:
                    predicted = -step @ (2.0 * grad + jtj @ step)
                    done |= cost - trial[0] <= _FTOL * cost and predicted <= _FTOL * cost
                    (cost, x, r, jac), lam = trial, lam / 10.0
                if done:
                    break
            else:
                raise FitError(f"{model} fit did not converge in {_MAX_ITER} iterations")
            cov = np.linalg.inv(jac.T @ jac) * cost / max(len(r) - len(x), 1)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"{model} fit is rank deficient: {exc}") from exc
    if not np.all(np.isfinite(cov)):
        raise FitError(f"{model} fit is rank deficient (singular Jacobian)")
    sig = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return DecayFit(model=model, params=dict(zip(names, map(float, x))),
                    uncertainties=dict(zip(names, map(float, sig))),
                    residual_norm=float(np.linalg.norm(r)))


def _single_exp(t, p):
    e = np.exp(-t / p[1])
    return p[0] * e, np.stack([e, p[0] * e * t / p[1] ** 2], axis=1)


def _stretched(t, p):
    q = t / p[1]
    u = q ** p[2]
    e = np.exp(-u)
    # u ln q -> 0 as t -> 0
    u_ln_q = u * np.log(q, out=np.zeros_like(q), where=q > 0)
    return p[0] * e, np.stack([e, p[0] * e * u * p[2] / p[1], -p[0] * e * u_ln_q], axis=1)


def _inv_recovery(t, p):
    t1, m0, m_eq = p
    e = np.exp(-t / t1)
    return m_eq - (m_eq - m0) * e, np.stack([-(m_eq - m0) * e * t / t1**2, e, 1.0 - e], axis=1)


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


def _weibull_init(t, a) -> list | None:
    """``[A, t_m, x]`` for the stretched law from a Weibull plot: with ``A``
    the largest amplitude, ``ln(-ln(a / A)) = x ln t - x ln t_m`` is a line
    over the points with ``t > 0`` and ``0 < a < A``.  None when fewer than
    two such points remain or the slope is not positive."""
    amp = float(np.max(a))
    use = (t > 0) & (a > 0) & (a < amp)
    if use.sum() < 2:
        return None
    slope, intercept = np.polyfit(np.log(t[use]), np.log(-np.log(a[use] / amp)), 1)
    if not 0 < slope < math.inf:
        return None
    return [amp, math.exp(-intercept / slope), float(slope)]


def fit_decay(curve: DecayCurve, model: str = "single_exp") -> DecayFit:
    """Fit a decay law; see the module docstring for the model forms.

    Requires >= 4 points (single_exp) or >= 6 (stretched).  Raises
    :class:`FitError` on rank deficiency or non-convergence.
    """
    t, a = curve.times, curve.amplitudes
    if model == "single_exp":
        if len(t) < 4:
            raise ValueError(f"single_exp needs >= 4 points, got {len(t)}")
        amp0, rate0 = _log_slope_init(t, a)
        fit = _lsq(_single_exp, curve, [amp0, 1.0 / rate0], ["amplitude", "t2"], model)
        if fit.params["t2"] <= 0:
            raise FitError(f"single_exp fit gave non-positive t2 = {fit.params['t2']}")
    elif model == "stretched":
        if len(t) < 6:
            raise ValueError(f"stretched needs >= 6 points, got {len(t)}")
        start = _weibull_init(t, a)
        if start is None:
            amp0, rate0 = _log_slope_init(t, a)
            start = [amp0, 1.0 / rate0, 1.0]
        fit = _lsq(_stretched, curve, start, ["amplitude", "t_m", "exponent"], model)
        if fit.params["t_m"] <= 0 or not 0 < fit.params["exponent"] <= 5:
            raise FitError(f"stretched fit left the physical domain: t_m={fit.params['t_m']}, "
                           f"x={fit.params['exponent']}")
    else:
        raise ValueError(f"unknown decay model {model!r}")
    return fit


def fit_inversion_recovery(curve: DecayCurve) -> DecayFit:
    """Fit ``m(t) = m_eq - (m_eq - m0) exp(-t/t1)``; >= 4 points."""
    t, a = curve.times, curve.amplitudes
    if len(t) < 4:
        raise ValueError(f"inversion recovery needs >= 4 points, got {len(t)}")
    m_eq0, m00 = float(a[-1]), float(a[0])
    # crude rate guess from the (signed) recovery trajectory
    if m_eq0 == m00:
        raise FitError("flat data: recovery amplitude span is zero")
    mid = m_eq0 - (m_eq0 - m00) / math.e
    k = int(np.argmin(np.abs(a - mid)))
    t10 = t[k] if t[k] > 0 else (t[-1] - t[0]) / 3.0
    fit = _lsq(_inv_recovery, curve, [t10, m00, m_eq0], ["t1", "m0", "m_eq"], "inv_recovery")
    if fit.params["t1"] <= 0:
        raise FitError(f"inversion recovery gave non-positive t1 = {fit.params['t1']}")
    return fit


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


def sweep_t2_vs_tauc(
    programs,
    *,
    noise: NoiseModel,
    ensemble: EnsembleSpec,
    master_seed: int = 0,
    relax: RelaxationParams = NO_RELAXATION,
):
    """Extract the decoupled coherence time at each pulse spacing.

    ``programs`` maps each spacing ``tau_c`` to the pulse train run for
    it, which reads ``echo`` acquires.  A single-exponential fit of every
    echo it reads gives T2.  All points share the same master seed.
    ``t2_sigma`` is the fit's linearized error; it does not include the
    Monte-Carlo error of the finite ensemble, which can be much larger.

    A fitted rate that is non-positive means the decay is below the
    noise floor of the run; the point is flagged ``no_measurable_decay``
    with ``t2 = inf``.  Fit failures are recorded and the sweep
    continues.  Returns one point per spacing, in the order of
    ``programs``.
    """
    points = []
    for tau_c, program in programs.items():
        result = run_program(program, ensemble, noise=noise, relax=relax, master_seed=master_seed)
        times, mags = acquire_series(result, "echo")
        try:
            fit = fit_decay(DecayCurve(times=times, amplitudes=mags), "single_exp")
            t2, t2_sigma = fit.params["t2"], fit.uncertainties["t2"]
            points.append(SweepPoint(tau_c, t2, t2_sigma, "fitted", len(times)))
        except FitError:
            # decay below the run's noise floor fits to a non-positive or
            # runaway rate; report it as unmeasurably slow
            rate = -np.polyfit(times, np.log(np.clip(mags, 1e-300, None)), 1)[0]
            status = "no_measurable_decay" if rate <= 0 or not np.isfinite(rate) else "fit_failed"
            points.append(SweepPoint(tau_c, math.inf, math.inf, status, len(times)))
    return points


def sweep_to_csv(points) -> str:
    lines = ["tau_c_s,t2_s,t2_sigma_s,status,n_points"]
    for p in points:
        lines.append(
            f"{p.tau_c:.17g},{p.t2:.17g},{p.t2_sigma:.17g},{p.status},{p.n_points}"
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(points, config: dict) -> str:
    doc = {
        "config": config,
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


def fit_to_json(fit: DecayFit, config: dict) -> str:
    doc = {
        "config": config,
        "model": fit.model,
        "params": {k: fit.params[k] for k in sorted(fit.params)},
        "uncertainties": {k: fit.uncertainties[k] for k in sorted(fit.uncertainties)},
        "residual_norm": fit.residual_norm,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
