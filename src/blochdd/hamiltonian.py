"""I=5/2 quadrupole + effective-Zeeman level structure and field search.

The working Hamiltonian (Hz) is

    H(B) = sum_k B_k (M I)_k + sum_kl Q_kl I_k I_l

with B the magnetic field in gauss (crystal frame), M a general 3x3
effective-Zeeman tensor in Hz/G and Q a symmetric 3x3 quadrupole tensor
in Hz.  Spin operators use the standard angular-momentum convention for
I = 5/2: the basis is ordered by decreasing magnetic quantum number and
``<m|Iz|m> = m``.

An axial quadrupole ``Q = D diag(-1/3, -1/3, 2/3)`` gives
``H_Q = D (Iz^2 - I(I+1)/3)``: three doublets with splittings 2D and 4D.
A magnetic field lifts the remaining degeneracy; at special field
points a transition frequency is first-order insensitive to the field
in every direction (zero gradient), leaving only second-order
sensitivity -- those are the critical points this module searches for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

__all__ = [
    "SPIN",
    "spin_operators",
    "SpinSystem",
    "LevelDiagram",
    "DegenerateLevelsError",
    "CriticalPointResult",
    "hamiltonian_matrix",
    "eigensystem",
    "transition_frequency",
    "transition_frequencies_batch",
    "field_gradient",
    "frequency_hessian",
    "find_critical_point",
    "spin_system_from_dict",
    "spin_system_to_dict",
    "critical_point_report_json",
]

SPIN = 2.5
_DIM = 6


def spin_operators(spin: float = SPIN) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Ix, Iy, Iz) matrices, basis ordered m = +I ... -I."""
    dim = int(round(2 * spin + 1))
    m = spin - np.arange(dim)
    iz = np.diag(m.astype(complex))
    # <m+1| I+ |m> = sqrt(I(I+1) - m(m+1))
    up = np.sqrt(spin * (spin + 1) - m[1:] * (m[1:] + 1))
    iplus = np.zeros((dim, dim), dtype=complex)
    iplus[np.arange(dim - 1), np.arange(1, dim)] = up
    iminus = iplus.conj().T
    ix = (iplus + iminus) / 2.0
    iy = (iplus - iminus) / 2.0j
    return ix, iy, iz


_IX, _IY, _IZ = spin_operators()
_IOPS = np.stack([_IX, _IY, _IZ])  # (3, 6, 6)


@dataclass(frozen=True, eq=False)
class SpinSystem:
    """Quadrupole tensor (Hz) and effective-Zeeman tensor (Hz/G)."""

    q_tensor: np.ndarray  # (3, 3) symmetric, Hz
    m_tensor: np.ndarray  # (3, 3), Hz/G

    def __post_init__(self) -> None:
        q = np.asarray(self.q_tensor, dtype=float)
        m = np.asarray(self.m_tensor, dtype=float)
        if q.shape != (3, 3) or m.shape != (3, 3):
            raise ValueError("q_tensor and m_tensor must be 3x3")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(m))):
            raise ValueError("tensors must be finite")
        scale = max(np.abs(q).max(), 1.0)
        if np.abs(q - q.T).max() > 1e-12 * scale:
            raise ValueError("q_tensor must be symmetric")
        object.__setattr__(self, "q_tensor", q)
        object.__setattr__(self, "m_tensor", m)
        # field-independent part and the Zeeman operators (M I)_k =
        # sum_l M_kl I_l, reused by every diagonalization
        hq = np.einsum("kl,kab,lbc->ac", q, _IOPS, _IOPS)
        object.__setattr__(self, "_h_quad", hq)
        object.__setattr__(self, "_zeeman", np.einsum("kl,lab->kab", m, _IOPS))


class DegenerateLevelsError(ValueError):
    """Gradient requested at (nearly) degenerate levels."""


@dataclass(frozen=True, eq=False)
class LevelDiagram:
    """Sorted eigenvalues (Hz) of the six-level system at one field."""

    energies: np.ndarray  # (6,), ascending

    def transition(self, i: int, j: int) -> float:
        _check_levels(i, j)
        return float(self.energies[j] - self.energies[i])

    def transition_table(self) -> np.ndarray:
        """Antisymmetric matrix ``f[i, j] = e_j - e_i`` in Hz."""
        e = self.energies
        return e[None, :] - e[:, None]


def _check_levels(i: int, j: int) -> None:
    if not (0 <= i < _DIM and 0 <= j < _DIM):
        raise IndexError(f"level indices must lie in [0, {_DIM - 1}], got ({i}, {j})")
    if i == j:
        raise IndexError("level indices must differ")


def hamiltonian_matrix(system: SpinSystem, b) -> np.ndarray:
    """Hermitian Hamiltonian (Hz), ``(..., 6, 6)``, at fields ``b`` (gauss, ``(..., 3)``)."""
    b = np.asarray(b, dtype=float)
    return np.einsum("...k,kab->...ab", b, system._zeeman) + system._h_quad


def eigensystem(system: SpinSystem, b) -> LevelDiagram:
    """Exact diagonalization; eigenvalues real and ascending."""
    w = np.linalg.eigvalsh(hamiltonian_matrix(system, b))
    return LevelDiagram(energies=w)


def transition_frequency(system: SpinSystem, b, i: int, j: int) -> float:
    """``e_j - e_i`` in Hz at field ``b``."""
    _check_levels(i, j)
    w = np.linalg.eigvalsh(hamiltonian_matrix(system, b))
    return float(w[j] - w[i])


def transition_frequencies_batch(system: SpinSystem, b_points, i: int, j: int) -> np.ndarray:
    """Vectorized ``e_j - e_i`` over fields of shape ``(..., 3)``."""
    _check_levels(i, j)
    w = np.linalg.eigvalsh(hamiltonian_matrix(system, b_points))
    return w[..., j] - w[..., i]


def field_gradient(
    system: SpinSystem, b, i: int, j: int, gap_threshold: float = 1.0
) -> np.ndarray:
    """First-order field sensitivity of f_ij, Hz/G, by Hellmann-Feynman.

    ``d f / d B_k = <j| (M I)_k |j> - <i| (M I)_k |i>`` with
    ``(M I)_k = sum_l M_kl I_l``.  Raises
    :class:`DegenerateLevelsError` when either level is within
    ``gap_threshold`` (Hz) of a neighbor, where the derivative of a
    sorted eigenvalue is ill-defined.
    """
    _check_levels(i, j)
    w, v = np.linalg.eigh(hamiltonian_matrix(system, b))
    for n in (i, j):
        gap = min(
            w[n] - w[n - 1] if n > 0 else math.inf,
            w[n + 1] - w[n] if n < _DIM - 1 else math.inf,
        )
        if gap < gap_threshold:
            raise DegenerateLevelsError(
                f"level {n} is within {gap:.3g} Hz of a neighbor "
                f"(threshold {gap_threshold} Hz); gradient undefined"
            )
    vij = v[:, [i, j]]
    e = np.einsum("an,kab,bn->kn", vij.conj(), system._zeeman, vij).real
    return e[:, 1] - e[:, 0]


def frequency_hessian(
    system: SpinSystem, b, i: int, j: int, step: float = 0.5
) -> np.ndarray:
    """3x3 second-derivative matrix of f_ij by central differences (Hz/G^2).

    This is the curvature that bounds residual second-order field
    sensitivity at a critical point.
    """
    b = np.asarray(b, dtype=float)
    f0 = transition_frequency(system, b, i, j)
    hess = np.empty((3, 3))
    eye = np.eye(3)
    for k in range(3):
        fp = transition_frequency(system, b + step * eye[k], i, j)
        fm = transition_frequency(system, b - step * eye[k], i, j)
        hess[k, k] = (fp - 2.0 * f0 + fm) / step**2
    for k in range(3):
        for l in range(k + 1, 3):
            fpp = transition_frequency(system, b + step * (eye[k] + eye[l]), i, j)
            fpm = transition_frequency(system, b + step * (eye[k] - eye[l]), i, j)
            fmp = transition_frequency(system, b - step * (eye[k] - eye[l]), i, j)
            fmm = transition_frequency(system, b - step * (eye[k] + eye[l]), i, j)
            hess[k, l] = hess[l, k] = (fpp - fpm - fmp + fmm) / (4.0 * step**2)
    return hess


@dataclass(frozen=True, eq=False)
class CriticalPointResult:
    b_cp: np.ndarray  # (3,), gauss
    residual_gradient_norm: float  # Hz/G
    curvature: np.ndarray  # (3, 3), Hz/G^2
    converged: bool
    n_evaluations: int
    frequency: float  # Hz at b_cp


def find_critical_point(
    system: SpinSystem,
    b_init,
    i: int,
    j: int,
    box_halfwidth: float = 50.0,
    n_starts: int = 8,
    tolerance: float | None = None,
    gap_threshold: float = 1.0,
    seed: int = 0,
    max_iter: int = 4000,
) -> CriticalPointResult:
    """Locate a zero of the transition-frequency field gradient.

    Minimizes ``g(B) = |grad f_ij|^2`` with derivative-free simplex
    descent (the gradient of g would need second derivatives of
    eigenvalues, which finite differencing makes noisier than simplex
    steps on the scalar objective).  ``n_starts`` starts are drawn
    uniformly from the box ``b_init +- box_halfwidth`` per axis, plus
    ``b_init`` itself; the best end point wins.

    ``tolerance`` (Hz/G) defaults to ``1e-3`` times the spectral norm of
    the Zeeman tensor, i.e. a thousandfold first-order suppression
    relative to a typical bare slope.  Non-convergence returns the best
    point found with ``converged=False``.  Degenerate level pairs abort
    via :class:`DegenerateLevelsError`.
    """
    b_init = np.asarray(b_init, dtype=float)
    if tolerance is None:
        tolerance = 1e-3 * float(np.linalg.norm(system.m_tensor, 2))
    evaluations = 0

    def objective(b):
        nonlocal evaluations
        evaluations += 1
        try:
            g = field_gradient(system, b, i, j, gap_threshold)
        except DegenerateLevelsError:
            # steer the simplex away from level crossings
            return math.inf
        return float(g @ g)

    rng = np.random.Generator(np.random.PCG64(seed))
    starts = [b_init]
    for _ in range(max(0, n_starts - 1)):
        starts.append(b_init + rng.uniform(-box_halfwidth, box_halfwidth, 3))

    best = None
    for start in starts:
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxiter": max_iter,
                "xatol": 1e-8,
                "fatol": (tolerance**2) * 1e-6,
                "adaptive": True,
            },
        )
        if best is None or res.fun < best.fun:
            best = res

    if not math.isfinite(best.fun):
        raise DegenerateLevelsError(
            f"levels {i},{j} degenerate everywhere the search looked"
        )
    b_cp = np.asarray(best.x, dtype=float)
    residual = math.sqrt(max(best.fun, 0.0))
    return CriticalPointResult(
        b_cp=b_cp,
        residual_gradient_norm=residual,
        curvature=frequency_hessian(system, b_cp, i, j),
        converged=residual <= tolerance,
        n_evaluations=evaluations,
        frequency=transition_frequency(system, b_cp, i, j),
    )


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def spin_system_from_dict(doc: dict) -> SpinSystem:
    """Read a system from a config mapping with unit-suffixed keys."""
    try:
        q = np.asarray(doc["q_tensor_hz"], dtype=float)
        m = np.asarray(doc["m_tensor_hz_per_g"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"spin system config missing key {exc}") from exc
    return SpinSystem(q_tensor=q, m_tensor=m)


def spin_system_to_dict(system: SpinSystem) -> dict:
    return {
        "q_tensor_hz": [[float(x) for x in row] for row in system.q_tensor],
        "m_tensor_hz_per_g": [[float(x) for x in row] for row in system.m_tensor],
    }


def critical_point_report_json(
    result: CriticalPointResult, system: SpinSystem, i: int, j: int,
    config: dict | None = None,
) -> str:
    doc = {
        "config": config if config is not None else {},
        "level_pair": [i, j],
        "spin_system": spin_system_to_dict(system),
        "b_cp_g": [float(x) for x in result.b_cp],
        "frequency_hz": result.frequency,
        "residual_gradient_norm_hz_per_g": result.residual_gradient_norm,
        "curvature_hz_per_g2": [[float(x) for x in row] for row in result.curvature],
        "converged": result.converged,
        "n_evaluations": result.n_evaluations,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
