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
sensitivity -- those are the critical points this module searches for,
by damped Newton steps on a transition's field gradient (Hellmann-Feynman)
and Hessian (second-order perturbation theory).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "spin_operators",
    "SpinSystem",
    "DegenerateLevelsError",
    "CriticalPointResult",
    "hamiltonian_matrix",
    "transition_frequency",
    "field_gradient",
    "frequency_hessian",
    "find_critical_point",
    "spin_system_from_dict",
    "spin_system_to_dict",
    "critical_point_report_json",
]

_DIM = 6  # 2 I + 1 levels for I = 5/2


def spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Ix, Iy, Iz) matrices of I = 5/2, basis ordered m = +I ... -I."""
    spin = (_DIM - 1) / 2
    m = spin - np.arange(_DIM)
    iz = np.diag(m.astype(complex))
    # <m+1| I+ |m> = sqrt(I(I+1) - m(m+1))
    up = np.sqrt(spin * (spin + 1) - m[1:] * (m[1:] + 1))
    iplus = np.zeros((_DIM, _DIM), dtype=complex)
    iplus[np.arange(_DIM - 1), np.arange(1, _DIM)] = up
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


# a level closer than this (Hz) to a neighbor has no well-defined derivative
_GAP_THRESHOLD = 1.0


def _check_levels(i: int, j: int) -> None:
    if not (0 <= i < _DIM and 0 <= j < _DIM):
        raise IndexError(f"level indices must lie in [0, {_DIM - 1}], got ({i}, {j})")
    if i == j:
        raise IndexError("level indices must differ")


def hamiltonian_matrix(system: SpinSystem, b) -> np.ndarray:
    """Hermitian Hamiltonian (Hz), ``(..., 6, 6)``, at fields ``b`` (gauss, ``(..., 3)``)."""
    b = np.asarray(b, dtype=float)
    return np.einsum("...k,kab->...ab", b, system._zeeman) + system._h_quad


def transition_frequency(system: SpinSystem, b, i: int, j: int):
    """``e_j - e_i`` in Hz at fields ``b`` (gauss, ``(..., 3)``), shape ``(...)``."""
    _check_levels(i, j)
    w = np.linalg.eigvalsh(hamiltonian_matrix(system, b))
    return w[..., j] - w[..., i]


def _derivatives(system: SpinSystem, b: np.ndarray, i: int, j: int):
    """Gradient ``(n, 3)``, Hessian ``(n, 3, 3)`` of f_ij at fields ``b`` ``(n, 3)``,
    and the gap ``(n, 2)`` (Hz) from levels i and j to their nearest neighbors.

    With ``A_k = (M I)_k = sum_l M_kl I_l``: ``dE_p/dB_k = <p|A_k|p>`` and
    ``d2E_p/dB_k dB_l = 2 sum_{m != p} Re(<p|A_k|m><m|A_l|p>) / (E_p - E_m)``,
    both undefined where a gap is near zero.
    """
    w, v = np.linalg.eigh(hamiltonian_matrix(system, b))
    levels = [i, j]
    # a[n, k, p, m] = <p|A_k|m> for p in (i, j)
    a = np.einsum("nap,kab,nbm->nkpm", v[:, :, levels].conj(), system._zeeman, v)
    de = w[:, levels, None] - w[:, None, :]  # E_p - E_m, exactly 0 for m = p
    inv = np.divide(1.0, de, out=np.zeros_like(de), where=de != 0.0)
    second = 2.0 * np.einsum("nkpm,nlpm,npm->npkl", a, a.conj(), inv).real
    grad = a[:, :, 1, j].real - a[:, :, 0, i].real
    gap = np.where(np.eye(_DIM, dtype=bool)[levels], math.inf, np.abs(de)).min(axis=-1)
    return grad, second[:, 1] - second[:, 0], gap


def _point_derivatives(system: SpinSystem, b, i: int, j: int):
    _check_levels(i, j)
    grad, hess, gap = _derivatives(system, np.asarray(b, dtype=float)[None], i, j)
    for n, g in zip((i, j), gap[0]):
        if g < _GAP_THRESHOLD:
            raise DegenerateLevelsError(
                f"level {n} is within {g:.3g} Hz of a neighbor "
                f"(threshold {_GAP_THRESHOLD} Hz); gradient undefined")
    return grad[0], hess[0]


def field_gradient(system: SpinSystem, b, i: int, j: int) -> np.ndarray:
    """First-order field sensitivity of f_ij, Hz/G, by Hellmann-Feynman.

    Raises :class:`DegenerateLevelsError` when either level is within
    1 Hz of a neighbor, where the derivative of a sorted eigenvalue is
    ill-defined.
    """
    return _point_derivatives(system, b, i, j)[0]


def frequency_hessian(system: SpinSystem, b, i: int, j: int) -> np.ndarray:
    """3x3 second-derivative matrix of f_ij, Hz/G^2, by perturbation theory.

    The curvature that bounds residual second-order field sensitivity at
    a critical point; levels within 1 Hz of a neighbor raise
    :class:`DegenerateLevelsError` as in :func:`field_gradient`.
    """
    return _point_derivatives(system, b, i, j)[1]


@dataclass(frozen=True, eq=False)
class CriticalPointResult:
    b_cp: np.ndarray  # (3,), gauss
    residual_gradient_norm: float  # Hz/G
    curvature: np.ndarray  # (3, 3), Hz/G^2
    converged: bool
    n_evaluations: int
    frequency: float  # Hz at b_cp


_MAX_ITER = 100  # Newton steps per start
_MAX_HALVINGS = 10  # backtracking halvings per Newton step


def find_critical_point(
    system: SpinSystem,
    b_init,
    i: int,
    j: int,
    box_halfwidth: float = 50.0,
    n_starts: int = 8,
    tolerance: float | None = None,
    seed: int = 0,
) -> CriticalPointResult:
    """Locate a zero of the transition-frequency field gradient.

    The starts, ``b_init`` and ``n_starts - 1`` points drawn uniformly
    from the box ``b_init +- box_halfwidth`` per axis, take damped Newton
    steps on ``g = grad f = 0`` together, in batched diagonalizations.
    The step ``-pinv(H) g``, a descent direction for ``|g|^2`` when
    nonzero, is halved until ``|g|^2`` decreases.  A start stops at
    ``|g| <= 1e-6 tolerance``, at a zero step (``g`` in the null space of
    a singular ``H``) or when no halving helps; degenerate levels (a gap
    under 1 Hz) drop it or reject a trial point.  The first start with the
    smallest ``|g|`` wins.

    ``tolerance`` (Hz/G) defaults to ``1e-3`` times the spectral norm of
    the Zeeman tensor, a thousandfold first-order suppression relative to
    a typical bare slope.  Non-convergence returns the best point found
    with ``converged=False``; degenerate levels at every start raise.
    """
    _check_levels(i, j)
    b_init = np.asarray(b_init, dtype=float)
    if tolerance is None:
        tolerance = 1e-3 * float(np.linalg.norm(system.m_tensor, 2))
    rng = np.random.Generator(np.random.PCG64(seed))
    offsets = rng.uniform(-box_halfwidth, box_halfwidth, (max(0, n_starts - 1), 3))
    b = np.vstack([b_init, b_init + offsets])
    evaluations = 0

    def evaluate(points):
        nonlocal evaluations
        evaluations += len(points)
        g, h, gap = _derivatives(system, points, i, j)
        ok = (gap >= _GAP_THRESHOLD).all(axis=1)
        return g, h, np.where(ok, np.sum(g**2, axis=1), math.inf)

    grad, hess, norm2 = evaluate(b)
    if np.isinf(norm2).all():
        raise DegenerateLevelsError(
            f"levels {i},{j} degenerate everywhere the search looked"
        )
    stop2 = (1e-6 * tolerance) ** 2
    active = np.flatnonzero(np.isfinite(norm2) & (norm2 > stop2))
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        inv_h = np.linalg.pinv(hess[active], hermitian=True)
        step = -np.einsum("nkl,nl->nk", inv_h, grad[active])
        keep = step.any(axis=1)
        pending = np.flatnonzero(keep)  # positions in ``active``
        for t in 0.5 ** np.arange(_MAX_HALVINGS + 1):
            if not pending.size:
                break
            idx = active[pending]
            trial = b[idx] + t * step[pending]
            g, h, n2 = evaluate(trial)
            better = n2 < norm2[idx]
            acc = idx[better]
            b[acc], grad[acc] = trial[better], g[better]
            hess[acc], norm2[acc] = h[better], n2[better]
            pending = pending[~better]
        keep[pending] = False
        active = active[keep & (norm2[active] > stop2)]

    b_cp = b[int(np.argmin(norm2))]
    residual = float(np.linalg.norm(field_gradient(system, b_cp, i, j)))
    return CriticalPointResult(
        b_cp=b_cp,
        residual_gradient_norm=residual,
        curvature=frequency_hessian(system, b_cp, i, j),
        converged=residual <= tolerance,
        n_evaluations=evaluations,
        frequency=float(transition_frequency(system, b_cp, i, j)),
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
    """The search result as JSON; ``curvature_eigenvalues_hz_per_g2`` are the
    ascending principal second-order sensitivities of the transition."""
    doc = {
        "config": config if config is not None else {},
        "level_pair": [i, j],
        "spin_system": spin_system_to_dict(system),
        "b_cp_g": [float(x) for x in result.b_cp],
        "frequency_hz": result.frequency,
        "residual_gradient_norm_hz_per_g": result.residual_gradient_norm,
        "curvature_hz_per_g2": [[float(x) for x in row] for row in result.curvature],
        "curvature_eigenvalues_hz_per_g2": [
            float(x) for x in np.linalg.eigvalsh(result.curvature)
        ],
        "converged": result.converged,
        "n_evaluations": result.n_evaluations,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
