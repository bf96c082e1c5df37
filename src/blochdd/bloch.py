"""Single-spin Bloch-vector rotation kernels in the rotating frame.

The module holds only kernels: rotations, hard and finite pulse
matrices, and free evolution with relaxation.  A pulse itself is a
:class:`blochdd.sequences.Pulse`.  States are plain numpy arrays of
shape ``(3,)`` (or ``(..., 3)`` for batches; every operation broadcasts
over leading axes).  All evolutions are closed-form rotations and
exponential relaxation factors -- there is no ODE stepping and
therefore no integrator tolerance to tune.

Rotation matrices act on row vectors: ``v' = v @ M``, so row ``j`` of
``M`` is the image of the unit vector ``e_j``.  A batch of states
``(..., k, 3)`` times a batch of matrices ``(..., 3, 3)`` is then one
stacked ``matmul``, which is how :func:`blochdd.ensemble.run_program`
applies a per-member pulse to all of a member's states at once.
Evolution under a stochastic bath lives in ``run_program``, which draws
each member's bath exactly once per interval and calls
:func:`evolve_free` and :func:`finite_pulse_matrix` with the result.

Conventions (fixed once, used everywhere in this package):

* Rotations are right-handed.  A pulse of phase ``phi`` rotates the
  Bloch vector about the equatorial axis ``(cos phi, sin phi, 0)``.
* Free precession at detuning ``delta`` (Hz) rotates about ``+z`` by
  ``+2*pi*delta*t``.
* A "-pi" pulse is a pi pulse with its phase advanced by pi (same axis,
  opposite rotation sense).
* Relaxation during pulses is neglected: pulse durations are
  microseconds while T1, T2 are seconds in the regime this package
  targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RelaxationParams",
    "NO_RELAXATION",
    "apply_hard_pulse",
    "evolve_free",
    "finite_pulse_matrix",
    "rotate",
    "rotation_matrix",
]


@dataclass(frozen=True)
class RelaxationParams:
    """Longitudinal/transverse relaxation times in seconds.

    ``math.inf`` disables the corresponding channel.  ``z_equilibrium``
    is the value the z component relaxes toward; the default 0 reflects
    negligible thermal polarization at kelvin temperatures and MHz
    transition frequencies (an optically prepared pure state is modeled
    by the initial condition instead).
    """

    t1: float = math.inf
    t2: float = math.inf
    z_equilibrium: float = 0.0

    def __post_init__(self) -> None:
        if not self.t1 > 0:
            raise ValueError(f"t1 must be positive, got {self.t1}")
        if not self.t2 > 0:
            raise ValueError(f"t2 must be positive, got {self.t2}")
        if math.isfinite(self.t1) and math.isfinite(self.t2):
            if self.t2 > 2.0 * self.t1 + 1e-12:
                raise ValueError(
                    f"t2 ({self.t2}) must not exceed 2*t1 ({2 * self.t1})"
                )
        if not -1.0 <= self.z_equilibrium <= 1.0:
            raise ValueError(
                f"z_equilibrium must lie in [-1, 1], got {self.z_equilibrium}"
            )


NO_RELAXATION = RelaxationParams()


def rotate(state: np.ndarray, axis: np.ndarray, angle) -> np.ndarray:
    """Rotate Bloch vector(s) about unit axis/axes by angle(s), right-handed.

    Rodrigues form: ``v' = v cosA + (k x v) sinA + k (k.v)(1 - cosA)``.
    ``state`` and ``axis`` broadcast as ``(..., 3)``; ``angle`` as ``(...)``.
    """
    state = np.asarray(state, dtype=float)
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)
    c = np.cos(angle)[..., None]
    s = np.sin(angle)[..., None]
    kxv = np.cross(axis, state)
    kdv = np.sum(axis * state, axis=-1, keepdims=True)
    return state * c + kxv * s + axis * kdv * (1.0 - c)


def apply_hard_pulse(state: np.ndarray, area: float, phase: float = 0.0) -> np.ndarray:
    """Instantaneous rotation by ``area`` about ``(cos phase, sin phase, 0)``.

    Norm-preserving; detuning plays no role because the pulse takes zero
    time.  ``area=pi, phase=0`` maps (0,0,1) to (0,0,-1); following it
    with ``area=pi, phase=pi`` undoes it exactly (the pi,-pi pair is the
    identity on the whole sphere).
    """
    axis = np.array([math.cos(phase), math.sin(phase), 0.0])
    return rotate(state, axis, area)


def rotation_matrix(axis, angle) -> np.ndarray:
    """Right-handed rotation(s) about unit axis/axes, as ``(..., 3, 3)`` matrices.

    Row convention: ``v @ rotation_matrix(k, a)`` equals ``rotate(v, k, a)``.
    ``axis`` broadcasts as ``(..., 3)`` and ``angle`` as ``(...)``; the
    matrix is ``c I + (1 - c) k k^T - s [k]_x`` with ``[k]_x v = k x v``.
    """
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)
    c = np.cos(angle)
    s = np.sin(angle)
    kx, ky, kz = axis[..., 0], axis[..., 1], axis[..., 2]
    sx, sy, sz = kx * s, ky * s, kz * s
    u = 1.0 - c
    ux, uy, uz = u * kx, u * ky, u * kz
    # every entry holds a u*k term, so each has the full broadcast shape
    m = np.stack(
        [
            ux * kx + c, ux * ky + sz, ux * kz - sy,
            uy * kx - sz, uy * ky + c, uy * kz + sx,
            uz * kx + sy, uz * ky - sx, uz * kz + c,
        ],
        axis=-1,
    )
    return m.reshape(m.shape[:-1] + (3, 3))


def finite_pulse_matrix(rabi: float, duration: float, phase: float = 0.0, detuning=0.0) -> np.ndarray:
    """Rotation matrix of a square pulse, shape ``detuning.shape + (3, 3)``.

    Off resonance the rotation axis tilts out of the equator: the exact
    rotation is by ``2*pi*sqrt(rabi^2 + detuning^2)*duration`` about the
    unit axis proportional to ``(rabi cos phase, rabi sin phase,
    detuning)``.  Apply it as ``v @ M`` (see the module docstring).
    """
    if not rabi > 0:
        raise ValueError(f"rabi must be positive, got {rabi}")
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    detuning = np.asarray(detuning, dtype=float)
    omega_eff = np.hypot(rabi, detuning)  # generalized Rabi frequency, Hz
    axis = np.stack(
        [rabi * math.cos(phase) / omega_eff, rabi * math.sin(phase) / omega_eff, detuning / omega_eff],
        axis=-1,
    )
    return rotation_matrix(axis, 2.0 * math.pi * omega_eff * duration)


def evolve_free(
    state: np.ndarray,
    duration: float,
    detuning=0.0,
    relax: RelaxationParams = NO_RELAXATION,
) -> np.ndarray:
    """Free precession with relaxation, in closed form.

    Transverse components precess about +z by ``2*pi*detuning*duration``
    and shrink by ``exp(-duration/t2)``; z relaxes toward
    ``z_equilibrium`` with time constant t1.

    ``detuning`` may be per-member (array).
    """
    if duration < 0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    state = np.asarray(state, dtype=float)
    detuning = np.asarray(detuning, dtype=float)
    theta = 2.0 * math.pi * detuning * duration
    c = np.cos(theta)
    s = np.sin(theta)
    e2 = np.exp(-duration / relax.t2)
    e1 = math.exp(-duration / relax.t1)
    out = np.empty(np.broadcast_shapes(state.shape, detuning.shape + (1,)), dtype=float)
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    out[..., 0] = (x * c - y * s) * e2
    out[..., 1] = (x * s + y * c) * e2
    out[..., 2] = relax.z_equilibrium + (z - relax.z_equilibrium) * e1
    return out
