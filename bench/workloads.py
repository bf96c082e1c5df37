"""The benchmark workloads: configs generated from a seed.

Each workload is one ``blochdd`` subcommand on one generated JSON
config.  The benchmark seed picks the random parts of the inputs
(ensemble draws, bath realizations, search starts); the CLI receives
only the generated config and never the benchmark seed itself.  The
same (workload, seed, size) always yields byte-identical configs.

Configs avoid every key and flag the roadmap plans to delete
(``dt_s``, ``--threads``, ``max_member_steps``, ``hessian_step``), so
the workloads keep running after those knobs go.

``size="paper"`` is what the benchmark measures; ``size="smoke"`` is a
seconds-long variant with the same structure, used by the benchmark's
own tests.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

NAMES = ("ou_sweep", "tomo_telegraph", "critical_point")
SIZES = ("paper", "smoke")

# Synthetic I=5/2 system with an interior zero of the (2, 3) transition
# gradient; the same tensors as the hamiltonian tests.
Q_SYNTH = [
    [1230.1533574825742, -295923.15062440216, -106997.12638238954],
    [-295923.15062440216, -454670.7851717225, 174284.34527903557],
    [-106997.12638238954, 174284.34527903557, -492206.5185513296],
]
M_SYNTH = [
    [1379.5251001800596, 489.8420501851982, 356.88700816006076],
    [105.41424899789855, 1069.5319552917954, -29.251822463273488],
    [695.3031944582879, -1344.2145472850818, 1542.384238959782],
]
B_CP_KNOWN = (-256.0185, 950.6272, -192.4829)

OU_TAU_B = 5e-3


def ou_sigma_for_echo(tau_b: float, echo_1e_time: float = 0.86) -> float:
    """OU rms (Hz) whose Hahn-echo 1/e time is ``echo_1e_time``.

    The closed form of ``blochdd.ensemble.calibrate_ou_sigma``, restated
    here so that generating a config never imports the package.
    """
    tau = echo_1e_time / 2.0
    x = math.exp(-tau / tau_b)
    bracket = 2.0 * tau / tau_b - 3.0 + 4.0 * x - x * x
    return 1.0 / (2.0 * math.pi * tau_b * math.sqrt(bracket))


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: subcommand, extra flags and the config."""

    name: str
    subcommand: str
    extra_args: tuple
    config: dict

    def config_text(self) -> str:
        return json.dumps(self.config, indent=2, sort_keys=True) + "\n"

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.subcommand, "--config", config_path, "--out-dir", out_dir, *self.extra_args]


def _ou_sweep(rng: random.Random, smoke: bool) -> Workload:
    # omega_c*tau_c = tau_c/tau_b spans 0.1 .. 6.4: decoupled and
    # non-decoupled points in one sweep.  dt is left at its default.
    return Workload(
        name="ou_sweep",
        subcommand="sweep",
        extra_args=(),
        config={
            "sweep": {
                "tau_c_s": [5e-4, 2e-3, 8e-3, 3.2e-2],
                "total_time_s": 0.3 if smoke else 2.0,
            },
            "pulses": {"mode": "hard"},
            "ensemble": {
                "size": 16 if smoke else 64,
                "distribution": "gaussian",
                "fwhm_hz": 1000.0,
                "seed": rng.randrange(2**31),
            },
            "noise": {
                "kind": "ornstein_uhlenbeck",
                "sigma_hz": ou_sigma_for_echo(OU_TAU_B),
                "tau_b_s": OU_TAU_B,
            },
            "master_seed": rng.randrange(2**31),
        },
    )


def _tomo_telegraph(rng: random.Random, smoke: bool) -> Workload:
    # finite pulses and a telegraph bath; tomography reads only the final
    # state, so no acquire sits inside the repeated train
    return Workload(
        name="tomo_telegraph",
        subcommand="tomography",
        extra_args=("--n-list", "1,10,100" if smoke else "1,10,100,1000"),
        config={
            "sequence": {"tau1_s": 5e-4, "tau_c_s": 1e-3},
            "pulses": {"mode": "finite", "rabi_hz": 50000.0},
            "ensemble": {
                "size": 64 if smoke else 512,
                "distribution": "gaussian",
                "fwhm_hz": 2000.0,
                "seed": rng.randrange(2**31),
            },
            "noise": {"kind": "telegraph", "amplitude_hz": 2.0, "flip_rate_hz": 20.0},
            "master_seed": rng.randrange(2**31),
        },
    )


def _critical_point(rng: random.Random, smoke: bool) -> Workload:
    # the start is offset from the known zero so the search has to work
    offset = [rng.uniform(-10.0, 10.0) for _ in range(3)]
    return Workload(
        name="critical_point",
        subcommand="critical-point",
        extra_args=(),
        config={
            "spin_system": {"q_tensor_hz": Q_SYNTH, "m_tensor_hz_per_g": M_SYNTH},
            "search": {
                "b_init_g": [b + d for b, d in zip(B_CP_KNOWN, offset)],
                "level_pair": [2, 3],
                "box_halfwidth_g": 20.0,
                "n_starts": 4 if smoke else 128,
                "seed": rng.randrange(2**31),
            },
        },
    )


_FACTORIES = {
    "ou_sweep": _ou_sweep,
    "tomo_telegraph": _tomo_telegraph,
    "critical_point": _critical_point,
}


def make(name: str, seed: int, size: str = "paper") -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    # string seeding hashes with sha512: stable across processes
    rng = random.Random(f"{name}:{seed}")
    return _FACTORIES[name](rng, size == "smoke")
