"""Process tomography of simulated pulse programs.

A program body (state preparation stripped) is treated as a channel on
the qubit and characterized by its Pauli transfer matrix: the real 4x4
matrix R with rows/columns ordered (I, X, Y, Z) acting on Pauli
expectation values.  A perfect memory has R = identity.

The matrix is assembled directly from mean Bloch vectors for the four
preparations {+z, -z, +x, +y} (a minimal informationally complete set
for trace-preserving maps): with E(p) the channel output for input p,

    c      = (E(+z) + E(-z)) / 2          (affine shift, first column)
    T . z  = (E(+z) - E(-z)) / 2
    T . x  = E(+x) - c
    T . y  = E(+y) - c

and R has first row (1, 0, 0, 0) by construction (trace preservation).
Bloch-vector measurements are real, so R is real; there is no imaginary
part in this representation.

The four preparations travel through one program run as a ``(4, 3)``
stack of initial states: every ensemble member applies its bath draws
and pulse matrices to all four at once (see
:func:`blochdd.ensemble.run_program`), so each cycle count costs one run,
not four.

Fidelity here is the entanglement (process) fidelity with the identity,
``trace(R) / 4``; the average gate fidelity follows as ``(2 F + 1) / 3``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .bloch import NO_RELAXATION, RelaxationParams
from .ensemble import EnsembleSpec, run_program
from .sequences import BangBangParams, PulseProgram, PulseSpec, HARD_PULSES, build_bangbang_body

__all__ = [
    "PREPARATIONS",
    "ProcessResult",
    "assemble_ptm",
    "process_fidelity",
    "average_gate_fidelity",
    "run_process_tomography",
    "tomography_series",
    "ptm_to_csv",
    "process_result_to_json",
]

PREPARATIONS = {
    "+z": np.array([0.0, 0.0, 1.0]),
    "-z": np.array([0.0, 0.0, -1.0]),
    "+x": np.array([1.0, 0.0, 0.0]),
    "+y": np.array([0.0, 1.0, 0.0]),
}


@dataclass(frozen=True, eq=False)
class ProcessResult:
    """Pauli transfer matrix, fidelity vs identity, and the output vectors."""

    ptm: np.ndarray  # (4, 4), rows/cols (I, X, Y, Z)
    fidelity: float
    outputs: dict  # PREPARATIONS label -> (3,) mean output Bloch vector
    n_cycles: int | None = None


def assemble_ptm(outputs: dict) -> np.ndarray:
    """Pauli transfer matrix from the four preparation outputs."""
    c = (outputs["+z"] + outputs["-z"]) / 2.0
    t_z = (outputs["+z"] - outputs["-z"]) / 2.0
    t_x = outputs["+x"] - c
    t_y = outputs["+y"] - c
    r = np.zeros((4, 4))
    r[0, 0] = 1.0
    r[1:, 0] = c
    r[1:, 1] = t_x
    r[1:, 2] = t_y
    r[1:, 3] = t_z
    return r


def process_fidelity(ptm: np.ndarray) -> float:
    """Entanglement fidelity with the identity, ``trace(ptm) / 4``."""
    ptm = np.asarray(ptm, dtype=float)
    if ptm.shape != (4, 4):
        raise ValueError(f"ptm must be 4x4, got {ptm.shape}")
    return float(np.trace(ptm)) / 4.0


def average_gate_fidelity(entanglement_fidelity: float) -> float:
    """Convert entanglement fidelity to average gate fidelity (2F+1)/3."""
    return (2.0 * entanglement_fidelity + 1.0) / 3.0


def run_process_tomography(
    body: PulseProgram,
    ensemble: EnsembleSpec,
    noise=None,
    relax: RelaxationParams = NO_RELAXATION,
    master_seed: int = 0,
) -> ProcessResult:
    """Characterize a program body as a channel.

    The body must not contain its own preparation pulse; the four
    standard preparations are injected as initial Bloch vectors (the -z
    preparation is an assumed-perfect inversion).  One run carries all
    four as a stacked initial state, so every member's noise realization
    is common mode across preparations.
    """
    res = run_program(
        body,
        ensemble,
        noise=noise,
        relax=relax,
        master_seed=master_seed,
        initial_state=np.array(list(PREPARATIONS.values())),
        record="acquires",
    )
    outputs = dict(zip(PREPARATIONS, res.mean_bloch[-1]))
    ptm = assemble_ptm(outputs)
    return ProcessResult(
        ptm=ptm,
        fidelity=process_fidelity(ptm),
        outputs=outputs,
    )


def tomography_series(
    tau1: float,
    tau_c: float,
    n_list,
    ensemble: EnsembleSpec,
    pulse_spec: PulseSpec = HARD_PULSES,
    noise=None,
    relax: RelaxationParams = NO_RELAXATION,
    master_seed: int = 0,
) -> list[ProcessResult]:
    """Tomography of the decoupling train at each cycle count in ``n_list``.

    The train waits ``tau1``, then runs pi,-pi pairs spaced ``tau_c``
    (:func:`build_bangbang_body`).  ``n_list`` must be strictly ascending.
    Every point reuses the same ensemble spec and master seed so the
    results differ only in the number of cycles.
    """
    n_list = list(n_list)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly ascending, got {n_list}")
    results = []
    for n in n_list:
        params = BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=int(n))
        res = run_process_tomography(
            build_bangbang_body(params, pulse_spec),
            ensemble, noise=noise, relax=relax, master_seed=master_seed,
        )
        results.append(replace(res, n_cycles=int(n)))
    return results


_PAULI_LABELS = ("I", "X", "Y", "Z")


def ptm_to_csv(ptm: np.ndarray) -> str:
    """PTM as CSV (row label + four columns), for bar-plot style exports."""
    lines = ["row," + ",".join(_PAULI_LABELS)]
    for i, lbl in enumerate(_PAULI_LABELS):
        lines.append(lbl + "," + ",".join(f"{ptm[i, j]:.17g}" for j in range(4)))
    return "\n".join(lines) + "\n"


def process_result_to_json(result: ProcessResult, config: dict | None = None) -> str:
    doc = {
        "config": config if config is not None else {},
        "n_cycles": result.n_cycles,
        "ptm_row_major": [float(x) for x in result.ptm.reshape(-1)],
        "fidelity": result.fidelity,
        "average_gate_fidelity": average_gate_fidelity(result.fidelity),
        "preparations": {
            label: {
                "input": [float(x) for x in PREPARATIONS[label]],
                "output": [float(x) for x in result.outputs[label]],
            }
            for label in sorted(PREPARATIONS)
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
