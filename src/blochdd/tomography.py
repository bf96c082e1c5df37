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
:func:`blochdd.ensemble.run_program`).  A series of cycle counts is one
run too: the train of the largest count, read by an acquire at the
refocusing instant of each count, and one matrix is assembled from each
acquire row, as from the end row of a single body.

Fidelity here is the entanglement (process) fidelity with the identity,
``trace(R) / 4``; the average gate fidelity follows as ``(2 F + 1) / 3``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .bloch import NO_RELAXATION, RelaxationParams
from .ensemble import EnsembleSpec, run_program
from .sequences import PulseProgram

__all__ = [
    "PREPARATIONS",
    "ProcessResult",
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


def average_gate_fidelity(entanglement_fidelity: float) -> float:
    """Convert entanglement fidelity to average gate fidelity (2F+1)/3."""
    return (2.0 * entanglement_fidelity + 1.0) / 3.0


def _process(outputs, n_cycles: int | None = None) -> ProcessResult:
    """The result of one ``(4, 3)`` row of preparation outputs: the PTM of
    the module docstring, and its fidelity ``trace(R) / 4``."""
    outputs = dict(zip(PREPARATIONS, outputs))
    c = (outputs["+z"] + outputs["-z"]) / 2.0
    ptm = np.zeros((4, 4))
    ptm[0, 0] = 1.0
    ptm[1:, 0] = c
    ptm[1:, 1] = outputs["+x"] - c
    ptm[1:, 2] = outputs["+y"] - c
    ptm[1:, 3] = (outputs["+z"] - outputs["-z"]) / 2.0
    return ProcessResult(ptm=ptm, fidelity=float(np.trace(ptm)) / 4.0, outputs=outputs, n_cycles=n_cycles)


def _run(program: PulseProgram, ensemble: EnsembleSpec, noise, relax: RelaxationParams,
         master_seed: int):
    """The table of one run of ``program`` with the four preparations stacked."""
    return run_program(program, ensemble, noise=noise, relax=relax, master_seed=master_seed,
                       initial_state=np.array(list(PREPARATIONS.values())))


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
    is common mode across preparations.  The channel ends with the body:
    the result is assembled from the table's end row.
    """
    return _process(_run(body, ensemble, noise, relax, master_seed).mean_bloch[-1])


def tomography_series(
    program: PulseProgram,
    ensemble: EnsembleSpec,
    noise=None,
    relax: RelaxationParams = NO_RELAXATION,
    master_seed: int = 0,
) -> list[ProcessResult]:
    """Tomography at each acquire of ``program``, from one run.

    One run carries the four preparations through the whole program, and
    each acquire row is assembled as :func:`run_process_tomography`
    assembles its end row, so the points share each member's noise
    realization.  Returns one result per acquire, in program order.  An
    acquire labelled ``n<N>`` marks the channel of N cycles from t = 0 to
    it, and its result carries ``n_cycles`` N; any other label gives
    ``n_cycles`` None.
    """
    res = _run(program, ensemble, noise, relax, master_seed)
    return [_process(outputs, int(label[1:]) if re.fullmatch(r"n\d+", label) else None)
            for label, outputs in zip(res.sample_labels, res.mean_bloch) if label is not None]


_PAULI_LABELS = ("I", "X", "Y", "Z")


def ptm_to_csv(ptm: np.ndarray) -> str:
    """PTM as CSV (row label + four columns), for bar-plot style exports."""
    lines = ["row," + ",".join(_PAULI_LABELS)]
    for i, lbl in enumerate(_PAULI_LABELS):
        lines.append(lbl + "," + ",".join(f"{ptm[i, j]:.17g}" for j in range(4)))
    return "\n".join(lines) + "\n"


def process_result_to_json(result: ProcessResult, config: dict) -> str:
    doc = {
        "config": config,
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
