"""Physics oracles that every benchmark output must pass.

A gate reads the files one CLI run wrote and returns the problems it
found (an empty list means the run passed).  No gate compares bytes with
earlier outputs of the package: a change of random-draw scheme changes
those legitimately.  Byte-for-byte agreement between runs of one commit
is checked separately, by :func:`output_digest`.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

from workloads import B_CP_KNOWN, Workload

PTM_ENTRY_LIMIT = 1.0 + 1e-9
MIN_FIDELITY_N1 = 0.99
CP_DISTANCE_G = 1.0
SWEEP_STATUSES = ("fitted", "no_measurable_decay", "fit_failed")


def output_digest(out_dir: str) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def gate_ou_sweep(w: Workload, out_dir: str) -> list:
    """Documented statuses, one point per spacing, finite T2 non-increasing in tau_c.

    A T2 "fitted" far beyond the record is a known defect of the fit
    status; it is neither required nor rejected here.
    """
    errors = []
    points = _load_json(os.path.join(out_dir, "sweep.json"))["points"]
    taus = [p["tau_c_s"] for p in points]
    want = sorted(w.config["sweep"]["tau_c_s"])
    if taus != want:
        errors.append(f"sweep points at tau_c {taus}, expected {want}")
    for p in points:
        if p["status"] not in SWEEP_STATUSES:
            errors.append(f"tau_c={p['tau_c_s']}: undocumented status {p['status']!r}")
        t2 = p["t2_s"]
        if p["status"] == "fitted" and not (isinstance(t2, (int, float)) and t2 > 0):
            errors.append(f"tau_c={p['tau_c_s']}: fitted point has t2 {t2!r}")
    finite = [(p["tau_c_s"], p["t2_s"]) for p in points if p["status"] == "fitted"]
    for (tau_a, t2_a), (tau_b, t2_b) in zip(finite, finite[1:]):
        if t2_b > t2_a:
            errors.append(f"T2 rises from {t2_a:.6g} s at {tau_a} s to {t2_b:.6g} s at {tau_b} s")
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    if [(float(r[0]), r[3]) for r in rows[1:]] != [(p["tau_c_s"], p["status"]) for p in points]:
        errors.append("sweep.csv disagrees with sweep.json")
    return errors


def gate_tomo_telegraph(w: Workload, out_dir: str) -> list:
    """Trace-preserving PTMs with bounded entries; n=1 near identity; files agree."""
    errors = []
    n_list = [int(x) for x in w.extra_args[w.extra_args.index("--n-list") + 1].split(",")]
    fidelities = {}
    for n in n_list:
        doc = _load_json(os.path.join(out_dir, f"ptm_n{n}.json"))
        ptm = np.asarray(doc["ptm_row_major"], dtype=float).reshape(4, 4)
        if np.abs(ptm[0] - [1.0, 0.0, 0.0, 0.0]).max() > 1e-12:
            errors.append(f"n={n}: PTM first row is {ptm[0].tolist()}, not (1,0,0,0)")
        if not np.abs(ptm).max() <= PTM_ENTRY_LIMIT:
            errors.append(f"n={n}: PTM entry {np.abs(ptm).max():.12g} exceeds 1")
        if abs(doc["fidelity"] - np.trace(ptm) / 4.0) > 1e-12:
            errors.append(f"n={n}: fidelity {doc['fidelity']} is not trace(PTM)/4")
        rows = _read_csv(os.path.join(out_dir, f"ptm_n{n}.csv"))
        if [[float(x) for x in r[1:]] for r in rows[1:]] != ptm.tolist():
            errors.append(f"ptm_n{n}.csv disagrees with ptm_n{n}.json")
        fidelities[n] = (doc["fidelity"], doc["average_gate_fidelity"])
    if 1 in fidelities and not fidelities[1][0] >= MIN_FIDELITY_N1:
        errors.append(f"n=1 fidelity {fidelities[1][0]:.6g} < {MIN_FIDELITY_N1}")
    rows = _read_csv(os.path.join(out_dir, "fidelity_summary.csv"))
    summary = {int(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    if summary != fidelities:
        errors.append("fidelity_summary.csv disagrees with the ptm_n*.json files")
    return errors


def gate_critical_point(w: Workload, out_dir: str) -> list:
    """Converged, residual within tolerance, and at the known zero."""
    errors = []
    doc = _load_json(os.path.join(out_dir, "critical_point.json"))
    search = w.config["search"]
    tolerance = search.get("tolerance_hz_per_g")
    if tolerance is None:  # the package default: 1e-3 x |M|_2
        m = np.asarray(w.config["spin_system"]["m_tensor_hz_per_g"], dtype=float)
        tolerance = 1e-3 * float(np.linalg.norm(m, 2))
    if doc["converged"] is not True:
        errors.append(f"converged is {doc['converged']!r}")
    residual = doc["residual_gradient_norm_hz_per_g"]
    if not residual <= tolerance:
        errors.append(f"residual {residual:.3g} Hz/G above tolerance {tolerance:.3g}")
    distance = float(np.linalg.norm(np.asarray(doc["b_cp_g"]) - B_CP_KNOWN))
    if not distance <= CP_DISTANCE_G:
        errors.append(f"b_cp is {distance:.3g} G from the known zero")
    return errors


GATES = {
    "ou_sweep": gate_ou_sweep,
    "tomo_telegraph": gate_tomo_telegraph,
    "critical_point": gate_critical_point,
}


def check(w: Workload, out_dir: str) -> list:
    """Problems with the outputs of ``w`` in ``out_dir``; unreadable output is one."""
    try:
        return GATES[w.name](w, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
