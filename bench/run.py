"""Benchmark of the ``blochdd`` CLI on fixed workloads (see workloads.py).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src/`` directory, with no install step.

Load model: a closed loop with one client.  Each repetition is a fresh
``blochdd`` process started after the previous one exited, with the
default single worker thread and the BLAS/OpenMP pools pinned to one
thread.

A run spends ``--seconds`` on repetitions; with ``--trace 0`` each is
preceded by a ``--validate-only`` process that times set-up.  The last
repetition may end up to half a repetition late.  Every repetition's
outputs must pass the workload's physics gate (``gates.py``) and be
byte-identical to every other repetition of the same config, source
tree and toolchain -- in this run and in earlier runs in the same
checkout.  A process that exits non-zero, fails its
gate or differs counts as failed; ``failed / attempted`` over all the
processes of a run is its error rate.

``--trace 0`` reports the end-to-end metrics:

* ``run_s``: median wall time inside the subcommand (config load to the
  last output written), measured in the process after import;
* ``setup_s``: median time from process start to the package imported
  and the same config accepted by ``--validate-only``;
* ``peak_rss_mb``: median peak resident memory of the run process.

``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics of ``tracer.py`` (medians over the traced ones),
import-time splits from ``python -X importtime`` and the tracing
overhead; ``cli.self_s`` is the time inside the CLI that no span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
with provenance and every sample is written under ``bench/.runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import gates
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(BENCH_DIR, ".runs")
DIGESTS = os.path.join(RUNS, "digests.json")

BLAS_THREADS = "1"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150.0

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _src_files() -> list:
    found = []
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        found.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".py"))
    return found


def source_identity() -> tuple[str, int]:
    """(sha256 over src/*.py paths and bytes, total line count)."""
    h = hashlib.sha256()
    lines = 0
    for path in _src_files():
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(path, ROOT).encode() + b"\0" + data + b"\0")
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def time_setup(w: workloads.Workload, config_path: str, out_dir: str, env: dict) -> tuple[float, bool]:
    """Wall time of a fresh ``blochdd ... --validate-only`` process."""
    cmd = [sys.executable, "-m", "blochdd.cli", *w.argv(config_path, out_dir), "--validate-only"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode == 0 and "config ok" in proc.stdout


def run_rep(w, config_path: str, rep_dir: str, run_id: str, env: dict, traced: bool) -> dict:
    """One CLI process; returns its report plus gate findings and digest."""
    out_dir = os.path.join(rep_dir, "out")
    os.makedirs(out_dir)
    report_path = os.path.join(rep_dir, "report.json")
    spans_path = os.path.join(rep_dir, "spans.json") if traced else "-"
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(BENCH_DIR, "child.py"), report_path, spans_path, run_id, "--",
            *w.argv(config_path, out_dir)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"], "traced": traced}
    wall = time.perf_counter() - start
    rep = {"traced": traced, "wall_s": wall}
    if proc.returncode != 0 or not os.path.exists(report_path):
        rep.update(ok=False, problems=[f"runner exited {proc.returncode}: {proc.stderr[-800:]}"])
        return rep
    with open(report_path) as fh:
        rep.update(json.load(fh))
    problems = []
    if rep["rc"] != 0:
        problems.append(f"blochdd exited {rep['rc']}: {proc.stderr[-800:]}")
    else:
        problems += gates.check(w, out_dir)
        rep["digest"] = gates.output_digest(out_dir)
        rep["bytes_written"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
        )
    if traced:
        rep["layers"].update(import_split(proc.stderr))
    rep.update(ok=not problems, problems=problems)
    return rep


def import_split(stderr: str) -> dict:
    """Self import time of numpy, scipy and blochdd modules from -X importtime."""
    totals = {"numpy": 0.0, "scipy": 0.0, "blochdd": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in totals:
            totals[top] += int(fields[0]) * 1e-6
    return {f"import.{k}_s": v for k, v in totals.items()}


# ---------------------------------------------------------------------------
# digests shared by runs of one source tree
# ---------------------------------------------------------------------------

def load_digests() -> dict:
    try:
        with open(DIGESTS) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def save_digests(digests: dict) -> None:
    tmp = DIGESTS + f".{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def median(values):
    # 0 only when every repetition failed, which the result marks incorrect
    return statistics.median(values) if values else 0.0


def load_spec() -> dict:
    """Metric names and units, from the BENCHMARK.json beside ``bench/``."""
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def measure(w, seed: int, seconds: float, trace: bool, units: dict) -> tuple:
    src_sha, src_lines = source_identity()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_dir = os.path.join(RUNS, f"{w.name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}")
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.json")
    with open(config_path, "w") as fh:
        fh.write(w.config_text())
    env = child_env()
    deadline = time.perf_counter() + seconds

    setup_s, setup_failed = [], 0
    validate_dir = os.path.join(run_dir, "validate")

    if not trace:
        # the first process may compile bytecode; users pay that once
        time_setup(w, config_path, validate_dir, env)

    # outputs must repeat exactly for one config, source tree and toolchain
    config_sha = hashlib.sha256(w.config_text().encode()).hexdigest()
    key = "|".join((w.name, " ".join(w.extra_args), f"config{config_sha}", f"src{src_sha}",
                    sys.version.split()[0], f"numpy{np.__version__}", f"scipy{scipy.__version__}"))
    digests = load_digests()
    reference = digests.get(key)
    reps, round_costs = [], []
    while True:
        k = len(reps)
        round_start = time.perf_counter()
        if not trace:  # set-up samples are spread over the run, as repetitions are
            elapsed, ok = time_setup(w, config_path, validate_dir, env)
            setup_s.append(elapsed)
            setup_failed += not ok
        traced = trace and k % 2 == 1
        rep_dir = os.path.join(run_dir, f"rep{k:03d}")
        rep = run_rep(w, config_path, rep_dir, f"{os.path.basename(run_dir)}/rep{k}", env, traced)
        digest = rep.get("digest")
        if digest is not None:
            if reference is None:
                reference = digest
            elif digest != reference:
                rep["ok"] = False
                rep["problems"].append("outputs differ byte-for-byte from an earlier run")
        reps.append(rep)
        # keep the first traced repetition's spans; drop bulky outputs
        shutil.rmtree(os.path.join(rep_dir, "out"), ignore_errors=True)
        if traced and sum(r["traced"] for r in reps) > 1:
            spans = os.path.join(rep_dir, "spans.json")
            if os.path.exists(spans):
                os.remove(spans)
        round_costs.append(time.perf_counter() - round_start)
        # start another repetition if it is expected to end less than half
        # a repetition past the deadline: runs last --seconds on average
        enough = len(reps) >= (4 if trace else MIN_REPS)
        if enough and time.perf_counter() + median(round_costs) / 2 > deadline:
            break
    shutil.rmtree(validate_dir, ignore_errors=True)
    if reference is not None and all(r["ok"] for r in reps):
        digests = load_digests()
        digests[key] = reference
        save_digests(digests)

    plain = [r for r in reps if not r["traced"] and "run_s" in r]
    traced_reps = [r for r in reps if r["traced"] and "layers" in r]
    # every process counts: the validate-only ones and the measured ones
    attempted = len(reps) + len(setup_s)
    failed = sum(not r["ok"] for r in reps) + setup_failed
    if trace:
        metrics = {}
        for name in units:
            values = [r["layers"][name] for r in traced_reps if name in r["layers"]]
            metrics[name] = median(values) if values else 0.0
        metrics["import.total_s"] = median([r["import_s"] for r in plain])
        metrics["cli.bytes_written"] = median([r.get("bytes_written", 0) for r in reps])
        untraced_s = median([r["run_s"] for r in plain])
        metrics["trace_overhead_frac"] = (
            median([r["run_s"] for r in traced_reps]) / untraced_s - 1.0 if untraced_s else 0.0
        )
    else:
        metrics = {
            "run_s": median([r["run_s"] for r in plain]),
            "setup_s": median(setup_s),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        }

    versions = next((r["versions"] for r in reps if "versions" in r), {})
    record = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {
            **versions,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "blas_threads": int(BLAS_THREADS),
            "git_commit": git_commit(),
            "src_sha256": src_sha,
            "src_lines": src_lines,
            "blochdd_path": next((r["blochdd_path"] for r in reps if "blochdd_path" in r), None),
            "load_model": "closed loop, 1 client, 1 CLI process at a time, --threads 1",
        },
        "setup_s_samples": setup_s,
        "setup_failed": setup_failed,
        "repetitions": reps,
        "absent_targets": sorted({a for r in traced_reps for a in r.get("absent", [])}),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record, run_dir


def result_line(record: dict) -> dict:
    """The JSON object the benchmark prints last."""
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "blochdd", "cli.py")):
        print(f"error: no blochdd sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    units = load_spec()["per_layer" if args.trace else "end_to_end"]
    w = workloads.make(args.workload, args.seed)
    record, run_dir = measure(w, args.seed, args.seconds, bool(args.trace), units)

    for rep in record["repetitions"]:
        for problem in rep["problems"]:
            print(f"FAILED repetition: {problem}", file=sys.stderr)
    prov = record["provenance"]
    n_plain = sum(not r["traced"] for r in record["repetitions"])
    n_traced = len(record["repetitions"]) - n_plain
    print(f"workload {w.name} seed {args.seed}: {record['attempted']} processes "
          f"({len(record['setup_s_samples'])} validate-only, {n_plain} untraced, {n_traced} traced), "
          f"error_rate {record['error_rate']:.3g}; metrics are medians over those samples")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if record["absent_targets"]:
        print("absent trace targets: " + ", ".join(record["absent_targets"]))
    print(f"record: {os.path.relpath(run_dir, ROOT)}/record.json")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
