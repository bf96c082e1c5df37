"""Tests of the benchmark itself: workloads, gates, tracer and runner.

Each gate must pass on real outputs of a smoke-size workload and fail on
a deliberately corrupted copy, one corruption per check, so a gate that
cannot fail is caught.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import gates  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RETIRED_KEYS = ("dt_s", "max_member_steps", "hessian_step")


def _keys(doc):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield k
            yield from _keys(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _keys(v)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_configs_are_a_function_of_the_seed(name):
    assert workloads.make(name, 7).config_text() == workloads.make(name, 7).config_text()
    assert workloads.make(name, 7).config_text() != workloads.make(name, 8).config_text()


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("size", workloads.SIZES)
def test_configs_avoid_retired_knobs(name, size):
    w = workloads.make(name, 3, size)
    assert not set(_keys(w.config)) & set(RETIRED_KEYS)
    assert "--threads" not in w.argv("c.json", "out")


def test_ou_sigma_matches_package_calibration():
    from blochdd import calibrate_ou_sigma

    assert workloads.ou_sigma_for_echo(workloads.OU_TAU_B) == calibrate_ou_sigma(workloads.OU_TAU_B)


# ---------------------------------------------------------------------------
# gates against real and corrupted outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Smoke-size outputs of every workload, written by the CLI in-process."""
    from blochdd import cli

    done = {}
    for name in workloads.NAMES:
        w = workloads.make(name, 5, "smoke")
        base = tmp_path_factory.mktemp(name)
        config = base / "config.json"
        config.write_text(w.config_text())
        out = base / "out"
        assert cli.main(w.argv(str(config), str(out))) == 0
        done[name] = (w, str(out))
    return done


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_outputs_pass_their_gate(smoke_outputs, name):
    w, out = smoke_outputs[name]
    assert gates.check(w, out) == []


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_text(path, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def _sweep_status(out):
    def edit(doc):
        doc["points"][0]["status"] = "converged"
    _edit_json(os.path.join(out, "sweep.json"), edit)


def _sweep_rising(out):
    def edit(doc):
        fitted = [p for p in doc["points"] if p["status"] == "fitted"]
        fitted[-1]["t2_s"] = 10.0 * fitted[0]["t2_s"]
    _edit_json(os.path.join(out, "sweep.json"), edit)


def _sweep_csv(out):
    _edit_text(os.path.join(out, "sweep.csv"), lambda t: t.replace("fitted", "fit_failed", 1))


def _tomo_rewrite(out, n, change):
    """Apply ``change`` to the n-cycle PTM and rewrite every file consistently."""
    path = os.path.join(out, f"ptm_n{n}.json")
    with open(path) as fh:
        doc = json.load(fh)
    ptm = [doc["ptm_row_major"][4 * i:4 * i + 4] for i in range(4)]
    change(ptm)
    doc["ptm_row_major"] = [x for row in ptm for x in row]
    doc["fidelity"] = sum(ptm[i][i] for i in range(4)) / 4.0
    doc["average_gate_fidelity"] = (2.0 * doc["fidelity"] + 1.0) / 3.0
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rows = ["row,I,X,Y,Z"] + [
        lbl + "," + ",".join(f"{x:.17g}" for x in row) for lbl, row in zip("IXYZ", ptm)
    ]
    with open(os.path.join(out, f"ptm_n{n}.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")

    def edit(text):
        lines = text.splitlines()
        for k, line in enumerate(lines):
            if line.split(",")[0] == str(n):
                lines[k] = f"{n},{doc['fidelity']:.17g},{doc['average_gate_fidelity']:.17g}"
        return "\n".join(lines) + "\n"
    _edit_text(os.path.join(out, "fidelity_summary.csv"), edit)


def _tomo_first_row(out):
    _tomo_rewrite(out, 10, lambda ptm: ptm[0].__setitem__(1, 1e-3))


def _tomo_entry(out):
    _tomo_rewrite(out, 10, lambda ptm: ptm[1].__setitem__(2, 1.5))


def _tomo_fidelity(out):
    def change(ptm):
        for i in range(1, 4):
            ptm[i][i] *= 0.9
    _tomo_rewrite(out, 1, change)


def _tomo_summary(out):
    _edit_text(os.path.join(out, "fidelity_summary.csv"), lambda t: t.replace("10,0.", "10,0.1", 1))


def _cp_converged(out):
    _edit_json(os.path.join(out, "critical_point.json"), lambda d: d.update(converged=False))


def _cp_residual(out):
    _edit_json(
        os.path.join(out, "critical_point.json"),
        lambda d: d.update(residual_gradient_norm_hz_per_g=100.0),
    )


def _cp_moved(out):
    def edit(doc):
        doc["b_cp_g"][1] += 2.0
    _edit_json(os.path.join(out, "critical_point.json"), edit)


def _remove_one_file(out):
    os.remove(os.path.join(out, sorted(os.listdir(out))[0]))


CORRUPTIONS = [
    ("ou_sweep", _sweep_status, "undocumented status"),
    ("ou_sweep", _sweep_rising, "T2 rises"),
    ("ou_sweep", _sweep_csv, "sweep.csv disagrees"),
    ("ou_sweep", _remove_one_file, "unreadable output"),
    ("tomo_telegraph", _tomo_first_row, "first row"),
    ("tomo_telegraph", _tomo_entry, "exceeds 1"),
    ("tomo_telegraph", _tomo_fidelity, "n=1 fidelity"),
    ("tomo_telegraph", _tomo_summary, "fidelity_summary.csv disagrees"),
    ("tomo_telegraph", _remove_one_file, "unreadable output"),
    ("critical_point", _cp_converged, "converged is"),
    ("critical_point", _cp_residual, "above tolerance"),
    ("critical_point", _cp_moved, "from the known zero"),
    ("critical_point", _remove_one_file, "unreadable output"),
]


@pytest.mark.parametrize(
    "name,corrupt,expected", CORRUPTIONS, ids=[f"{n}-{c.__name__}" for n, c, _ in CORRUPTIONS]
)
def test_gate_fails_on_corrupted_output(smoke_outputs, tmp_path, name, corrupt, expected):
    w, out = smoke_outputs[name]
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    corrupt(copy)
    problems = gates.check(w, copy)
    assert any(expected in p for p in problems), problems


def test_digest_changes_with_one_byte(smoke_outputs, tmp_path):
    _, out = smoke_outputs["critical_point"]
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    before = gates.output_digest(copy)
    assert gates.output_digest(out) == before
    _edit_text(os.path.join(copy, "critical_point.json"), lambda t: t + " ")
    assert gates.output_digest(copy) != before


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_wraps_aliases_and_restores_them():
    import blochdd.bloch as bloch
    import blochdd.ensemble as ensemble

    original = bloch.rotate
    tracer = tracing.Tracer("t")
    tracer.install()
    try:
        assert ensemble.rotate is bloch.rotate is not original
        bloch.apply_hard_pulse([0.0, 0.0, 1.0], math.pi / 2)
        ensemble.rotate([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 1.0)
        assert tracer.counters["bloch.rotate_calls"] == 2
    finally:
        tracer.uninstall()
    assert ensemble.rotate is bloch.rotate is original
    assert tracer.absent == []


def test_tracer_records_a_missing_target_as_absent():
    tracer = tracing.Tracer("t")
    tracer._patch("ensemble.no_such_function", tracer._span_wrapper)
    tracer._patch("no_such_module.f", tracer._span_wrapper)
    assert tracer.absent == ["ensemble.no_such_function", "no_such_module.f"]
    layers = tracing.layer_metrics(tracer)
    assert layers["ensemble.run_program_calls"] == 0


def test_self_time_excludes_children():
    tracer = tracing.Tracer("t")
    outer = tracer.open("hamiltonian.find_critical_point")
    inner = tracer.open("hamiltonian.field_gradient")
    tracer.close(inner)
    tracer.close(outer)
    layers = tracing.layer_metrics(tracer)
    assert layers["hamiltonian.search_self_s"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )
    assert layers["hamiltonian.gradient_calls"] == 1


# ---------------------------------------------------------------------------
# the runner, end to end
# ---------------------------------------------------------------------------

def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_bench(cwd, *args):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_per_layer_metric_has_a_source():
    import run

    produced = set(tracing.layer_metrics(tracing.Tracer("t"))) | set(run.import_split(""))
    produced |= {"import.total_s", "cli.bytes_written", "trace_overhead_frac"}  # set by run.py
    assert {m["name"] for m in _benchmark_spec()["per_layer"]} == produced


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
def test_run_reports_every_metric(trace, section):
    import run

    units = run.load_spec()[section]
    w = workloads.make("critical_point", 1, "smoke")
    record, _ = run.measure(w, 1, 1.0, trace, units)
    result = json.loads(json.dumps(run.result_line(record)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _benchmark_spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if trace:
        assert result["metrics"]["hamiltonian.gradient_calls"]["value"] > 0
    else:
        assert len(record["setup_s_samples"]) == len(record["repetitions"])


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = _run_bench(str(tmp_path), "--workload", "critical_point", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
