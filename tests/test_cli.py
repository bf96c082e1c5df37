"""Command-line config handling: bad configs exit with code 1, retired keys are ignored."""

import copy
import json
import math
import os
import sys

import pytest

from blochdd import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import workloads  # noqa: E402

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


def run_cli(tmp_path, command, cfg, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return cli.main([command, "--config", str(path), "--out-dir", str(tmp_path / "out"), *extra])


def run_validate(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return cli.main(["validate", "--config", str(path)])


def critical_point_config(**search):
    return {
        "spin_system": {"q_tensor_hz": Q_SYNTH, "m_tensor_hz_per_g": M_SYNTH},
        "search": {"b_init_g": [-256.0, 950.6, -192.5], **search},
    }


def test_validate_rejects_asymmetric_q_tensor(tmp_path):
    q = [row[:] for row in Q_SYNTH]
    q[0][1] += 1.0
    cfg = {"spin_system": {"q_tensor_hz": q, "m_tensor_hz_per_g": M_SYNTH}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["validate", "--config", str(path)]) == 1


@pytest.mark.parametrize("validate_only", [True, False])
@pytest.mark.parametrize(
    "search",
    [{"n_starts": "abc"}, {"n_starts": 0}, {"seed": "abc"},
     {"box_halfwidth_g": "abc"}, {"box_halfwidth_g": -1.0},
     {"tolerance_hz_per_g": "abc"}],
)
def test_critical_point_rejects_bad_search_settings(tmp_path, search, validate_only):
    extra = ("--validate-only",) if validate_only else ()
    assert run_cli(tmp_path, "critical-point", critical_point_config(**search), *extra) == 1


@pytest.mark.parametrize("validate_only", [True, False])
def test_tomography_rejects_non_integer_master_seed(tmp_path, validate_only):
    cfg = {
        "sequence": {"tau1_s": 5e-4, "tau_c_s": 1e-3},
        "ensemble": {"size": 4, "fwhm_hz": 1000.0},
        "master_seed": "abc",
    }
    extra = ("--n-list", "1", "--validate-only") if validate_only else ("--n-list", "1")
    assert run_cli(tmp_path, "tomography", cfg, *extra) == 1


@pytest.mark.parametrize("validate_only", [True, False])
def test_sweep_rejects_non_integer_master_seed(tmp_path, validate_only):
    cfg = {
        "sweep": {"tau_c_s": [1e-3], "total_time_s": 0.01},
        "ensemble": {"size": 4, "fwhm_hz": 1000.0},
        "noise": {"kind": "ornstein_uhlenbeck", "sigma_hz": 5.0, "tau_b_s": 5e-3},
        "master_seed": "abc",
    }
    extra = ("--validate-only",) if validate_only else ()
    assert run_cli(tmp_path, "sweep", cfg, *extra) == 1


def test_simulate_ignores_retired_dt_key(tmp_path):
    # dt_s no longer exists: even one far coarser than tau_b_s / 10 is
    # ignored like any unknown key, and the run is unchanged
    cfg = {
        "sequence": {"template": "bangbang", "tau1_s": 5e-4, "tau_c_s": 1e-3,
                     "n_cycles": 3, "acquire_every": 1},
        "ensemble": {"size": 16, "fwhm_hz": 500.0, "seed": 2},
        "noise": {"kind": "ornstein_uhlenbeck", "sigma_hz": 20.0, "tau_b_s": 5e-3},
        "master_seed": 3,
    }
    plain = tmp_path / "plain"
    plain.mkdir()
    assert run_cli(plain, "simulate", cfg) == 0
    cfg["noise"]["dt_s"] = 1e-3
    with_dt = tmp_path / "with_dt"
    with_dt.mkdir()
    assert run_cli(with_dt, "simulate", cfg) == 0
    trajectory = "out/trajectory.csv"
    assert (with_dt / trajectory).read_bytes() == (plain / trajectory).read_bytes()


SIMULATE = {
    "sequence": {"template": "bangbang", "tau1_s": 5e-4, "tau_c_s": 1e-3, "n_cycles": 2},
    "ensemble": {"size": 4, "fwhm_hz": 1000.0},
    "noise": {"kind": "ornstein_uhlenbeck", "sigma_hz": 5.0, "tau_b_s": 5e-3},
}
TOMOGRAPHY = {
    "sequence": {"tau1_s": 5e-4, "tau_c_s": 1e-3},
    "ensemble": {"size": 4, "fwhm_hz": 1000.0},
    "noise": {"kind": "telegraph", "amplitude_hz": 2.0, "flip_rate_hz": 20.0},
}
SWEEP = {
    "sweep": {"tau_c_s": [1e-3], "total_time_s": 0.01},
    "ensemble": {"size": 4, "fwhm_hz": 1000.0},
    "noise": {"kind": "ornstein_uhlenbeck", "sigma_hz": 5.0, "tau_b_s": 5e-3},
}
BASES = {
    "simulate": SIMULATE,
    "tomography": TOMOGRAPHY,
    "sweep": SWEEP,
    "critical-point": critical_point_config(),
}


def with_value(command, path, value):
    """The base config of ``command`` with ``path`` (keys joined by '.') set."""
    cfg = copy.deepcopy(BASES[command])
    if path is None:
        return value
    *parents, key = path.split(".")
    doc = cfg
    for name in parents:
        doc = doc[name]
    doc[key] = value
    return cfg


BAD_CONFIGS = [
    ("critical-point", "search.level_pair", [2, 2]),
    ("critical-point", "search.b_init_g", ["a", 0, 0]),
    ("sweep", "sweep.tau1_s", "x"),
    ("sweep", "sweep.tau1_s", -1),
    ("sweep", "sweep.tau_c_s", [1e-3, 1e-3]),
    ("simulate", "ensemble.seed", "x"),
    ("tomography", "ensemble.seed", -1),
    ("sweep", "ensemble.size", 4.5),
    ("tomography", "master_seed", -1),
    ("sweep", "master_seed", -1),
    ("simulate", "initial_state", ["a", 0, 1]),
    ("simulate", "initial_state", [5, 0, 0]),
    ("simulate", "sequence.initial_area_rad", [1]),
    ("simulate", "sequence", [1]),
    ("tomography", "sequence", [1]),
    ("sweep", "noise", [1]),
    ("tomography", "ensemble", 5),
    ("simulate", None, [1, 2]),
    ("critical-point", None, [1, 2]),
    # non-finite domain values: nan results, or an endless telegraph run
    ("simulate", "ensemble.fwhm_hz", math.inf),
    ("simulate", "ensemble", {"size": 2, "distribution": "explicit",
                              "detunings_hz": [math.nan, 1.0]}),
    ("simulate", "noise.sigma_hz", math.inf),
    ("simulate", "noise.tau_b_s", math.inf),
    ("tomography", "noise.amplitude_hz", math.inf),
    ("tomography", "noise.flip_rate_hz", math.inf),
    # tau1 > tau_c: the train has no refocusing instant
    ("tomography", "sequence.tau1_s", 1.5e-3),
    ("sweep", "sweep", {"tau_c_s": [1e-3, 4e-3], "total_time_s": 0.04, "tau1_s": 2e-3}),
    ("simulate", "sequence.tau1_s", 1.5e-3),
    # DSL statements that the event types reject
    ("simulate", "sequence", {"dsl": "repeat 2 { repeat 2 { acquire x } }"}),
    ("simulate", "sequence", {"dsl": "wait 1e400s"}),
    ("simulate", "sequence", {"dsl": "pulse area=1e400"}),
    ("simulate", "sequence", {"dsl": "pulse rabi=1e400Hz duration=1us"}),
    ("simulate", "sequence", {"dsl": "pulse rabi=1kHz duration=1e400s"}),
    # unbounded search work
    ("critical-point", "search.n_starts", 10_001),
]


@pytest.mark.parametrize("mode", ["validate", "validate-only", "run"])
@pytest.mark.parametrize(
    "command,path,value", BAD_CONFIGS,
    ids=[f"{c}:{p}={v!r}" for c, p, v in BAD_CONFIGS],
)
def test_bad_config_exits_1_in_every_mode(tmp_path, capsys, command, path, value, mode):
    cfg = with_value(command, path, value)
    if mode == "validate":
        code = run_validate(tmp_path, cfg)
    else:
        extra = ("--n-list", "1") if command == "tomography" else ()
        if mode == "validate-only":
            extra += ("--validate-only",)
        code = run_cli(tmp_path, command, cfg, *extra)
    assert code == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: invalid config")
    assert "config ok" not in out


def test_bath_cutoff_warning(tmp_path, capsys):
    # omega_c*tau_c = tau_c/tau_b: 2 is too slow a train for the bath;
    # 0.2 and the boundary 1 are not
    slow = with_value("simulate", "noise.tau_b_s", 5e-4)
    assert run_cli(tmp_path, "simulate", slow, "--validate-only") == 0
    assert "warning: omega_c*tau_c = 2 > 1" in capsys.readouterr().err
    for tau_b in (5e-3, 1e-3):
        cfg = with_value("simulate", "noise.tau_b_s", tau_b)
        assert run_cli(tmp_path, "simulate", cfg, "--validate-only") == 0
        assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(BASES))
def test_base_configs_validate_and_run(tmp_path, capsys, command):
    extra = ("--n-list", "1") if command == "tomography" else ()
    assert run_validate(tmp_path, BASES[command]) == 0
    assert run_cli(tmp_path, command, BASES[command], "--validate-only", *extra) == 0
    assert run_cli(tmp_path, command, BASES[command], *extra) == 0


@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("name", workloads.NAMES)
def test_benchmark_configs_validate(tmp_path, name, size):
    w = workloads.make(name, 21, size)
    path = tmp_path / "config.json"
    path.write_text(w.config_text())
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert cli.main([*w.argv(str(path), str(tmp_path / "out")), "--validate-only"]) == 0


def test_tomography_rejects_repeated_cycle_counts(tmp_path, capsys):
    assert run_cli(tmp_path, "tomography", TOMOGRAPHY, "--n-list", "1,1,10") == 1
    assert "strictly ascending" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_critical_point_takes_no_seed_flag(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(tmp_path, "critical-point", critical_point_config(), "--seed", "1")


@pytest.mark.parametrize("mode", ["validate", "validate-only", "run"])
def test_sweep_rejects_spacings_with_too_few_echoes_before_running(tmp_path, capsys, mode):
    # 0.2 s / (2 x 0.05 s) = 2 echoes: too few for the fit, though the
    # first spacing alone would run
    cfg = with_value("sweep", "sweep", {"tau_c_s": [5e-4, 0.05], "total_time_s": 0.2})
    if mode == "validate":
        code = run_validate(tmp_path, cfg)
    else:
        code = run_cli(tmp_path, "sweep", cfg, *(("--validate-only",) if mode != "run" else ()))
    assert code == 1
    assert "gives 2 echoes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_rejects_non_finite_csv_data(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    csv.write_text("time_s,amplitude\n0,1\n0.1,0.9\n0.2,nan\n0.3,0.7\n0.4,0.6\n")
    code = cli.main(["fit", "--csv", str(csv), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_too_short_a_curve_is_an_input_error(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    csv.write_text("time_s,amplitude\n0,1\n0.1,0.9\n0.2,0.8\n")
    code = cli.main(["fit", "--csv", str(csv), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "needs >= 4 points" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit.json").exists()


@pytest.mark.parametrize("text,message", [
    # a header may precede the data; a bad row inside it is an error, not skipped
    ("time_s,amplitude\n0,1\n0.1,0.9\n0.3,oops\n0.4,0.6\n0.5,0.5\n", "line 4 is not numeric"),
    ("0\n0.1\n0.2\n0.3\n", "at least time_s and amplitude"),
    ("time_s,amplitude,sigma\n0,1,0.1,7\n0.1,0.9,0.1,7\n0.2,0.8,0.1,7\n0.3,0.7,0.1,7\n",
     "line 2 has 4 columns"),
    ("0,1\n0.1,0.9\n0.2,0.8,0.1\n0.3,0.7\n", "line 3 has 3 columns, the first numeric row 2"),
], ids=["bad-row", "one-column", "four-column", "ragged"])
def test_fit_rejects_malformed_csv_rows(tmp_path, capsys, text, message):
    csv = tmp_path / "curve.csv"
    csv.write_text(text)
    code = cli.main(["fit", "--csv", str(csv), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "fit.json").exists()
