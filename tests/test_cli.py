"""Command-line config handling: bad configs exit with code 1, retired keys are ignored."""

import copy
import json
import math
import os
import sys

import pytest

from blochdd import analysis, cli, ensemble, hamiltonian, sequences

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
    # a JSON boolean or string where a number belongs
    ("simulate", "ensemble.fwhm_hz", True),
    ("simulate", "ensemble.fwhm_hz", "500"),
    ("simulate", "ensemble", {"size": 4, "distribution": "explicit", "detunings_hz": "1234"}),
    ("simulate", "noise.sigma_hz", True),
    ("sweep", "noise.tau_b_s", True),
    ("tomography", "noise.amplitude_hz", "2"),
    ("simulate", "relaxation", {"t1_s": True}),
    ("tomography", "relaxation", {"t2_s": True}),
    ("sweep", "relaxation", {"z_equilibrium": True}),
    # tau1 > tau_c: the train has no refocusing instant
    ("tomography", "sequence.tau1_s", 1.5e-3),
    ("sweep", "sweep", {"tau_c_s": [1e-3, 4e-3], "total_time_s": 0.04, "tau1_s": 2e-3}),
    ("simulate", "sequence.tau1_s", 1.5e-3),
    # DSL statements that the event types reject
    ("simulate", "sequence", {"dsl": "wait 1e400s"}),
    ("simulate", "sequence", {"dsl": "pulse area=1e400"}),
    ("simulate", "sequence", {"dsl": "pulse rabi=1e400Hz duration=1us"}),
    ("simulate", "sequence", {"dsl": "pulse rabi=1kHz duration=1e400s"}),
    # unbounded search work
    ("critical-point", "search.n_starts", 10_001),
    # run work beyond the 2e9 member-step budget
    ("simulate", "sequence", {"dsl": "repeat 1000000000000000000000000000000 { wait 1us }"}),
    ("sweep", "sweep", {"tau_c_s": [1e-6], "total_time_s": 1000}),
    # member-states beyond the memory limit: each is within the step budget
    # at one unit per event, and fills >= 24 GB with its states alone
    ("simulate", None, dict(SIMULATE, sequence={"dsl": ""},
                            ensemble={"size": 10**12, "fwhm_hz": 1000.0})),
    ("simulate", None, dict(SIMULATE, sequence={"dsl": "acquire a"},
                            ensemble={"size": 10**9, "fwhm_hz": 1000.0})),
    ("simulate", None, dict(SIMULATE, sequence={"dsl": "wait 1ms"},
                            ensemble={"size": 10**9, "fwhm_hz": 1000.0})),
]


def no_members(spec):
    raise AssertionError("a bad config must be rejected before any member is drawn")


@pytest.mark.parametrize("mode", ["validate", "validate-only", "run"])
@pytest.mark.parametrize(
    "command,path,value", BAD_CONFIGS,
    ids=[f"{c}:{p}={v!r}" for c, p, v in BAD_CONFIGS],
)
def test_bad_config_exits_1_in_every_mode(tmp_path, capsys, monkeypatch, command, path, value, mode):
    monkeypatch.setattr(ensemble, "sample_detunings", no_members)
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


@pytest.mark.parametrize("noise", [{"kind": "ornstein_uhlenbeck", "sigma_hz": -1, "tau_b_s": 0.005}, [1]])
def test_sweep_lists_only_the_noise_problem_of_an_invalid_noise_section(noise):
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_sweep_config(with_value("sweep", "noise", noise))
    assert len(str(exc.value).splitlines()) == 2  # the heading and one problem
    assert "noise" in str(exc.value).splitlines()[1]
    assert "stochastic" not in str(exc.value)


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
    for n_list in ("1,1,10", "10,1", "-1,5"):
        for extra in ((), ("--validate-only",)):
            assert run_cli(tmp_path, "tomography", TOMOGRAPHY, f"--n-list={n_list}", *extra) == 1
            assert "non-negative and strictly ascending" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
    # after a space, argparse reads -1,5 as a flag: a usage error, which exits 1 too
    for extra in ((), ("--validate-only",)):
        with pytest.raises(SystemExit) as exc:
            run_cli(tmp_path, "tomography", TOMOGRAPHY, "--n-list", "-1,5", *extra)
        assert exc.value.code == 1
        assert "expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("validate_only", [True, False])
def test_tomography_budget_is_checked_at_the_largest_cycle_count(tmp_path, capsys, validate_only):
    # 4 members x 4 states x 2e8 cycles is far beyond the budget; 1000 cycles are not
    extra = ("--validate-only",) if validate_only else ()
    assert run_cli(tmp_path, "tomography", TOMOGRAPHY, "--n-list", "1,200000000", *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and "exceeds the budget" in err
    assert not (tmp_path / "out").exists()
    assert run_cli(tmp_path, "tomography", TOMOGRAPHY, "--n-list", "1,1000", *extra) == 0


@pytest.mark.parametrize("mode", ["validate", "validate-only", "run"])
def test_tomography_budget_counts_the_one_program_of_the_largest_count(tmp_path, capsys, monkeypatch, mode):
    # 4 members x 4 states: the series of 1000 cycles holds ~4,000 events,
    # past a budget of 40,000; validate reads the default --n-list, up to 1000
    monkeypatch.setattr(ensemble, "_MAX_MEMBER_STEPS", 4e4)
    if mode == "validate":
        code = run_validate(tmp_path, TOMOGRAPHY)
    else:
        code = run_cli(tmp_path, "tomography", TOMOGRAPHY, "--n-list", "1,1000",
                       *(("--validate-only",) if mode != "run" else ()))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid config") and "exceeds the budget" in err
    assert not (tmp_path / "out").exists()
    if mode != "validate":
        # one run of 600 cycles reads every count: 1,800 cycles summed are not charged
        extra = ("--validate-only",) if mode != "run" else ()
        assert run_cli(tmp_path, "tomography", TOMOGRAPHY, "--n-list", "300,400,500,600", *extra) == 0


@pytest.mark.parametrize("mode", ["validate", "validate-only", "run"])
def test_tomography_of_zero_cycles_is_charged_per_state(tmp_path, capsys, monkeypatch, mode):
    # --n-list 0 runs an empty body, yet 10^12 members x 4 states fill memory
    monkeypatch.setattr(ensemble, "sample_detunings", no_members)
    cfg = with_value("tomography", "ensemble.size", 10**12)
    if mode == "validate":
        code = run_validate(tmp_path, cfg)
    else:
        code = run_cli(tmp_path, "tomography", cfg, "--n-list", "0",
                       *(("--validate-only",) if mode != "run" else ()))
    assert code == 1
    assert "member-states" in capsys.readouterr().err


def unreadable(tmp_path, kind) -> str:
    """A file that cannot be read as text: non-UTF-8 bytes, or a directory."""
    path = tmp_path / "input"
    if kind == "non-utf8":
        path.write_bytes(b'{"master_seed": "\xff"}')
    else:
        path.mkdir()
    return str(path)


CONFIG_MODES = [("validate", None)] + [(mode, command) for command in sorted(BASES)
                                       for mode in ("validate-only", "run")]


@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
@pytest.mark.parametrize("mode,command", CONFIG_MODES)
def test_unreadable_config_exits_1(tmp_path, capsys, kind, mode, command):
    path = unreadable(tmp_path, kind)
    if mode == "validate":
        argv = ["validate", "--config", path]
    else:
        argv = [command, "--config", path, "--out-dir", str(tmp_path / "out"),
                *(("--validate-only",) if mode == "validate-only" else ())]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1
    assert out == ""


def test_fit_csv_that_is_a_directory_exits_1(tmp_path, capsys):
    path = unreadable(tmp_path, "directory")
    assert cli.main(["fit", "--csv", path, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: could not read {path}: ") and err.count("\n") == 1


def not_run(*args, **kw):
    raise AssertionError("--out-dir must be checked before the run starts")


@pytest.mark.parametrize("where", ["file", "under-a-file"])
@pytest.mark.parametrize("mode,command", [(mode, command) for mode, command in CONFIG_MODES
                                          if mode != "validate"] + [("run", "fit")])
def test_out_dir_that_cannot_be_a_directory_exits_1(tmp_path, capsys, monkeypatch, where, mode, command):
    for module, name in ((ensemble, "sample_detunings"), (hamiltonian, "find_critical_point"),
                         (analysis, "fit_decay")):
        monkeypatch.setattr(module, name, not_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out_dir = str(blocker if where == "file" else blocker / "out")
    if command == "fit":
        csv = tmp_path / "curve.csv"
        csv.write_text("time_s,amplitude\n0,1\n0.1,0.9\n0.2,0.8\n0.3,0.7\n")
        argv = ["fit", "--csv", str(csv), "--out-dir", out_dir]
    else:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(BASES[command]))
        argv = [command, "--config", str(path), "--out-dir", out_dir,
                *(("--validate-only",) if mode == "validate-only" else ()),
                *(("--n-list", "1") if command == "tomography" else ())]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == f"error: --out-dir {out_dir}: {blocker} is not a directory\n"
    assert "config ok" not in out
    assert blocker.read_text() == "keep"


def test_critical_point_takes_no_seed_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, "critical-point", critical_point_config(), "--seed", "1")
    assert exc.value.code == 1


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


def test_sweep_parse_builds_one_train_per_spacing():
    # sorted by tau_c; n_cycles = floor(T / (2 tau_c)); tau1 defaults to min(tau_c / 2, 0.25 ms)
    cfg = with_value("sweep", "sweep", {"tau_c_s": [1e-3, 2e-4], "total_time_s": 0.01})
    programs = cli.parse_sweep_config(cfg)["programs"]
    assert list(programs) == [2e-4, 1e-3]
    for tau_c, tau1, n_cycles in ((2e-4, 1e-4, 25), (1e-3, 2.5e-4, 5)):
        params = sequences.BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=n_cycles)
        assert programs[tau_c] == sequences.build_bangbang(params, acquire_every=1)


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


# an echo decay with a +-1% ripple, and an inversion recovery with a sigma column
DECAY_CSV = "time_s,amplitude\n" + "".join(
    f"{0.05 * k:g},{math.exp(-0.05 * k / 0.3) * (1 + 0.01 * (-1) ** k):.6f}\n" for k in range(12))
RECOVERY_CSV = "time_s,amplitude,sigma\n" + "".join(
    f"{0.1 * k:g},{0.2 - 1.2 * math.exp(-0.1 * k / 0.5) + 0.005 * (-1) ** k:.6f},0.01\n" for k in range(12))


@pytest.mark.parametrize("model,curve", [("single_exp", DECAY_CSV), ("stretched", DECAY_CSV),
                                         ("inv_recovery", RECOVERY_CSV)])
def test_fit_json_is_the_same_wherever_the_curve_lies(tmp_path, model, curve):
    # the same curve in two directories, given by absolute path: fit.json
    # records only the file's name
    written = []
    for where in ("one", "two"):
        csv = tmp_path / where / "curve.csv"
        csv.parent.mkdir()
        csv.write_text(curve)
        out = tmp_path / where / "out"
        assert cli.main(["fit", "--csv", str(csv.resolve()), "--model", model, "--out-dir", str(out)]) == 0
        written.append((out / "fit.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["config"] == {"csv": "curve.csv"}


def test_critical_point_on_zero_tensors_exits_2(tmp_path, capsys):
    zero = [[0.0] * 3] * 3
    cfg = dict(critical_point_config(n_starts=4), spin_system={"q_tensor_hz": zero, "m_tensor_hz_per_g": zero})
    assert run_cli(tmp_path, "critical-point", cfg) == 2
    assert "degenerate everywhere the search looked" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_of_a_flat_recovery_exits_2(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    csv.write_text("time_s,amplitude\n0,0.5\n0.1,0.4\n0.2,0.6\n0.3,0.45\n0.4,0.5\n")
    code = cli.main(["fit", "--csv", str(csv), "--model", "inv_recovery", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "flat data" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "tomography"])
def test_seed_flag_is_the_master_seed_key(tmp_path, command):
    # --seed 5 writes the same bytes as the config's "master_seed": 5
    extra = ("--n-list", "0,1,10") if command == "tomography" else ()
    flag, key = tmp_path / "flag", tmp_path / "key"
    flag.mkdir()
    key.mkdir()
    assert run_cli(flag, command, dict(BASES[command], master_seed=9), "--seed", "5", *extra) == 0
    assert run_cli(key, command, dict(BASES[command], master_seed=5), *extra) == 0
    names = sorted(os.listdir(key / "out"))
    assert names and sorted(os.listdir(flag / "out")) == names
    for name in names:
        assert (flag / "out" / name).read_bytes() == (key / "out" / name).read_bytes()
    # a different seed writes different results
    assert run_cli(key, command, dict(BASES[command], master_seed=6), *extra) == 0
    assert any((flag / "out" / name).read_bytes() != (key / "out" / name).read_bytes() for name in names)
