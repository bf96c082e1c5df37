"""Command-line front end.

Subcommands: simulate | tomography | sweep | critical-point | fit |
validate.  Experiment configs are JSON documents with unit-suffixed
keys (tau_c_s, fwhm_hz, ...); outputs are CSV/JSON data files written
atomically, so identical configs and seeds reproduce them byte for
byte.  Exit codes: 0 ok, 1 config error, 2 simulation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, ensemble, hamiltonian, sequences, tomography
from .bloch import RelaxationParams

_TEMPLATES = ("bangbang", "hahn_echo", "inversion_recovery")


class ConfigError(ValueError):
    """Invalid experiment config; message lists every problem found."""


def _fail(errors):
    raise ConfigError("invalid config:\n  - " + "\n  - ".join(errors))


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _optional_time(doc, key, errors, default=None):
    v = doc.get(key, default)
    if v is None:
        return None
    if not isinstance(v, (int, float)) or not v > 0:
        errors.append(f"{key} must be a positive number, got {v!r}")
        return None
    return float(v)


def _master_seed(cfg: dict, errors: list) -> int:
    seed = cfg.get("master_seed", 0)
    if not isinstance(seed, int):
        errors.append(f"master_seed must be an integer, got {seed!r}")
        return 0
    return seed


def build_pulse_spec(doc: dict, errors: list) -> sequences.PulseSpec:
    mode = doc.get("mode", "hard")
    if mode == "hard":
        return sequences.HARD_PULSES
    if mode == "finite":
        rabi = doc.get("rabi_hz")
        if not isinstance(rabi, (int, float)) or not rabi > 0:
            errors.append(f"pulses.rabi_hz must be positive, got {rabi!r}")
            return sequences.HARD_PULSES
        return sequences.PulseSpec(rabi=float(rabi))
    errors.append(f"pulses.mode must be 'hard' or 'finite', got {mode!r}")
    return sequences.HARD_PULSES


def build_sequence(doc: dict, pulse_spec, errors: list):
    if "dsl" in doc:
        try:
            return sequences.parse(doc["dsl"])
        except sequences.SequenceError as exc:
            errors.append(f"sequence.dsl: {exc}")
            return None
    template = doc.get("template")
    if template not in _TEMPLATES:
        errors.append(f"sequence.template must be one of {_TEMPLATES}, got {template!r}")
        return None
    try:
        if template == "hahn_echo":
            tau = _optional_time(doc, "tau_s", errors)
            return sequences.build_hahn_echo(tau, pulse_spec) if tau else None
        if template == "inversion_recovery":
            delay = _optional_time(doc, "delay_s", errors)
            return sequences.build_inversion_recovery(delay, pulse_spec) if delay else None
        tau1 = _optional_time(doc, "tau1_s", errors)
        tau_c = _optional_time(doc, "tau_c_s", errors)
        n_cycles = doc.get("n_cycles")
        if not isinstance(n_cycles, int) or n_cycles < 0:
            errors.append(f"sequence.n_cycles must be a non-negative integer, got {n_cycles!r}")
            return None
        if tau1 is None or tau_c is None:
            return None
        params = sequences.BangBangParams(
            tau1=tau1,
            tau_c=tau_c,
            n_cycles=n_cycles,
            initial_area=float(doc.get("initial_area_rad", math.pi / 2)),
        )
        acquire_every = doc.get("acquire_every")
        if acquire_every is not None and (not isinstance(acquire_every, int) or acquire_every < 1):
            errors.append(f"sequence.acquire_every must be a positive integer, got {acquire_every!r}")
            acquire_every = None
        return sequences.build_bangbang(params, pulse_spec, acquire_every=acquire_every)
    except ValueError as exc:
        errors.append(f"sequence: {exc}")
        return None


def build_ensemble(doc: dict, errors: list):
    try:
        return ensemble.EnsembleSpec(
            size=doc.get("size", 0),
            distribution=doc.get("distribution", "gaussian"),
            fwhm=doc.get("fwhm_hz"),
            detunings=doc.get("detunings_hz"),
            sampling=doc.get("sampling", "monte_carlo"),
            seed=doc.get("seed", 0),
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"ensemble: {exc}")
        return None


def build_noise(doc: dict | None, errors: list):
    if doc is None:
        return ensemble.NO_NOISE
    try:
        return ensemble.NoiseModel(
            kind=doc.get("kind", "none"),
            sigma=doc.get("sigma_hz", 0.0),
            tau_b=doc.get("tau_b_s"),
            amplitude=doc.get("amplitude_hz", 0.0),
            flip_rate=doc.get("flip_rate_hz"),
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"noise: {exc}")
        return ensemble.NO_NOISE


def build_relaxation(doc: dict | None, errors: list):
    if doc is None:
        return RelaxationParams()
    try:
        return RelaxationParams(
            t1=math.inf if doc.get("t1_s") is None else float(doc["t1_s"]),
            t2=math.inf if doc.get("t2_s") is None else float(doc["t2_s"]),
            z_equilibrium=float(doc.get("z_equilibrium", 0.0)),
        )
    except (ValueError, TypeError) as exc:
        errors.append(f"relaxation: {exc}")
        return RelaxationParams()


def parse_simulation_config(cfg: dict):
    """Validate a simulation config in full; collect every error."""
    errors: list[str] = []
    if "sequence" not in cfg:
        errors.append("missing 'sequence' section")
    if "ensemble" not in cfg:
        errors.append("missing 'ensemble' section")
    pulse_spec = build_pulse_spec(cfg.get("pulses", {}), errors)
    program = build_sequence(cfg.get("sequence", {}), pulse_spec, errors) if "sequence" in cfg else None
    spec = build_ensemble(cfg.get("ensemble", {}), errors) if "ensemble" in cfg else None
    noise = build_noise(cfg.get("noise"), errors)
    relax = build_relaxation(cfg.get("relaxation"), errors)
    initial = cfg.get("initial_state", [0.0, 0.0, 1.0])
    if not (isinstance(initial, list) and len(initial) == 3):
        errors.append(f"initial_state must be a 3-element list, got {initial!r}")
        initial = [0.0, 0.0, 1.0]
    record = cfg.get("record", "acquires")
    if record not in ("acquires", "events"):
        errors.append(f"record must be 'acquires' or 'events', got {record!r}")
        record = "acquires"
    seed = _master_seed(cfg, errors)
    if errors:
        _fail(errors)
    return program, spec, noise, relax, initial, record, seed


def _decoupling_warnings(cfg: dict) -> list[str]:
    """Bath-cutoff criterion check for decoupling configs."""
    notes = []
    seq = cfg.get("sequence", {})
    noise = cfg.get("noise") or {}
    tau_c = seq.get("tau_c_s")
    tau_b = noise.get("tau_b_s")
    if seq.get("template") == "bangbang" and tau_c and tau_b:
        check = sequences.validate_bangbang(
            sequences.BathCutoff(omega_c=1.0 / float(tau_b)), float(tau_c)
        )
        if not check.passed:
            notes.append(
                f"omega_c*tau_c = {check.product:.3g} > 1: the pulse train is too "
                "slow for this bath; decoupling will be ineffective"
            )
    return notes


def _write(path: str, text: str) -> None:
    ensemble.write_text_atomic(path, text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    program, spec, noise, relax, initial, record, seed = parse_simulation_config(cfg)
    for note in _decoupling_warnings(cfg):
        print(f"warning: {note}", file=sys.stderr)
    if args.validate_only:
        print("config ok")
        return 0
    result = ensemble.run_program(
        program,
        spec,
        noise=noise,
        relax=relax,
        master_seed=seed,
        initial_state=initial,
        record=record,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    _write(os.path.join(args.out_dir, "trajectory.csv"), ensemble.result_to_csv(result))
    _write(
        os.path.join(args.out_dir, "result.json"),
        ensemble.result_to_json(result, config=cfg),
    )
    print(f"members: {result.n_members}")
    print(f"duration_s: {result.duration:.9g}")
    for label in result.labels():
        mag, phase = ensemble.echo_amplitude(result, label)
        print(f"acquire {label}: magnitude={mag:.6f} phase={phase:+.6f}")
    return 0


def cmd_tomography(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise ConfigError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    if n_list != sorted(n_list) or any(n < 0 for n in n_list):
        raise ConfigError("--n-list must be non-negative and ascending")
    errors: list[str] = []
    seq = cfg.get("sequence", {})
    pulse_spec = build_pulse_spec(cfg.get("pulses", {}), errors)
    tau1 = _optional_time(seq, "tau1_s", errors)
    tau_c = _optional_time(seq, "tau_c_s", errors)
    spec = build_ensemble(cfg.get("ensemble", {}), errors)
    noise = build_noise(cfg.get("noise"), errors)
    relax = build_relaxation(cfg.get("relaxation"), errors)
    seed = _master_seed(cfg, errors)
    if tau1 is None or tau_c is None:
        errors.append("tomography needs sequence.tau1_s and sequence.tau_c_s")
    if errors:
        _fail(errors)
    if args.validate_only:
        print("config ok")
        return 0
    params = sequences.BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=max(n_list))
    results = tomography.tomography_series(
        params,
        n_list,
        spec,
        pulse_spec=pulse_spec,
        noise=noise,
        relax=relax,
        master_seed=seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    summary = ["n_cycles,fidelity,average_gate_fidelity"]
    print("n_cycles  fidelity")
    for res in results:
        _write(
            os.path.join(args.out_dir, f"ptm_n{res.n_cycles}.json"),
            tomography.process_result_to_json(res, config=cfg),
        )
        _write(
            os.path.join(args.out_dir, f"ptm_n{res.n_cycles}.csv"),
            tomography.ptm_to_csv(res.ptm),
        )
        summary.append(
            f"{res.n_cycles},{res.fidelity:.17g},"
            f"{tomography.average_gate_fidelity(res.fidelity):.17g}"
        )
        print(f"{res.n_cycles:8d}  {res.fidelity:.4f}")
    _write(os.path.join(args.out_dir, "fidelity_summary.csv"), "\n".join(summary) + "\n")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["master_seed"] = args.seed
    errors: list[str] = []
    sweep_cfg = cfg.get("sweep")
    if not isinstance(sweep_cfg, dict):
        _fail(["missing 'sweep' section"])
    tau_c_values = sweep_cfg.get("tau_c_s")
    if not (isinstance(tau_c_values, list) and tau_c_values
            and all(isinstance(x, (int, float)) and x > 0 for x in tau_c_values)):
        errors.append(f"sweep.tau_c_s must be a list of positive numbers, got {tau_c_values!r}")
    total_time = _optional_time(sweep_cfg, "total_time_s", errors)
    if total_time is None:
        errors.append("sweep.total_time_s is required")
    pulse_spec = build_pulse_spec(cfg.get("pulses", {}), errors)
    spec = build_ensemble(cfg.get("ensemble", {}), errors)
    noise = build_noise(cfg.get("noise"), errors)
    relax = build_relaxation(cfg.get("relaxation"), errors)
    seed = _master_seed(cfg, errors)
    if noise is not None and noise.kind == "none":
        errors.append("sweep needs a stochastic noise model (noise.kind != 'none')")
    if errors:
        _fail(errors)
    if args.validate_only:
        print("config ok")
        return 0
    points = analysis.sweep_t2_vs_tauc(
        tau_c_values,
        noise=noise,
        ensemble=spec,
        total_time=total_time,
        tau1=sweep_cfg.get("tau1_s"),
        pulse_spec=pulse_spec,
        master_seed=seed,
        relax=relax,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    _write(os.path.join(args.out_dir, "sweep.csv"), analysis.sweep_to_csv(points))
    _write(os.path.join(args.out_dir, "sweep.json"), analysis.sweep_to_json(points, config=cfg))
    print("tau_c_s    t2_s        status")
    for p in points:
        print(f"{p.tau_c:<10.4g} {p.t2:<11.5g} {p.status}")
    return 0


def cmd_critical_point(args) -> int:
    cfg = load_config(args.config)
    errors: list[str] = []
    sys_doc = cfg.get("spin_system")
    search = cfg.get("search", {})
    system = None
    if not isinstance(sys_doc, dict):
        errors.append("missing 'spin_system' section")
    else:
        try:
            system = hamiltonian.spin_system_from_dict(sys_doc)
        except ValueError as exc:
            errors.append(str(exc))
    b_init = search.get("b_init_g")
    if not (isinstance(b_init, list) and len(b_init) == 3):
        errors.append(f"search.b_init_g must be a 3-element list, got {b_init!r}")
    levels = search.get("level_pair", [2, 3])
    if not (isinstance(levels, list) and len(levels) == 2
            and all(isinstance(x, int) and 0 <= x <= 5 for x in levels)):
        errors.append(f"search.level_pair must be two level indices in [0, 5], got {levels!r}")
    box_halfwidth = search.get("box_halfwidth_g", 50.0)
    if not isinstance(box_halfwidth, (int, float)) or not box_halfwidth > 0:
        errors.append(f"search.box_halfwidth_g must be a positive number, got {box_halfwidth!r}")
    n_starts = search.get("n_starts", 8)
    if not isinstance(n_starts, int) or n_starts < 1:
        errors.append(f"search.n_starts must be a positive integer, got {n_starts!r}")
    seed = search.get("seed", 0)
    if not isinstance(seed, int):
        errors.append(f"search.seed must be an integer, got {seed!r}")
    tolerance = _optional_time(search, "tolerance_hz_per_g", errors)
    if errors:
        _fail(errors)
    if args.validate_only:
        print("config ok")
        return 0
    i, j = sorted(levels)
    result = hamiltonian.find_critical_point(
        system,
        np.asarray(b_init, dtype=float),
        i,
        j,
        box_halfwidth=float(box_halfwidth),
        n_starts=n_starts,
        tolerance=tolerance,
        seed=seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    _write(
        os.path.join(args.out_dir, "critical_point.json"),
        hamiltonian.critical_point_report_json(result, system, i, j, config=cfg),
    )
    print(f"b_cp_g: ({result.b_cp[0]:.4f}, {result.b_cp[1]:.4f}, {result.b_cp[2]:.4f})")
    print(f"frequency_hz: {result.frequency:.6g}")
    print(f"residual_gradient_norm_hz_per_g: {result.residual_gradient_norm:.6g}")
    print(f"converged: {result.converged}")
    return 0


def cmd_fit(args) -> int:
    if not os.path.exists(args.csv):
        raise ConfigError(f"curve file not found: {args.csv}")
    with open(args.csv) as fh:
        try:
            curve = analysis.DecayCurve.from_csv(fh.read())
        except ValueError as exc:
            raise ConfigError(f"could not read {args.csv}: {exc}")
    try:
        if args.model == "inv_recovery":
            fit = analysis.fit_inversion_recovery(curve)
        else:
            fit = analysis.fit_decay(curve, args.model)
    except (analysis.FitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    _write(os.path.join(args.out_dir, "fit.json"), analysis.fit_to_json(fit, config={"csv": args.csv}))
    for name in sorted(fit.params):
        print(f"{name} = {fit.params[name]:.6g} +- {fit.uncertainties[name]:.2g}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    if "spin_system" in cfg:
        try:
            hamiltonian.spin_system_from_dict(cfg["spin_system"])
        except ValueError as exc:
            raise ConfigError(f"spin_system: {exc}") from exc
        print("config ok")
        return 0
    parse_simulation_config(cfg)
    notes = _decoupling_warnings(cfg)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    print("config ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochdd",
        description="Simulate decoupled spin ensembles and analyze the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument(
            "--validate-only", action="store_true",
            help="check the config (including the bath-cutoff criterion) and exit",
        )

    p = sub.add_parser("simulate", help="run a pulse program over the ensemble")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("tomography", help="process tomography of the decoupling train")
    common(p)
    p.add_argument("--n-list", default="1,10,100,1000", help="comma-separated cycle counts")
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("sweep", help="extract T2 versus pulse spacing")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("critical-point", help="search for a zero-gradient field point")
    common(p)
    p.set_defaults(func=cmd_critical_point)

    p = sub.add_parser("fit", help="fit a decay curve from CSV")
    p.add_argument("--csv", required=True, help="CSV file: time_s,amplitude[,sigma]")
    p.add_argument(
        "--model",
        default="single_exp",
        choices=["single_exp", "stretched", "inv_recovery"],
    )
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="validate a config without running")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ensemble.SimulationBudgetError, hamiltonian.DegenerateLevelsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
