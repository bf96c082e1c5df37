"""Command-line front end.

Subcommands: simulate | tomography | sweep | critical-point | fit |
validate.  Experiment configs are JSON objects with unit-suffixed keys;
outputs are CSV/JSON data files written atomically, so identical configs
and seeds reproduce them byte for byte.  Exit codes: 0 ok, 1 config
error, 2 simulation or fit error.

Sections and top-level keys each subcommand reads (defaults in brackets;
every section is a JSON object, unknown keys are ignored):

  simulate        sequence, ensemble, pulses, noise, relaxation,
                  initial_state [0, 0, 1] (norm <= 1), record [acquires] | events,
                  master_seed [0]
  tomography      sequence (tau1_s <= tau_c_s), ensemble, pulses, noise,
                  relaxation, master_seed; cycle counts from --n-list
  sweep           sweep (tau_c_s list, no repeats, total_time_s, tau1_s <= every
                  tau_c_s), ensemble, pulses, noise (kind not none), relaxation,
                  master_seed
  critical-point  spin_system (q_tensor_hz, m_tensor_hz_per_g), search
                  (b_init_g, level_pair [2, 3], box_halfwidth_g [50],
                  n_starts [8] in [1, 10000], seed [0], tolerance_hz_per_g)

  sequence    dsl text, or template bangbang (tau1_s <= tau_c_s, n_cycles,
              acquire_every, initial_area_rad [pi/2]), hahn_echo (tau_s)
              or inversion_recovery (delay_s)
  ensemble    size, distribution [gaussian], fwhm_hz, detunings_hz,
              sampling [monte_carlo], seed [0]
  pulses      mode [hard] | finite (rabi_hz)
  noise       kind [none] | ornstein_uhlenbeck (sigma_hz, tau_b_s) |
              telegraph (amplitude_hz, flip_rate_hz)
  relaxation  t1_s [inf], t2_s [inf], z_equilibrium [0]

Each subcommand has one parse function, which ``--validate-only``, the
run and ``validate`` all call: validating applies the run's own checks
and lists every problem in one ``invalid config`` error.  ``validate``
picks the function from the sections present: spin_system ->
critical-point, sweep -> sweep, a sequence with template or dsl ->
simulate, any other sequence -> tomography.
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


class ConfigError(ValueError):
    """Invalid experiment config; message lists every problem found."""


def _check(errors: list) -> None:
    if errors:
        raise ConfigError("invalid config:\n  - " + "\n  - ".join(errors))


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        _check([f"the config must be a JSON object, got {cfg!r}"])
    return cfg


# Section readers append each problem to ``errors`` and return a
# placeholder (None or a default) for what they cannot read.

def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _positive(errors: list, name: str, value) -> float | None:
    """``value`` as a float when it is a finite number > 0."""
    if _real(value) and value > 0:
        return float(value)
    errors.append(f"{name} must be a positive number, got {value!r}")
    return None


def _integer(errors: list, name: str, value, lo: int, hi: int | None = None) -> int | None:
    """``value`` when it is an integer in ``[lo, hi]`` (no upper bound for None)."""
    if (isinstance(value, int) and not isinstance(value, bool) and lo <= value
            and (hi is None or value <= hi)):
        return value
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    errors.append(f"{name} must be an integer {bound}, got {value!r}")
    return None


def _section(cfg: dict, name: str, errors: list, required: bool = False) -> dict | None:
    """The ``name`` object; else None if it is required, {} if not."""
    doc = cfg.get(name)
    if isinstance(doc, dict):
        return doc
    if doc is not None or required:
        errors.append(f"missing '{name}' section" if doc is None
                      else f"{name} must be a JSON object, got {doc!r}")
    return None if required else {}


def _make(errors: list, name: str, factory, **kw):
    """``factory(**kw)``; a ValueError or TypeError it raises becomes an error."""
    try:
        return factory(**kw)
    except (ValueError, TypeError) as exc:
        errors.append(f"{name}: {exc}")
        return None


def read_pulses(cfg: dict, errors: list) -> sequences.PulseSpec:
    doc = _section(cfg, "pulses", errors)
    mode = doc.get("mode", "hard")
    if mode == "finite":
        rabi = _positive(errors, "pulses.rabi_hz", doc.get("rabi_hz"))
        return sequences.PulseSpec(rabi=rabi) if rabi else sequences.HARD_PULSES
    if mode != "hard":
        errors.append(f"pulses.mode must be 'hard' or 'finite', got {mode!r}")
    return sequences.HARD_PULSES


def read_train(cfg: dict, errors: list) -> tuple:
    """``(tau1, tau_c)`` of the bang-bang train in the sequence section."""
    doc = _section(cfg, "sequence", errors, required=True)
    if doc is None:
        return None, None
    pair = (_positive(errors, "sequence.tau1_s", doc.get("tau1_s")),
            _positive(errors, "sequence.tau_c_s", doc.get("tau_c_s")))
    if None in pair or _make(errors, "sequence", sequences.BangBangParams,
                             tau1=pair[0], tau_c=pair[1], n_cycles=0) is None:
        return None, None
    return pair


def read_sequence(cfg: dict, errors: list, pulse_spec) -> sequences.PulseProgram | None:
    doc = _section(cfg, "sequence", errors, required=True)
    if doc is None:
        return None
    if "dsl" in doc:
        try:
            return sequences.parse(doc["dsl"])
        except (sequences.SequenceError, TypeError) as exc:
            errors.append(f"sequence.dsl: {exc}")
            return None
    template = doc.get("template")
    if template == "hahn_echo":
        tau = _positive(errors, "sequence.tau_s", doc.get("tau_s"))
        return None if tau is None else sequences.build_hahn_echo(tau, pulse_spec)
    if template == "inversion_recovery":
        delay = _positive(errors, "sequence.delay_s", doc.get("delay_s"))
        return None if delay is None else sequences.build_inversion_recovery(delay, pulse_spec)
    if template != "bangbang":
        errors.append("sequence.template must be bangbang, hahn_echo or "
                      f"inversion_recovery, got {template!r}")
        return None
    tau1, tau_c = read_train(cfg, errors)
    n_cycles = _integer(errors, "sequence.n_cycles", doc.get("n_cycles"), 0)
    area = _positive(errors, "sequence.initial_area_rad", doc.get("initial_area_rad", math.pi / 2))
    every = doc.get("acquire_every")
    every = every if every is None else _integer(errors, "sequence.acquire_every", every, 1)
    if None in (tau1, tau_c, n_cycles, area):
        return None
    params = sequences.BangBangParams(tau1=tau1, tau_c=tau_c, n_cycles=n_cycles, initial_area=area)
    return sequences.build_bangbang(params, pulse_spec, acquire_every=every)


def read_ensemble(cfg: dict, errors: list) -> ensemble.EnsembleSpec | None:
    doc = _section(cfg, "ensemble", errors, required=True)
    return None if doc is None else _make(
        errors, "ensemble", ensemble.EnsembleSpec, size=doc.get("size", 0),
        distribution=doc.get("distribution", "gaussian"), fwhm=doc.get("fwhm_hz"),
        detunings=doc.get("detunings_hz"), sampling=doc.get("sampling", "monte_carlo"),
        seed=doc.get("seed", 0),
    )


def read_noise(cfg: dict, errors: list) -> ensemble.NoiseModel:
    doc = _section(cfg, "noise", errors)
    return _make(
        errors, "noise", ensemble.NoiseModel, kind=doc.get("kind", "none"),
        sigma=doc.get("sigma_hz", 0.0), tau_b=doc.get("tau_b_s"),
        amplitude=doc.get("amplitude_hz", 0.0), flip_rate=doc.get("flip_rate_hz"),
    ) or ensemble.NO_NOISE


def read_relaxation(cfg: dict, errors: list) -> RelaxationParams | None:
    doc = _section(cfg, "relaxation", errors)
    return _make(
        errors, "relaxation", RelaxationParams,
        t1=math.inf if doc.get("t1_s") is None else doc["t1_s"],
        t2=math.inf if doc.get("t2_s") is None else doc["t2_s"],
        z_equilibrium=doc.get("z_equilibrium", 0.0),
    )


def read_master_seed(cfg: dict, errors: list) -> int | None:
    return _integer(errors, "master_seed", cfg.get("master_seed", 0), 0)


def read_initial_state(cfg: dict, errors: list) -> list | None:
    initial = cfg.get("initial_state", [0.0, 0.0, 1.0])
    if not (isinstance(initial, list) and len(initial) == 3 and all(map(_real, initial))):
        errors.append(f"initial_state must be a list of 3 finite numbers, got {initial!r}")
    elif math.hypot(*initial) > 1.0 + 1e-9:
        errors.append(f"initial_state must have norm <= 1, got {math.hypot(*initial):.9g}")
    else:
        return initial
    return None


def read_record(cfg: dict, errors: list) -> str:
    record = cfg.get("record", "acquires")
    if record not in ("acquires", "events"):
        errors.append(f"record must be 'acquires' or 'events', got {record!r}")
    return record


def read_sweep(cfg: dict, errors: list) -> tuple:
    """``(tau_c values, total_time, tau1)`` from the sweep section."""
    doc = _section(cfg, "sweep", errors, required=True)
    if doc is None:
        return None, None, None
    values = doc.get("tau_c_s")
    if isinstance(values, list) and values:
        values = [_positive(errors, f"sweep.tau_c_s[{k}]", x) for k, x in enumerate(values)]
    else:
        errors.append(f"sweep.tau_c_s must be a non-empty list, got {values!r}")
    total_time = _positive(errors, "sweep.total_time_s", doc.get("total_time_s"))
    tau1 = doc.get("tau1_s")
    tau1 = tau1 if tau1 is None else _positive(errors, "sweep.tau1_s", tau1)
    return values, total_time, tau1


def read_spin_system(cfg: dict, errors: list) -> hamiltonian.SpinSystem | None:
    doc = _section(cfg, "spin_system", errors, required=True)
    return None if doc is None else _make(
        errors, "spin_system", hamiltonian.spin_system_from_dict, doc=doc
    )


# the batched search holds every start in memory at once: bound the work
_MAX_STARTS = 10_000


def read_search(cfg: dict, errors: list) -> dict:
    """Keyword arguments of :func:`hamiltonian.find_critical_point` but the system."""
    doc = _section(cfg, "search", errors)
    b_init = doc.get("b_init_g")
    if not (isinstance(b_init, list) and len(b_init) == 3 and all(map(_real, b_init))):
        errors.append(f"search.b_init_g must be a list of 3 finite numbers, got {b_init!r}")
        b_init = None
    pair = doc.get("level_pair", [2, 3])
    if not (isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1]):
        errors.append(f"search.level_pair must be two different level indices, got {pair!r}")
        pair = [2, 3]
    levels = [_integer(errors, "search.level_pair", n, 0, 5) for n in pair]
    i, j = (None, None) if None in levels else sorted(levels)
    tol = doc.get("tolerance_hz_per_g")
    tol = tol if tol is None else _positive(errors, "search.tolerance_hz_per_g", tol)
    return dict(
        b_init=None if b_init is None else np.asarray(b_init, dtype=float),
        i=i,
        j=j,
        box_halfwidth=_positive(errors, "search.box_halfwidth_g",
                                doc.get("box_halfwidth_g", 50.0)),
        n_starts=_integer(errors, "search.n_starts", doc.get("n_starts", 8), 1, _MAX_STARTS),
        tolerance=tol,
        seed=_integer(errors, "search.seed", doc.get("seed", 0), 0),
    )


def _ensemble_run(cfg: dict, errors: list) -> dict:
    """Keyword arguments shared by the ensemble subcommands."""
    return dict(
        ensemble=read_ensemble(cfg, errors),
        pulse_spec=read_pulses(cfg, errors),
        noise=read_noise(cfg, errors),
        relax=read_relaxation(cfg, errors),
        master_seed=read_master_seed(cfg, errors),
    )


# One parse function per subcommand: it raises ConfigError listing every
# problem, or returns the keyword arguments of the subcommand's engine call.

def parse_simulation_config(cfg: dict) -> dict:
    """For :func:`ensemble.run_program`; warns when the train is too slow."""
    errors: list[str] = []
    kw = _ensemble_run(cfg, errors)
    kw.update(
        program=read_sequence(cfg, errors, kw.pop("pulse_spec")),
        initial_state=read_initial_state(cfg, errors),
        record=read_record(cfg, errors),
    )
    _check(errors)
    seq, noise = cfg["sequence"], kw["noise"]
    if seq.get("template") == "bangbang" and noise.kind == "ornstein_uhlenbeck":
        product = (1.0 / noise.tau_b) * float(seq["tau_c_s"])  # omega_c = 1 / tau_b
        if product > 1.0:
            print(f"warning: omega_c*tau_c = {product:.3g} > 1: the pulse train is too "
                  "slow for this bath; decoupling will be ineffective", file=sys.stderr)
    return kw


def parse_tomography_config(cfg: dict) -> dict:
    """For :func:`tomography.tomography_series`, which sets the cycle counts."""
    errors: list[str] = []
    tau1, tau_c = read_train(cfg, errors)
    kw = _ensemble_run(cfg, errors)
    _check(errors)
    return dict(kw, tau1=tau1, tau_c=tau_c)


def parse_sweep_config(cfg: dict) -> dict:
    """For :func:`analysis.sweep_t2_vs_tauc`."""
    errors: list[str] = []
    tau_c_values, total_time, tau1 = read_sweep(cfg, errors)
    if not errors:
        _make(errors, "sweep", analysis.sweep_cycles,
              tau_c_values=tau_c_values, total_time=total_time)
        if tau1 is not None:
            _make(errors, "sweep", sequences.BangBangParams,
                  tau1=tau1, tau_c=min(tau_c_values), n_cycles=0)
    kw = _ensemble_run(cfg, errors)
    if kw["noise"].kind == "none":
        errors.append("sweep needs a stochastic noise model (noise.kind != 'none')")
    _check(errors)
    kw.update(tau_c_values=tau_c_values, total_time=total_time, tau1=tau1)
    return kw


def parse_critical_point_config(cfg: dict) -> dict:
    """For :func:`hamiltonian.find_critical_point`."""
    errors: list[str] = []
    kw = dict(system=read_spin_system(cfg, errors), **read_search(cfg, errors))
    _check(errors)
    return kw


def _parser_for(cfg: dict):
    """The parse function of the subcommand a config is written for."""
    if "spin_system" in cfg:
        return parse_critical_point_config
    if "sweep" in cfg:
        return parse_sweep_config
    seq = cfg.get("sequence")
    if isinstance(seq, dict) and "template" not in seq and "dsl" not in seq:
        return parse_tomography_config
    return parse_simulation_config


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    ensemble.write_text_atomic(os.path.join(out_dir, name), text)


# Subcommands.

def _load(args, parse) -> tuple:
    """``(config, parsed)``; ``parsed`` is None when only validating."""
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg["master_seed"] = args.seed
    kw = parse(cfg)
    if args.validate_only:
        print("config ok")
        return cfg, None
    return cfg, kw


def cmd_simulate(args) -> int:
    cfg, kw = _load(args, parse_simulation_config)
    if kw is None:
        return 0
    result = ensemble.run_program(**kw)
    _write(args.out_dir, "trajectory.csv", ensemble.result_to_csv(result))
    _write(args.out_dir, "result.json", ensemble.result_to_json(result, config=cfg))
    print(f"members: {result.n_members}")
    print(f"duration_s: {result.duration:.9g}")
    for label in result.labels():
        mag, phase = ensemble.echo_amplitude(result, label)
        print(f"acquire {label}: magnitude={mag:.6f} phase={phase:+.6f}")
    return 0


def cmd_tomography(args) -> int:
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        raise ConfigError(f"--n-list must be comma-separated integers, got {args.n_list!r}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or any(n < 0 for n in n_list):
        raise ConfigError("--n-list must be non-negative and strictly ascending")
    cfg, kw = _load(args, parse_tomography_config)
    if kw is None:
        return 0
    summary = ["n_cycles,fidelity,average_gate_fidelity"]
    print("n_cycles  fidelity")
    for res in tomography.tomography_series(n_list=n_list, **kw):
        name = f"ptm_n{res.n_cycles}"
        _write(args.out_dir, name + ".json", tomography.process_result_to_json(res, config=cfg))
        _write(args.out_dir, name + ".csv", tomography.ptm_to_csv(res.ptm))
        gate = tomography.average_gate_fidelity(res.fidelity)
        summary.append(f"{res.n_cycles},{res.fidelity:.17g},{gate:.17g}")
        print(f"{res.n_cycles:8d}  {res.fidelity:.4f}")
    _write(args.out_dir, "fidelity_summary.csv", "\n".join(summary) + "\n")
    return 0


def cmd_sweep(args) -> int:
    cfg, kw = _load(args, parse_sweep_config)
    if kw is None:
        return 0
    points = analysis.sweep_t2_vs_tauc(**kw)
    _write(args.out_dir, "sweep.csv", analysis.sweep_to_csv(points))
    _write(args.out_dir, "sweep.json", analysis.sweep_to_json(points, config=cfg))
    print("tau_c_s    t2_s        status")
    for p in points:
        print(f"{p.tau_c:<10.4g} {p.t2:<11.5g} {p.status}")
    return 0


def cmd_critical_point(args) -> int:
    cfg, kw = _load(args, parse_critical_point_config)
    if kw is None:
        return 0
    result = hamiltonian.find_critical_point(**kw)
    report = hamiltonian.critical_point_report_json(
        result, kw["system"], kw["i"], kw["j"], config=cfg)
    _write(args.out_dir, "critical_point.json", report)
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
    except analysis.FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # the curve does not suit the model
        raise ConfigError(f"cannot fit {args.csv}: {exc}")
    _write(args.out_dir, "fit.json", analysis.fit_to_json(fit, config={"csv": args.csv}))
    for name in sorted(fit.params):
        print(f"{name} = {fit.params[name]:.6g} +- {fit.uncertainties[name]:.2g}")
    return 0


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    _parser_for(cfg)(cfg)
    print("config ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochdd", description="Simulate decoupled spin ensembles and analyze the results."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("simulate", cmd_simulate, "run a pulse program over the ensemble"),
        ("tomography", cmd_tomography, "process tomography of the decoupling train"),
        ("sweep", cmd_sweep, "extract T2 versus pulse spacing"),
        ("critical-point", cmd_critical_point, "search for a zero-gradient field point"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        if name != "critical-point":  # the search has its own search.seed
            p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--validate-only", action="store_true",
                       help="check the config (including the bath-cutoff criterion) and exit")
        p.set_defaults(func=func)
        if name == "tomography":
            p.add_argument("--n-list", default="1,10,100,1000",
                           help="comma-separated cycle counts")

    p = sub.add_parser("fit", help="fit a decay curve from CSV")
    p.add_argument("--csv", required=True, help="CSV file: time_s,amplitude[,sigma]")
    p.add_argument("--model", default="single_exp",
                   choices=["single_exp", "stretched", "inv_recovery"])
    p.add_argument("--out-dir", default=".", help="directory for output files")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("validate", help="validate a config without running")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
