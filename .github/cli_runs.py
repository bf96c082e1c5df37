"""Write every CI config and run the CLI on each, into one output directory.

    python .github/cli_runs.py OUT_DIR

Run it from the repository root with the interpreter under test: the CLI
runs in that interpreter with ``src`` on ``PYTHONPATH`` and inherits the
environment, thread settings included.  Each config is written as
``OUT_DIR/<name>.json`` (a ``fit`` run's curve as ``OUT_DIR/<name>.csv``)
and its run's outputs go to ``OUT_DIR/<name>/``.  The CLI runs in
``OUT_DIR`` and is given relative paths, except that one ``fit`` run
(``ABSOLUTE_CSV``) is given its curve by absolute path.  No output may
name the directory, so the outputs of two directories must be identical.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, "bench")
import workloads  # noqa: E402

OU_NOISE = {"kind": "ornstein_uhlenbeck", "sigma_hz": 30.0, "tau_b_s": 0.005}
TELEGRAPH_NOISE = {"kind": "telegraph", "amplitude_hz": 40.0, "flip_rate_hz": 200.0}

# the simulate runs add "record": acquires inside a repeat, hard and finite
# pulses, an OU bath, and T1/T2 toward a nonzero z_equilibrium
SIMULATE = {
    "sequence": {"dsl": "pulse area=pi/2 phase=0; wait 0.3ms; repeat 40 { pulse area=pi phase=0; wait 1ms; "
                        "pulse rabi=100kHz duration=5us phase=180; wait 0.7ms; acquire echo; wait 0.3ms }; "
                        "pulse area=pi phase=90; wait 0.5ms; acquire end"},
    "ensemble": {"size": 64, "fwhm_hz": 500.0, "seed": 3},
    "noise": OU_NOISE,
    "relaxation": {"t1_s": 0.05, "t2_s": 0.04, "z_equilibrium": 0.3}, "master_seed": 7,
}
# a lowered repeat of hard pi pulses at 0, 90 and 30 degrees with acquires
# inside, under an OU bath: each read turns its member sums by the frame's
# angle, elementwise
PI_FRAME = {
    "sequence": {"dsl": "pulse area=pi/2 phase=0; repeat 300 { pulse area=pi phase=0; wait 0.4ms; "
                        "pulse area=pi phase=90; wait 0.3ms; acquire a; pulse area=pi phase=30; wait 0.3ms; "
                        "acquire b }; wait 0.2ms; acquire end"},
    "ensemble": {"size": 64, "fwhm_hz": 500.0, "seed": 3},
    "noise": OU_NOISE,
    "relaxation": {"t1_s": 0.5, "t2_s": 0.2}, "master_seed": 7,
}
# tomography with finite pulses and a telegraph bath, in the shape of the
# smoke tomo_telegraph config (run with --n-list 0,1,2,10,100: one run reads
# the t = 0 row and adjacent counts); at 200 flips/s many cycles hold a
# flip, which the compiled repeats build exactly
TOMO_FINITE = {
    "sequence": {"tau1_s": 0.0005, "tau_c_s": 0.001}, "pulses": {"mode": "finite", "rabi_hz": 50000.0},
    "ensemble": {"size": 64, "distribution": "gaussian", "fwhm_hz": 2000.0, "seed": 3},
    "noise": TELEGRAPH_NOISE, "master_seed": 7,
}
FINITE_CYCLE = ("pulse rabi=50kHz duration=10us phase=0; wait 1ms; "
                "pulse rabi=50kHz duration=10us phase=180; wait 1ms")
HARD_CYCLE = "pulse area=pi phase=0; wait 1ms; pulse area=-pi phase=0; wait 1ms"
WIDE_LINE = {"size": 64, "fwhm_hz": 2000.0, "seed": 3}
SLOW_RELAXATION = {"t1_s": 5.0, "t2_s": 2.0}
# the sequence templates, each under an OU bath
TEMPLATES = {
    "hahn-echo": {"template": "hahn_echo", "tau_s": 0.002},
    "inversion-recovery": {"template": "inversion_recovery", "delay_s": 0.01},
    "bangbang-every": {"template": "bangbang", "tau1_s": 0.0005, "tau_c_s": 0.001, "n_cycles": 60,
                       "acquire_every": 7, "initial_area_rad": 1.2},
}
# curves for fit: an echo decay with a +-1% ripple, so that the fits leave
# residuals, and an inversion recovery with a sigma column
DECAY = "time_s,amplitude\n" + "".join(
    f"{0.05 * k:g},{math.exp(-0.05 * k / 0.3) * (1 + 0.01 * (-1) ** k):.6f}\n" for k in range(12))
RECOVERY = "time_s,amplitude,sigma\n" + "".join(
    f"{0.1 * k:g},{0.2 - 1.2 * math.exp(-0.1 * k / 0.5) + 0.005 * (-1) ** k:.6f},0.01\n" for k in range(12))
# the fit run given its curve by absolute path: fit.json records only the
# file's name, so the path of OUT_DIR must not reach it
ABSOLUTE_CSV = "fit-absolute-path"


def echo(body: str, **config) -> dict:
    """A config on the wide line whose sequence runs ``body`` between a pi/2
    pulse and a closing pi pulse, then reads the echo."""
    dsl = f"pulse area=pi/2 phase=0; wait 0.5ms; {body}; pulse area=pi phase=0; wait 0.5ms; acquire echo"
    return {"sequence": {"dsl": dsl}, "ensemble": WIDE_LINE, **config, "master_seed": 7}


def runs():
    """``(name, config text, subcommand, extra flags)`` of every run."""
    smoke = [(name, workloads.make(name, 11, "smoke")) for name in workloads.NAMES]
    paper = workloads.make("ou_sweep", 21, "paper")
    search = workloads.make("critical_point", 21, "paper")
    for name, w in smoke + [("ou_sweep_paper", paper), ("critical_point_paper", search)]:
        yield name, w.config_text(), w.subcommand, list(w.extra_args)
    # the search at the CLI's limit of starts (cli._MAX_STARTS), all evaluated as one batch
    yield ("critical_point_max_starts", dict(search.config, search=dict(search.config["search"], n_starts=10_000)),
           "critical-point", [])
    # the paper sweep over a 30 s record, the north star's scale
    yield "ou_sweep_30s", dict(paper.config, sweep=dict(paper.config["sweep"], total_time_s=30.0)), "sweep", []
    for record in ("acquires", "events"):
        yield f"simulate-{record}", dict(SIMULATE, record=record), "simulate", []
        yield f"simulate-telegraph-{record}", dict(SIMULATE, noise=TELEGRAPH_NOISE, record=record), "simulate", []
        yield f"simulate-pi-frame-{record}", dict(PI_FRAME, record=record), "simulate", []
    # SIMULATE's program over 400 iterations, with no relaxation: its finite
    # pulses keep the OU bath on the event path, 1,600 intervals over about
    # ten draw blocks
    long = {key: value for key, value in SIMULATE.items() if key != "relaxation"}
    long["sequence"] = {"dsl": SIMULATE["sequence"]["dsl"].replace("repeat 40 ", "repeat 400 ")}
    yield "simulate-ou-long", long, "simulate", []
    yield "tomo-finite", TOMO_FINITE, "tomography", ["--n-list", "0,1,2,10,100"]
    # a master seed of two 32-bit words: the member streams hash both
    wide = dict(TOMO_FINITE, master_seed=2**40 + 7)
    yield "tomo-finite-wide-seed", wide, "tomography", ["--n-list", "0,1,2,10,100"]
    # the same series out to 10,000 cycles, the north star's scale, at the
    # tomo_telegraph benchmark's 2 Hz and 20 flips/s: a member's flip-free
    # stretches last tens of cycles, and a compiled repeat steps by flips
    slow = dict(TOMO_FINITE, noise={"kind": "telegraph", "amplitude_hz": 2.0, "flip_rate_hz": 20.0})
    yield "tomo-telegraph-long", slow, "tomography", ["--n-list", "0,1,10,100,1000,10000"]
    # a compiled finite-pulse repeat with no bath and T1/T2 toward 0: one
    # power of each member's cycle map
    finite = echo(f"repeat 2000 {{ {FINITE_CYCLE} }}", relaxation=SLOW_RELAXATION)
    yield "finite-repeat", finite, "simulate", []
    # the same repeat with hard pi pulses: with no bath it compiles too
    hard = echo(f"repeat 2000 {{ {HARD_CYCLE} }}", relaxation=SLOW_RELAXATION)
    yield "hard-repeat", hard, "simulate", []
    # a nested finite-pulse repeat under a telegraph bath: the outer body
    # holds 400 bath intervals, more than one draw block (256), so it runs
    # event by event and its inner repeat compiles
    nested = echo(f"repeat 3 {{ repeat 100 {{ {FINITE_CYCLE} }} }}", noise=TELEGRAPH_NOISE)
    yield "nested-repeat", nested, "simulate", []
    for name, sequence in TEMPLATES.items():
        config = {"sequence": sequence, "ensemble": WIDE_LINE, "noise": OU_NOISE,
                  "relaxation": {"t1_s": 0.5, "t2_s": 0.2, "z_equilibrium": 0.1}, "master_seed": 7}
        yield name, config, "simulate", []
    # the bangbang template relaxing toward 0, under a telegraph bath and
    # with none: its repeats hold acquires, so they lower to arrays and step
    # by read intervals, summing the flips in each under the bath
    every = {"sequence": TEMPLATES["bangbang-every"], "ensemble": WIDE_LINE,
             "relaxation": {"t1_s": 0.5, "t2_s": 0.2}, "master_seed": 7}
    yield "bangbang-every-telegraph", dict(every, noise=TELEGRAPH_NOISE), "simulate", []
    yield "bangbang-every-no-bath", every, "simulate", []
    for model, curve in (("single_exp", DECAY), ("stretched", DECAY), ("inv_recovery", RECOVERY)):
        yield f"fit-{model}", curve, "fit", ["--model", model]
    yield ABSOLUTE_CSV, DECAY, "fit", ["--model", "single_exp"]


def main(out: str) -> None:
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    for name, config, subcommand, flags in runs():
        flag, path = ("--csv", f"{name}.csv") if subcommand == "fit" else ("--config", f"{name}.json")
        with open(os.path.join(out, path), "w") as fh:
            fh.write(config if isinstance(config, str) else json.dumps(config) + "\n")
        if name == ABSOLUTE_CSV:
            path = os.path.abspath(os.path.join(out, path))
        argv = [subcommand, flag, path, "--out-dir", name, *flags]
        print("blochdd", *argv, flush=True)
        subprocess.run([sys.executable, "-m", "blochdd.cli", *argv], cwd=out, env=env, check=True)


if __name__ == "__main__":
    main(sys.argv[1])
