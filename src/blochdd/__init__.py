"""Bloch-equation toolkit for dynamically decoupled spin ensembles.

Subpackage map:

* :mod:`blochdd.bloch` -- single-spin rotation kernels: rotations (a
  hard pulse is one) and finite pulse matrices (closed form, no
  integrators).
* :mod:`blochdd.sequences` -- pulse-program objects (a self-checking
  ``Pulse``, ``Wait``, ``Acquire``, ``Repeat``), text language, canonical
  sequence builders.
* :mod:`blochdd.ensemble` -- inhomogeneous ensembles, stochastic baths
  drawn exactly per interval or read interval inside deterministic
  seeded program runs, analytic dephasing expressions.
* :mod:`blochdd.tomography` -- Pauli-transfer-matrix process tomography
  of simulated channels.
* :mod:`blochdd.hamiltonian` -- I=5/2 quadrupole+Zeeman Hamiltonian,
  transition frequencies over batches of fields, field gradients and
  Hessians, critical-point (zero-gradient) search.
* :mod:`blochdd.analysis` -- decay fitting, T2 versus pulse-spacing
  sweeps.
* :mod:`blochdd.cli` -- the ``blochdd`` command.
"""

from .bloch import NO_RELAXATION, RelaxationParams
from .sequences import (
    Acquire,
    BangBangParams,
    Pulse,
    PulseProgram,
    PulseSpec,
    Repeat,
    Wait,
    build_bangbang,
    build_hahn_echo,
    build_inversion_recovery,
    parse,
)
from .ensemble import (
    EnsembleSpec,
    NoiseModel,
    SimulationResult,
    calibrate_ou_sigma,
    ou_fid_coherence,
    ou_hahn_coherence,
    run_program,
    sample_detunings,
)
from .tomography import (
    ProcessResult,
    run_process_tomography,
    tomography_series,
)
from .hamiltonian import (
    CriticalPointResult,
    SpinSystem,
    field_gradient,
    find_critical_point,
    transition_frequency,
)
from .analysis import (
    DecayCurve,
    DecayFit,
    fit_decay,
    fit_inversion_recovery,
    sweep_t2_vs_tauc,
)

__version__ = "0.1.0"
