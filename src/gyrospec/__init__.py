"""gyrospec: spectral stability of rotating gyroscopic systems.

Exact and first-order spectra of the perturbed rotor pencil
I lambda^2 + (2 Omega G + delta D) lambda + (P + Omega^2 G^2 + kappa K + nu N),
subcritical flutter charts with traced boundaries, exceptional/diabolical
point certification, and the rotating-frame Floquet dual picture.
"""

from .model import (
    J2,
    MeshEigenvalue,
    PerturbationSet,
    QuadraticPencil,
    RotorModel,
    build_pencil,
    classify_wave,
    critical_speed,
    mesh_spectrum,
)
from .qep import (
    Spectrum,
    cluster_eigenvalues,
    max_growth_rate,
    solve_qep,
)
from .perturbation import (
    JordanChain,
    ModalData,
    PerturbationReport,
    approx_eigenvalues,
    beta0,
    cone_criterion,
    coupling_c,
    criterion_B,
    ep_location,
    invariant_A,
    jordan_chain,
    modal_data,
    omega_cr_nu,
    perturbation_report,
    umbrella_kappa,
    umbrella_omega,
    veering_hyperbola,
)
from .atlas import (
    Polyline,
    SingularPointRecord,
    StabilityChart,
    StabilityVerdict,
    boundary_slope_at_origin,
    classify,
    find_exceptional_points,
    sweep2d,
    trace_boundary,
)
from .floquet import (
    FloquetResult,
    PeriodicSystem,
    monodromy,
    rotating_frame,
)
from .config import RunConfig, emit_config, parse_config
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"
