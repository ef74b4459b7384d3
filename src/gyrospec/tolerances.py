"""The user-settable numerical tolerances of the package.

Every field can be overridden per run through the CLI (``--tol KEY=VAL``
or ``tolerance.KEY`` config lines); library functions take the same values
as keyword arguments.  Each value must be finite and non-negative; zero is
allowed and makes its check as strict as it can be.  Fixed thresholds that
no run sets are module constants next to the code that uses them.
"""

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError


@dataclass(frozen=True)
class Tolerances:
    # construction-time symmetrization rejection (relative, Frobenius)
    sym_rtol: float = 1e-12
    # scaled polynomial root residual |p(x)| / (max|a| (1+|x|)^deg)
    poly_residual: float = 1e-12
    # stability classification margin, relative to spectral scale
    marginal_rtol: float = 1e-8
    # |max Re lambda| at refined boundary vertices
    boundary_residual: float = 1e-9
    # rank-deficiency threshold relative to ||L(lambda0)||
    ep_rank_rtol: float = 1e-7
    # |det M| versus the Liouville integral
    liouville_rtol: float = 1e-6
    # Floquet multiplier pairing distance, relative to max(1, max |multiplier|)
    duality_tol: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"tolerance {f.name} must be finite and "
                                  f"non-negative, got {value!r}")

    def override(self, **kwargs) -> "Tolerances":
        unknown = set(kwargs) - {f.name for f in fields(self)}
        if unknown:
            raise KeyError(f"unknown tolerance keys: {sorted(unknown)}")
        return replace(self, **kwargs)


DEFAULT = Tolerances()

TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))
