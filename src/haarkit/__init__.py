"""Uniform (bi-invariant) measures on rotation groups.

Chart definitions in a small text language, numeric and closed-form
uniform densities, seeded sampling, Reynolds averaging of tensors,
invariant-subspace dimensions, and orbit moment statistics for
SO(2), O(2), SO(3), and O(3); averages also run over finite subgroups.
"""

from .chartlang import ChartError, parse_chart, print_chart
from .charts import (BUILTIN_NAMES, Chart, DomainError, builtin_chart, load_chart)
from .groups import (FiniteGroup, as_orthogonal, frobenius, hat, rodrigues, so_algebra_basis,
                     vee)
from .haar import (HaarDensity, NumericalError, chart_change_check, density_numeric,
                   integrate_tensor, normalize)
from .orbit import OrbitSpec, covariance, mc_moments, moment
from .quadrature import QuadratureRule
from .reynolds import (dim_invariants_closed, dim_invariants_quadrature, invariant_rank,
                       reynolds_continuous, reynolds_matrix)
from .sampling import (SampleBatch, SamplerConfig, closed_form, closed_form_density,
                       invert_cdf, sample)
from .tensors import Tensor, act, act_batch, as_tensor, outer_power

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "Chart",
    "ChartError",
    "DomainError",
    "FiniteGroup",
    "HaarDensity",
    "NumericalError",
    "OrbitSpec",
    "QuadratureRule",
    "SampleBatch",
    "SamplerConfig",
    "Tensor",
    "act",
    "act_batch",
    "as_orthogonal",
    "as_tensor",
    "builtin_chart",
    "chart_change_check",
    "closed_form",
    "closed_form_density",
    "covariance",
    "density_numeric",
    "dim_invariants_closed",
    "dim_invariants_quadrature",
    "frobenius",
    "hat",
    "integrate_tensor",
    "invariant_rank",
    "invert_cdf",
    "load_chart",
    "mc_moments",
    "moment",
    "normalize",
    "outer_power",
    "parse_chart",
    "print_chart",
    "reynolds_continuous",
    "reynolds_matrix",
    "rodrigues",
    "sample",
    "so_algebra_basis",
    "vee",
]
