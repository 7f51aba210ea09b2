"""A NaN input fails every tolerance check instead of slipping through it.

Each check is written ``not err <= tol``; ``err > tol`` is false for NaN,
so the NaN would be accepted and surface later as a NaN result.
"""

import numpy as np
import pytest

from haarkit.groups import FiniteGroup, as_orthogonal, reflection, rodrigues, vee
from haarkit.orbit import OrbitSpec

NAN3 = np.full((3, 3), np.nan)
NAN_AXIS = np.array([np.nan, 0.0, 0.0])

CASES = {
    "from_matrix": lambda: as_orthogonal(NAN3),
    "from_matrix_one_entry": lambda: as_orthogonal(np.diag([1.0, np.nan, 1.0])),
    "vee": lambda: vee(NAN3),
    "rodrigues_axis": lambda: rodrigues(NAN_AXIS, 0.3),
    "reflection_normal": lambda: reflection(NAN_AXIS),
    "orbit_seed_symmetry": lambda: OrbitSpec("so3", "sym2", np.diag([1.0, np.nan, 3.0])),
    "orbit_seed_inf": lambda: OrbitSpec("so3", "natural", np.array([1.0, np.inf, 3.0])),
    "finite_group_from_matrices": lambda: FiniteGroup([np.eye(3), NAN3]),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_nan_input_is_rejected(case):
    with pytest.raises(ValueError):
        case()
