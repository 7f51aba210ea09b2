"""A NaN input fails every tolerance check instead of slipping through it.

Each check is written ``not err <= tol``; ``err > tol`` is false for NaN,
so the NaN would be accepted and surface later as a NaN result.
"""

import numpy as np
import pytest

from haarkit.groups import (GroupElement, Quaternion, quat_to_rotation, reflection, rodrigues,
                            rotation_to_quat, vee)
from haarkit.orbit import OrbitSpec
from haarkit.reynolds import FiniteGroup
from haarkit.sampling import invert_cdf

NAN3 = np.full((3, 3), np.nan)
NAN_AXIS = np.array([np.nan, 0.0, 0.0])

CASES = {
    "from_matrix": lambda: GroupElement.from_matrix(NAN3),
    "from_matrix_one_entry": lambda: GroupElement.from_matrix(np.diag([1.0, np.nan, 1.0])),
    "rotation_to_quat": lambda: rotation_to_quat(NAN3),
    "vee": lambda: vee(NAN3),
    "rodrigues_axis": lambda: rodrigues(NAN_AXIS, 0.3),
    "reflection_normal": lambda: reflection(NAN_AXIS),
    "quaternion_axis": lambda: Quaternion.from_axis_angle(NAN_AXIS, 0.3),
    "quat_to_rotation": lambda: quat_to_rotation(np.full(4, np.nan)),
    "orbit_seed_symmetry": lambda: OrbitSpec("so3", "sym2", np.diag([1.0, np.nan, 3.0])),
    "finite_group_from_matrices": lambda: FiniteGroup.from_matrices([np.eye(3), NAN3]),
    # elements built without from_matrix reach the identity, closure and inverse gaps
    "finite_group_gaps": lambda: FiniteGroup((GroupElement(np.eye(3)), GroupElement(NAN3))),
    "invert_cdf_target": lambda: invert_cdf(lambda x: x, np.nan, (0.0, 1.0)),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_nan_input_is_rejected(case):
    with pytest.raises(ValueError):
        case()
