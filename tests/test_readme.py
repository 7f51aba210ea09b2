"""The README's quick tour runs, and its commented values hold."""

import ast
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"

# each bare expression of the quick tour, as written there, and its commented value
EXPECTED = {
    "density.C": 8 * np.pi**2,
    "density([0.3, 1.2, -0.5])": np.sin(1.2) / (8 * np.pi**2),
    "batch.matrices.shape": (1000, 3, 3),
    'reynolds_continuous("so3", t)': 4.0 * np.eye(3),
    'reynolds_continuous("so3", t, density)': 4.0 * np.eye(3),
    'dim_invariants_closed("so3", 8)': 91,
    "moment(spec, 1).array": 2.0 * np.eye(3),
}


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Quick tour\s+```python\n(.*?)```", text, re.S).group(1)


def test_quick_tour_values():
    source = quick_tour()
    names: dict = {}
    exec(compile(source, str(README), "exec"), names)
    shown = [ast.get_source_segment(source, s) for s in ast.parse(source).body
             if isinstance(s, ast.Expr)]
    assert shown == list(EXPECTED)
    for expr, want in EXPECTED.items():
        got = eval(expr, names)
        if isinstance(want, (tuple, int)):
            assert got == want, expr
        else:  # reynolds_continuous gives a Tensor
            assert np.allclose(getattr(got, "array", got), want, rtol=1e-13, atol=1e-13), expr
