"""Workloads: seeded inputs and the fixed operation list of each workload.

``generate_inputs`` writes everything the program reads (chart files,
tensor files and a ``params.json`` of points, seeds and diagonal seeds)
from the workload seed alone.  The CLI workloads turn those into argv
lists here; the library workload's calls live in ``child_lib.py`` and read
the same ``params.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BUILTINS = ("so2-angle", "so2-shifted", "so3-euler", "so3-polar", "so3-quat")

# Rows per CLI sample op.  Output formatting already takes most of each op
# at this size (3-6 MB of stdout), and ten such ops fit one run.
SAMPLE_ROWS = 30_000
MC_ROWS = 100_000
# Rows per library sample call.
LIBRARY_ROWS = 1_000_000

ZYZ_CHART = """chart zyz_euler {{
  params: a in [{a0}, {a0} + 2*pi], b in [0, pi], c in [{c0}, {c0} + 2*pi];
  group: so(3);
  matrix: [
    [cos(a)*cos(b)*cos(c) - sin(a)*sin(c), -cos(a)*cos(b)*sin(c) - sin(a)*cos(c), cos(a)*sin(b)],
    [sin(a)*cos(b)*cos(c) + cos(a)*sin(c), -sin(a)*cos(b)*sin(c) + cos(a)*cos(c), sin(a)*sin(b)],
    [-sin(b)*cos(c), sin(b)*sin(c), cos(b)]
  ];
}}
"""

HALF_TURN_CHART = """chart half_turn {{
  params: t in [{t0}, {t0} + pi];
  group: so(2);
  matrix: [
    [cos(2*t), -sin(2*t)],
    [sin(2*t), cos(2*t)]
  ];
}}
"""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the reference check its stdout must pass."""

    id: str
    argv: tuple[str, ...]
    check: str
    expect: dict = field(default_factory=dict)
    rows: int = 0  # rotations the op produces, for samples_per_s


def generate_inputs(seed: int, directory: Path) -> dict:
    """Write the seeded inputs of every workload into ``directory``."""
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)

    def draw(lo, hi, digits=6):
        return round(float(rng.uniform(lo, hi)), digits)

    a0, c0, t0 = draw(-math.pi, math.pi), draw(-math.pi, math.pi), draw(-math.pi, math.pi)
    (directory / "zyz.chart").write_text(ZYZ_CHART.format(a0=a0, c0=c0), encoding="utf-8")
    (directory / "half_turn.chart").write_text(HALF_TURN_CHART.format(t0=t0), encoding="utf-8")
    edge = 0.15  # keep points off the domain boundary
    points = {
        "so3-euler": [draw(-3.0, 3.0), draw(edge, math.pi - edge), draw(-3.0, 3.0)],
        "so3-polar": [draw(edge, 2 * math.pi - edge), draw(-1.4, 1.4), draw(0.3, math.pi - edge)],
        "so3-quat": [draw(0.3, math.pi - 0.3), draw(edge, math.pi - edge), draw(edge, 2 * math.pi - edge)],
        "zyz": [a0 + draw(edge, 2 * math.pi - edge), draw(edge, math.pi - edge),
                c0 + draw(edge, 2 * math.pi - edge)],
        "half-turn": [t0 + draw(edge, math.pi - edge)],
        "change-euler": [draw(-3.0, 3.0), draw(0.3, math.pi - 0.3), draw(-3.0, 3.0)],
        "change-so2": [draw(edge, 2 * math.pi - edge)],
    }
    tensors = {}
    for name, dim, order in (("t3_4", 3, 4), ("t3_6", 3, 6), ("t2_6", 2, 6)):
        entries = rng.normal(size=dim**order).tolist()
        text = json.dumps({"dim": dim, "order": order, "entries": entries})
        (directory / f"{name}.json").write_text(text, encoding="utf-8")
        tensors[name] = {"dim": dim, "order": order}
    params = {
        "seed": seed,
        "dir": str(directory),
        "zyz": str(directory / "zyz.chart"),
        "half_turn": str(directory / "half_turn.chart"),
        "points": points,
        "tensors": tensors,
        "diag": {g: sorted(draw(-2.0, 3.0, 3) for _ in range(3)) for g in ("so3", "o3", "mc")},
        "sample_seeds": {f"{g}/{c}": int(rng.integers(2**32))
                         for g in ("so2", "o2", "so3", "o3")
                         for c in ("angle", "shifted", "euler", "polar", "quaternion")},
        "mc_seed": int(rng.integers(2**32)),
    }
    (directory / "params.json").write_text(json.dumps(params, indent=1), encoding="utf-8")
    return params


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _chart_ref(params: dict, kind: str) -> str:
    return {"zyz": params["zyz"], "half-turn": params["half_turn"]}.get(kind, f"builtin:{kind}")


def cli_quadrature(params: dict) -> list[Op]:
    """Short ops dominated by interpreter start-up and the chart kernel.

    Each op builds a Gauss-Legendre grid and runs evaluate_many and
    jacobian_many (1 + 2d chart evaluations per batch) and det M on it;
    output is under 5 KB, so serialization does almost nothing.  Changes to
    the kernel, the grid cache or import time show here.
    """
    ops = []
    for nodes in (32, 48):
        for kind in BUILTINS + ("zyz", "half-turn"):
            dims = 1 if kind.startswith("so2") or kind == "half-turn" else 3
            ops.append(Op(f"normalize/{kind}/{nodes}",
                          ("normalize", "--chart", _chart_ref(params, kind), "--nodes", str(nodes)),
                          "normalize", {"chart": kind, "nodes_per_axis": [nodes] * dims}))
    for kind, flags, values in (("so3-euler", (), 1),
                                ("so3-euler", ("--numeric", "--closed-form"), 2),
                                ("so3-polar", ("--numeric", "--closed-form"), 2),
                                ("so3-quat", ("--closed-form",), 1),
                                ("zyz", (), 1),
                                ("half-turn", (), 1)):
        point = params["points"][kind]
        ops.append(Op(f"density/{kind}/{'+'.join(f[2:] for f in flags) or 'numeric'}",
                      ("density", "--chart", _chart_ref(params, kind), f"--point={_csv(point)}", *flags),
                      "density", {"chart": kind, "point": point, "values": values}))
    for kind in ("so3-euler", "so3-polar", "so3-quat", "zyz", "half-turn"):
        ops.append(Op(f"check-chart/{kind}", ("check-chart", "--chart", _chart_ref(params, kind)),
                      "check-chart", {"chart": kind}))
    point = params["points"]["change-euler"]
    ops.append(Op("chart-change/auto",
                  ("chart-change", "--chart1", "builtin:so3-euler", "--chart2", "builtin:so3-polar",
                   f"--point={_csv(point)}", "--map", "auto"),
                  "chart-change", {"chart": "so3-euler", "point": point}))
    point = params["points"]["change-so2"]
    ops.append(Op("chart-change/shift",
                  ("chart-change", "--chart1", "builtin:so2-angle", "--chart2", "builtin:so2-shifted",
                   f"--point={_csv(point)}", "--map", f"shift:{-math.pi!r}"),
                  "chart-change", {"chart": "so2-angle", "point": point}))
    for group in ("so3", "o3"):
        diag = params["diag"][group]
        ops.append(Op(f"orbit-moments/{group}",
                      ("orbit-moments", "--group", group, f"--diag={_csv(diag)}"),
                      "orbit", {"diag": diag}))
    return ops


# Every group x chart once; formats alternate so that each group and each
# three-dimensional chart is printed both ways.
SAMPLE_MATRIX = (("so2", "angle", "json"), ("so2", "shifted", "csv"),
                 ("o2", "angle", "csv"), ("o2", "shifted", "json"),
                 ("so3", "euler", "json"), ("so3", "polar", "csv"), ("so3", "quaternion", "json"),
                 ("o3", "euler", "csv"), ("o3", "polar", "json"), ("o3", "quaternion", "csv"))


def cli_sample(params: dict) -> list[Op]:
    """Sampling ops whose time goes mostly to float formatting of stdout.

    The samplers take about a tenth of each op; the rest is start-up and
    Python formatting of megabytes of json or csv.  This is the only
    workload where serialization dominates, and the chart kernel does
    almost nothing here.  The Monte Carlo orbit op adds the mc_moments path.
    """
    ops = []
    for group, chart, fmt in SAMPLE_MATRIX:
        seed = params["sample_seeds"][f"{group}/{chart}"]
        quaternion_lines = group == "so3" and chart == "quaternion" and fmt == "json"
        ops.append(Op(f"sample/{group}/{chart}/{fmt}",
                      ("sample", "--group", group, "--chart", chart, "-n", str(SAMPLE_ROWS),
                       "--seed", str(seed), "--format", fmt),
                      "sample-quat" if quaternion_lines else "sample",
                      {"group": group, "dim": int(group[-1]), "count": SAMPLE_ROWS},
                      rows=SAMPLE_ROWS))
    diag = params["diag"]["mc"]
    ops.append(Op("orbit-moments/so3/mc",
                  ("orbit-moments", "--group", "so3", f"--diag={_csv(diag)}",
                   "--mc", str(MC_ROWS), "--mc-seed", str(params["mc_seed"])),
                  "orbit", {"diag": diag}))
    return ops


def cli_averaging(params: dict) -> list[Op]:
    """Reynolds averaging, where act_batch over the 32^3 grid dominates.

    Outputs are small, so a faster averaging engine shows here and not in
    cli-sample.  One order-4 op integrates in the Euler chart instead of the
    default quaternion chart.  The dimension ops add the trace-formula
    quadrature.
    """
    ops = []
    for name, group, chart in (("t3_4", "so3", ""), ("t3_4", "so3", "so3-euler"),
                               ("t3_4", "o3", ""), ("t3_6", "so3", ""), ("t3_6", "o3", ""),
                               ("t2_6", "o2", "")):
        path = Path(params["dir"]) / f"{name}.json"
        tensor = params["tensors"][name]
        ops.append(Op(f"reynolds/{group}/order{tensor['order']}/{chart or 'default'}",
                      ("reynolds", "--group", group, "--tensor", str(path),
                       *(("--chart", f"builtin:{chart}") if chart else ())),
                      "reynolds", {**tensor, "group": group,
                                   "tensor_json": path.read_text(encoding="utf-8")}))
    for group, order in (("so3", 8), ("o3", 7), ("o3", 8)):
        ops.append(Op(f"dim/{group}/{order}",
                      ("dim", "--group", group, "--order", str(order), "--method", "both",
                       "--format", "json"),
                      "dim", {"group": group, "order": order}))
    return ops


# Workload name -> function that makes its op list.  The library workload has no argv list:
# its calls run in one child process (child_lib.py), whose docstring says
# why it was chosen.
WORKLOADS = {
    "cli-quadrature": cli_quadrature,
    "cli-sample": cli_sample,
    "cli-averaging": cli_averaging,
    "library": None,
}
