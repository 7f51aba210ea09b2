"""End-to-end command-line checks through main(argv)."""

import decimal
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import haarkit
import haarkit.cli as cli_module
import haarkit.orbit as orbit_module
from haarkit.charts import BUILTIN_NAMES, builtin_chart, load_chart
from haarkit.cli import format_float, main, to_json
from haarkit.groups import lookup_group
from haarkit.haar import BLOCK_ENTRIES, normalize
from haarkit.orbit import OrbitSpec, covariance, mc_moments
from haarkit.sampling import CHART_LAWS, SamplerConfig, closed_form, sample, sample_chunks
from malformed_charts import MALFORMED
from test_charts import EULER_REORDERED, SHEAR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_format_float_17_digits_round_trip():
    for x in (np.pi, 1 / 3, 2e-308, 123456.789, -0.0, 1e17):
        assert float(format_float(x)) == float(x)
    assert format_float(float("nan")) == "NaN"
    assert format_float(-0.0) == "0"


def test_to_json_is_deterministic():
    record = {"a": [1.0, 2.5], "b": True, "c": None, "d": "x\"y\\z", "e": 7}
    text = to_json(record)
    assert text == to_json(record)
    assert json.loads(text) == {"a": [1.0, 2.5], "b": True, "c": None,
                                "d": 'x"y\\z', "e": 7}


def test_density_json(capsys):
    code, out, _ = run(capsys, "density", "--chart", "builtin:so3-euler",
                       "--point", "0,1.5707963267948966,0")
    assert code == 0
    record = json.loads(out)
    assert record["chart"] == "so3_euler"
    assert abs(record["density"] - 1 / (8 * np.pi**2)) < 1e-9


def test_density_closed_form_flag(capsys):
    code, out, _ = run(capsys, "density", "--chart", "builtin:so3-quat",
                       "--point", "1.5707963267948966,1.5707963267948966,1",
                       "--numeric", "--closed-form")
    assert code == 0
    record = json.loads(out)
    assert abs(record["density"] - record["closed_form_density"]) < 1e-9


def test_density_closed_form_alone_records_only_the_closed_form(capsys):
    point = [1.5707963267948966, 1.5707963267948966, 1.0]
    code, out, _ = run(capsys, "density", "--chart", "builtin:so3-quat",
                       "--point", ",".join(map(repr, point)), "--closed-form")
    assert code == 0
    record = json.loads(out)
    assert set(record) == {"chart", "point", "density"}
    assert record["density"] == closed_form("so3-quat").density(point)


def test_density_closed_form_needs_builtin(tmp_path, capsys):
    path = tmp_path / "c.chart"
    path.write_text("chart c { params: a in [0, 2*pi]; group: so(2); "
                    "matrix: [[cos(a), -sin(a)], [sin(a), cos(a)]]; }")
    code, _, err = run(capsys, "density", "--chart", str(path),
                       "--point", "1", "--closed-form")
    assert code == 1
    assert "built-in" in err


def test_density_outside_domain(capsys):
    code, _, err = run(capsys, "density", "--chart", "builtin:so2-angle",
                       "--point", "7")
    assert code == 1
    assert "outside" in err


def test_normalize_constant(capsys):
    code, out, _ = run(capsys, "normalize", "--chart", "builtin:so3-euler")
    assert code == 0
    assert abs(json.loads(out)["C"] - 8 * np.pi**2) < 1e-5


def test_sample_deterministic_output(capsys):
    argv = ("sample", "--group", "so3", "--chart", "euler", "-n", "3",
            "--seed", "17")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rows = [json.loads(line) for line in out1.strip().splitlines()]
    assert len(rows) == 3
    m = np.array(rows[0]["R"])
    assert np.abs(m @ m.T - np.eye(3)).max() < 1e-12


def test_sample_csv_format(capsys):
    code, out, _ = run(capsys, "sample", "--group", "so2", "-n", "2",
                       "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert len(lines[0].split(",")) == 4


def test_sample_quaternion_lines(capsys):
    code, out, _ = run(capsys, "sample", "--group", "so3", "--chart",
                       "quaternion", "-n", "2", "--seed", "5")
    assert code == 0
    q = np.array(json.loads(out.strip().splitlines()[0])["q"])
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12


@pytest.mark.parametrize("group, chart, fmt", [("o3", "polar", "csv"),
                                               ("so3", "quaternion", "json")])
def test_sample_stdout_matches_a_plain_17_digit_rendering(group, chart, fmt, capsys):
    # '%.17g' of x + 0.0, which prints -0.0 as 0, row by row: csv, or the JSON-lines template
    batch = sample(SamplerConfig(group=group, chart=chart, seed=5, count=20000))
    code, out, _ = run(capsys, "sample", "--group", group, "--chart", chart, "--format", fmt,
                       "--seed", "5", "-n", "20000")
    if fmt == "csv":
        lines = [",".join("%.17g" % (x + 0.0) for x in m.ravel()) for m in batch.matrices]
    else:
        lines = ['{"q": [%s]}' % ", ".join("%.17g" % (x + 0.0) for x in q)
                 for q in batch.quaternions]
    assert code == 0
    assert out == "\n".join(lines) + "\n"


MIXED = """chart mixed {
  params: t in [-(pi), 2*pi - pi];
  group: so(2);
  matrix: [
    [cos((t + 1) - 1), -(sin(t) * ((2 + cos(t))^-2 * (2 + cos(t))^2))],
    [sin(t / 2 * 2), cos(t)]
  ];
}"""


def test_normalize_a_chart_of_every_operator(tmp_path, capsys):
    # four binary operators, unary minus, a negative exponent and nesting, each entry the
    # rotation by t's: C is the circle's 2 pi
    path = tmp_path / "mixed.chart"
    path.write_text(MIXED)
    code, out, _ = run(capsys, "normalize", "--chart", str(path))
    assert code == 0
    assert abs(json.loads(out)["C"] - 2 * np.pi) <= 1e-12


def test_check_chart_reports_invariance(capsys):
    for name in BUILTIN_NAMES:
        code, out, _ = run(capsys, "check-chart", "--chart", f"builtin:{name}")
        assert code == 0, name
        record = json.loads(out)
        assert record["status"] == "ok"
        assert record["invariance_max_residual"] < 1e-13, name


EULER = builtin_chart("so3-euler").source()
PARTIAL_COVERS = {
    "half_so2": "chart half { params: a in [0, pi]; group: so(2); "
                "matrix: [[cos(a), -sin(a)], [sin(a), cos(a)]]; }",
    "half_beta_euler": EULER.replace("beta in [0, pi]", "beta in [0, pi/2]"),
    # half of SO(3) twice and the other half not at all: C/8pi^2 = 1, a covering degree of 1
    "twice_half": EULER.replace("alpha in [-pi, pi], beta in [0, pi]",
                                "alpha in [-pi, 3*pi], beta in [0, pi/2]"),
    # O(3), so the -I coset makes E[g] exact: only the degree-2 moment sees it (half SO(2)
    # is the converse, E[g (x) g] exact and E[g] off)
    "untagged_half_beta_euler": EULER.replace("beta in [0, pi]", "beta in [0, pi/2]")
                                     .replace("group: so(3);", ""),
}


@pytest.mark.parametrize("source", PARTIAL_COVERS.values(), ids=PARTIAL_COVERS.keys())
def test_check_chart_detects_partial_cover(source, tmp_path, capsys):
    # each normalizes fine, but its grid's moments of degree 1 and 2 are not Haar's
    path = tmp_path / "partial.chart"
    path.write_text(source)
    code, out, err = run(capsys, "check-chart", "--chart", str(path))
    assert (code, out) == (2, "")
    assert "invariance" in err


@pytest.mark.parametrize("command", ["reynolds", "orbit-moments"])
@pytest.mark.parametrize("source", PARTIAL_COVERS.values(), ids=PARTIAL_COVERS.keys())
def test_averages_on_a_partial_cover_exit_2_with_one_line(command, source, tmp_path, capsys):
    # the grid's moments of degree 1 and 2 miss the exact rule's by 0.25 to 0.64, so the
    # average is not the group's; it used to print with exit 0
    path = tmp_path / "partial.chart"
    path.write_text(source)
    group = load_chart(str(path)).parametrises.tag
    dim = int(group[-1])
    seed = tmp_path / "t.json"
    seed.write_text(json.dumps({"dim": dim, "order": 2, "entries": list(range(dim * dim))}))
    argv = ("--tensor", str(seed)) if command == "reynolds" else ("--diag", "1," * (dim - 1) + "2")
    code, out, err = run(capsys, command, "--group", group, *argv, "--chart", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: chart ") and "covers its group unevenly" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
def test_check_chart_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tolerance, capsys,
                                                                           monkeypatch):
    # refused before any quadrature: nan used to pass every chart, and -1 exited 2
    monkeypatch.setattr(cli_module, "normalize", lambda *a, **k: pytest.fail("normalize ran"))
    code, out, err = run(capsys, "check-chart", "--chart", "builtin:so2-angle",
                         f"--tolerance={tolerance}")
    assert (code, out) == (1, "")
    assert err == f"error: --tolerance must be finite and nonnegative, got {tolerance}\n"


def test_dim_default_methods(capsys):
    code, out, _ = run(capsys, "dim", "--group", "so3", "--order", "8")
    assert code == 0 and out.strip() == "91"
    code, out, _ = run(capsys, "dim", "--group", "so2", "--order", "6")
    assert code == 0 and out.strip() == "20"


@pytest.mark.parametrize("group", ["so2", "o2"])
@pytest.mark.parametrize("order", [1, 3, 11])
def test_dim_table_prints_the_integer(capsys, group, order):
    # odd planar orders have no invariants; the quadrature gives roundoff of 0
    code, out, _ = run(capsys, "dim", "--group", group, "--order", str(order))
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "dim", "--group", group, "--order", str(order), "--format", "json")
    record = json.loads(out)
    assert code == 0 and abs(record["quadrature"]) < 1e-12


def test_dim_so2_order_45_is_roundoff_of_zero(capsys):
    # 2^45 terms carry roundoff above the 1e-3 floor; the scaled slack accepts it
    code, out, _ = run(capsys, "dim", "--group", "so2", "--order", "45")
    assert (code, out) == (0, "0\n")


def test_dim_table_prints_large_counts_in_full(capsys):
    # every digit of the count, and the same integer from both methods
    code, out, _ = run(capsys, "dim", "--group", "so2", "--order", "44")
    assert (code, out) == (0, "2104098963720\n")
    code, out, _ = run(capsys, "dim", "--group", "so3", "--order", "30", "--method", "both")
    assert (code, out) == (0, "439742222071\n439742222071\n")


def test_dim_prints_counts_past_the_int_string_limit(capsys):
    # 4336 digits: str(int) refuses past 4300, and the CLI exited 1 with Python's advice
    count = haarkit.dim_invariants_closed("so3", 9100)
    code, out, err = run(capsys, "dim", "--group", "so3", "--order", "9100")
    assert (code, err) == (0, "")
    assert out.endswith("\n") and len(out) == 4337 and out[:-1].isdigit()
    assert decimal.Decimal(out) == count  # int(out) has the same limit


def test_dim_both_json(capsys):
    code, out, _ = run(capsys, "dim", "--group", "o3", "--order", "6",
                       "--method", "both", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["closed"] == 15
    assert abs(record["quadrature"] - 15) < 1e-6


def test_dim_overflow_exits_2(capsys):
    # 3^700 overflows: a numerical failure, with no traceback and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "dim", "--group", "so3", "--order", "700",
                             "--method", "quadrature")
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: Tr^700 integral is not finite")
    assert "Traceback" not in err and "Warning" not in err


def test_dim_past_any_node_budget_exits_2(capsys):
    # 2^(10^20) is refused before the 10^20 + 2 class nodes are built, not out of memory
    code, out, err = run(capsys, "dim", "--group", "so2", "--order", "100000000000000000000")
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: Tr^100000000000000000000 integral is not finite")
    assert err.count("\n") == 1


@pytest.mark.parametrize("method", [(), ("--method", "both")], ids=["closed", "both"])
@pytest.mark.parametrize("order", ["50001", "1000000000000"])
def test_dim_past_the_closed_form_limit_exits_1_with_one_line(order, method, capsys):
    # the recurrence's time is quadratic in the order (31 s at 300000); with both methods the
    # closed form refuses first, where the trace formula would exit 2
    start = time.perf_counter()
    code, out, err = run(capsys, "dim", "--group", "so3", "--order", order, *method)
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err == (f"error: order {order} exceeds the closed form's limit of "
                   "MAX_CLOSED_ORDER = 50000\n")


def test_reynolds_round_trip(tmp_path, capsys):
    tensor = {"dim": 3, "order": 2,
              "entries": [float(x) for x in range(1, 10)]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor))
    code, out, _ = run(capsys, "reynolds", "--group", "so3",
                       "--tensor", str(path))
    assert code == 0
    record = json.loads(out)
    got = np.array(record["entries"]).reshape(3, 3)
    trace = 1.0 + 5.0 + 9.0
    assert np.abs(got - trace / 3.0 * np.eye(3)).max() < 1e-6


@pytest.mark.parametrize("tensor, message", [
    ({"dim": 3, "order": 30000000, "entries": [1]}, "budget"),
    ({"dim": 1, "order": 3000000, "entries": [1]}, "more than the 64 axes"),
], ids=["past the entry budget", "dim 1 past 64 axes"])
def test_tensor_files_past_the_limits_exit_1_with_one_line(tensor, message, tmp_path, capsys):
    # refused before 3^30000000 is formed, and in haarkit's words rather than numpy's
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor))
    code, out, err = run(capsys, "reynolds", "--group", "so3", "--tensor", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def run_quietly(capsys, *argv):
    """run, with every warning an error: a failure must not print warning text."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


def test_reynolds_of_an_overflowing_tensor_exits_2(tmp_path, capsys):
    # rotated entries of 1e308 overflow: no Infinity (not JSON) on stdout and no warning
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dim": 3, "order": 2, "entries": [1e308] * 9}))
    code, out, err = run_quietly(capsys, "reynolds", "--group", "so3", "--tensor", str(path))
    assert (code, out) == (2, "")
    assert err == ("numerical failure: the group average is not finite: "
                   "the integrand overflows or is NaN\n")


def test_orbit_moments_that_overflow_exit_2(capsys):
    # the second moment of a 1e200 seed is past the float range
    code, out, err = run_quietly(capsys, "orbit-moments", "--group", "so3", "--diag", "1e200,1,1")
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: ") and len(err.splitlines()) == 1


def test_orbit_moments_refuse_a_seed_that_is_not_finite(capsys):
    code, out, err = run_quietly(capsys, "orbit-moments", "--group", "so3", "--diag", "1,inf,3")
    assert (code, out) == (1, "")
    assert err == "error: the orbit seed's entries must be finite\n"


def test_orbit_moments_diag(capsys):
    code, out, _ = run(capsys, "orbit-moments", "--group", "so3",
                       "--diag", "1,2,3", "--nodes", "16")
    assert code == 0
    record = json.loads(out)
    m1 = np.array(record["m1"])
    assert np.abs(m1 - 2.0 * np.eye(3)).max() < 1e-8
    assert np.array(record["m2"]).shape == (3, 3, 3, 3)


def test_orbit_moments_of_o3_on_an_so3_chart(capsys):
    # an SO(3) density averages O(3) over its SO(3) part and the -I coset
    code, out, _ = run(capsys, "orbit-moments", "--group", "o3", "--diag", "1,2,3",
                       "--chart", "builtin:so3-quat", "--nodes", "12")
    assert code == 0
    record = json.loads(out)
    assert np.abs(np.array(record["m1"]) - 2.0 * np.eye(3)).max() < 1e-5
    assert np.array(record["m2"]).shape == (3, 3, 3, 3)


def test_orbit_moments_mc_draws_once(capsys, monkeypatch):
    calls = []

    def counted(config):
        calls.append(config)
        return sample_chunks(config)

    monkeypatch.setattr(cli_module, "sample_chunks", counted)
    monkeypatch.setattr(orbit_module, "sample_chunks", counted)
    code, out, _ = run(capsys, "orbit-moments", "--group", "so3", "--diag", "1,2,3",
                       "--mc", "5000", "--mc-seed", "4", "--mc-chart", "polar")
    assert code == 0
    assert len(calls) == 1
    record = json.loads(out)
    spec = OrbitSpec("so3", "sym2", np.diag([1.0, 2.0, 3.0]))
    config = SamplerConfig(group="so3", chart="polar", seed=4, count=5000)
    for r, key in ((1, "m1"), (2, "m2")):
        mean, stderr = mc_moments(spec, r, config)
        assert np.array_equal(record[f"mc_{key}"], mean.array)
        assert np.array_equal(record["mc_stderr"][key], stderr.array)
    # cov comes from the handler's own m1 and m2, with covariance's values
    assert np.array_equal(record["cov"], covariance(spec).array)


def test_representation_choices_are_the_orbit_table(capsys):
    code, out, _ = run(capsys, "orbit-moments", "--help")
    assert code == 0
    assert "--representation {sym2,natural,tensor}" in out


def test_orbit_moments_needs_one_seed(capsys):
    code, _, err = run(capsys, "orbit-moments", "--group", "so3")
    assert code == 1
    assert "seed-tensor" in err or "diag" in err


def test_chart_change_auto(capsys):
    code, out, _ = run(capsys, "chart-change", "--chart1", "builtin:so3-euler",
                       "--chart2", "builtin:so3-polar", "--point", "0.5,1.0,2.0")
    assert code == 0
    assert json.loads(out)["residual"] < 1e-8


def test_chart_change_shift(capsys):
    code, out, _ = run(capsys, "chart-change", "--chart1", "builtin:so2-angle",
                       "--chart2", "builtin:so2-shifted", "--point", "2.0",
                       "--map", "shift:-3.141592653589793")
    assert code == 0
    assert json.loads(out)["residual"] < 1e-9


def test_chart_change_rejects_double_cover(capsys):
    code, _, err = run(capsys, "chart-change", "--chart1", "builtin:so3-quat",
                       "--chart2", "builtin:so3-euler", "--point", "1,1,1")
    assert code == 1
    assert "double-cover" in err


@pytest.mark.parametrize("chart1, chart2, point, message, map_", [
    ("builtin:so3-quat", "builtin:so3-euler", "1,1,1", "double-cover", "auto"),
    ("builtin:so3-polar", "builtin:so3-quat", "1,1,1", "double-cover", "auto"),
    ("builtin:so2-angle", "builtin:so3-euler", "1", "has (3, 3) matrices, got (2, 2)", "auto"),
    ("builtin:so3-euler", "builtin:so3-polar", "9,9,9", "outside the domain", "auto"),
    ("builtin:so3-euler", "builtin:so3-polar", "1,1", "takes 3 coordinates", "auto"),
    ("builtin:so3-euler", "builtin:so3-polar", "1,1,1", "lands outside chart", "shift:10,0,0"),
    # a one-entry shift used to move all three coordinates, a two-entry one to fail broadcasting
    ("builtin:so3-euler", "builtin:so3-euler", "0.4,1.1,2.0",
     "error: shift has length 1, but chart 'so3_euler' has 3 coordinates", "shift:0.1"),
    ("builtin:so3-euler", "builtin:so3-euler", "0.4,1.1,2.0",
     "error: shift has length 2, but chart 'so3_euler' has 3 coordinates", "shift:1,1"),
    # chart2's contains once broadcast the one-coordinate u + shift over its three axes
    ("builtin:so2-angle", "builtin:so3-euler", "1",
     "error: chart 'so3_euler' takes 3 coordinates, got shape (1,)", "shift:0"),
])
def test_chart_change_refuses_before_quadrature(chart1, chart2, point, message, map_,
                                                monkeypatch, capsys):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("normalize ran before the refusal")

    monkeypatch.setattr("haarkit.haar.normalize", no_quadrature)
    code, out, err = run(capsys, "chart-change", "--chart1", chart1, "--chart2", chart2,
                         "--point", point, "--map", map_)
    assert (code, out) == (1, "")
    assert message in err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("map_", ["auto", "shift:0"])
def test_chart_change_nodes_reach_both_normalizations(map_, monkeypatch, capsys):
    seen = []

    def recording(chart, rule=None):
        seen.append((chart.name, rule))
        return normalize(chart, rule)

    monkeypatch.setattr("haarkit.haar.normalize", recording)
    code, out, _ = run(capsys, "chart-change", "--chart1", "builtin:so2-angle",
                       "--chart2", "builtin:so2-angle", "--point", "2.5", "--map", map_,
                       "--nodes", "8")
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-15
    assert seen == [("so2_angle", 8), ("so2_angle", 8)]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "normalize", "--chart", "builtin:so2-angle",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert abs(json.loads(target.read_text())["C"] - 2 * np.pi) < 1e-8


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "sample")[0] == 1              # missing --group
    assert run(capsys, "nonsense")[0] == 1            # unknown command
    assert run(capsys)[0] == 1                        # no command
    assert run(capsys, "dim", "--group", "so3", "--order", "x")[0] == 1


def test_degenerate_chart_exits_2(tmp_path, capsys):
    path = tmp_path / "d.chart"
    path.write_text("chart d { params: t in [0, 1]; group: so(2); "
                    "matrix: [[1, 0], [0, 1]]; }")
    code, _, err = run(capsys, "normalize", "--chart", str(path))
    assert code == 2
    assert "degenerate" in err


@pytest.mark.parametrize("source", [
    "chart z { params: a in [0, 1/0]; matrix: [[a]]; }",
    "chart z { params: a in [0^-1, 1]; matrix: [[a]]; }",
    "chart z { params: a in [0, 1]; matrix: [[1/0]]; }",
])
def test_constant_division_by_zero_exits_1(source, tmp_path, capsys):
    path = tmp_path / "z.chart"
    path.write_text(source)
    code, out, err = run(capsys, "normalize", "--chart", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, column ") and "cannot be evaluated" in err


@pytest.mark.parametrize("entry", ["arccos(2)*0", "sqrt(0-1)", "sin(0)/0"])
def test_not_a_number_constant_exits_1(entry, tmp_path, capsys):
    path = tmp_path / "nan.chart"
    path.write_text(f"chart nan {{ params: a in [0, 1]; matrix: [[a, {entry}]]; }}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "normalize", "--chart", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, column 1: chart 'nan': constant ")
    assert "cannot be evaluated" in err and "Warning" not in err


def test_density_at_an_infinite_slope_exits_2(tmp_path, capsys):
    path = tmp_path / "rooted.chart"
    path.write_text("chart rooted { params: t in [0, 9]; group: so(2); matrix: "
                    "[[cos(sqrt(t)), -sin(sqrt(t))], [sin(sqrt(t)), cos(sqrt(t))]]; }")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "density", "--chart", str(path), "--point", "0")
    assert (code, out) == (2, "")
    assert "not finite at [0.0]" in err


@pytest.mark.parametrize("label,source", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_chart_diagnostics(label, source, tmp_path, capsys):
    path = tmp_path / "bad.chart"
    path.write_text(source)
    code, out, err = run(capsys, "check-chart", "--chart", str(path))
    assert code != 0
    assert "line" in err and "column" in err


def test_reynolds_default_exact_rule_matches_chart(tmp_path, capsys):
    rng = np.random.default_rng(11)
    tensor = {"dim": 3, "order": 4, "entries": rng.normal(size=81).tolist()}
    path = tmp_path / "t4.json"
    path.write_text(json.dumps(tensor))
    code, exact, _ = run(capsys, "reynolds", "--group", "so3", "--tensor", str(path))
    assert code == 0
    code, chart, _ = run(capsys, "reynolds", "--group", "so3", "--tensor", str(path),
                         "--chart", "builtin:so3-quat")
    assert code == 0
    got = np.array(json.loads(exact)["entries"])
    ref = np.array(json.loads(chart)["entries"])
    assert np.abs(got - ref).max() <= 1e-10
    # --nodes only applies with --chart; the exact rule ignores it
    code, again, _ = run(capsys, "reynolds", "--group", "so3", "--tensor", str(path),
                         "--nodes", "8")
    assert code == 0 and again == exact


def test_chart_not_a_number_on_its_domain_exits_1(tmp_path, capsys):
    path = tmp_path / "nanv.chart"
    path.write_text("chart nanv { params: t in [0, 1]; group: so(2); "
                    "matrix: [[sqrt(t-2), 0], [0, sqrt(t-2)]]; }")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "normalize", "--chart", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, column 1: chart 'nanv' is not orthogonal")
    assert "nan" in err and "Warning" not in err


@pytest.mark.parametrize("entry, prefix", [
    ("-sin(a) * (1e308*10)", "line 1, column 1: chart 'big': constant "),
    ("1e999", "line 1, column 47: constant "),  # the parser points at the literal
    ("a * (1e308*10 - 1e308*10)", "line 1, column 1: chart 'big': constant "),
], ids=["-sin(a) * (1e308*10)", "1e999", "a * (1e308*10 - 1e308*10)"])
def test_non_finite_constant_exits_1(entry, prefix, tmp_path, capsys):
    path = tmp_path / "big.chart"
    path.write_text(f"chart big {{ params: a in [0, 1]; matrix: [[a, {entry}]]; }}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "normalize", "--chart", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: " + prefix)
    assert "is not finite" in err and "Warning" not in err


@pytest.mark.parametrize("name", ["euler.chart", "so3-euler"])
def test_auto_map_picks_the_inverse_by_builtin_tag_not_chart_name(name, tmp_path, monkeypatch,
                                                                  capsys):
    # a user chart named so3_euler, even in a file named like the tag, is no built-in: it is
    # inverted as itself, (beta, alpha, gamma), where the built-in order would miss the density
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(EULER_REORDERED)
    code, out, _ = run(capsys, "chart-change", "--chart1", "builtin:so3-euler",
                       "--chart2", name, "--point", "0.4,1.1,2.0", "--nodes", "8")
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-15


AUTO_MAP_ARGVS = [
    ["--chart1", "builtin:so3-euler", "--chart2", "builtin:so3-polar", "--point", "0.4,1.1,2.0"],
    ["--chart1", "builtin:so3-polar", "--chart2", "builtin:so3-euler", "--point", "0.4,0.3,2.0"],
    ["--chart1", "builtin:so2-angle", "--chart2", "builtin:so2-shifted", "--point", "2.5"],
]


def test_chart_density_outputs_do_not_depend_on_the_blas_thread_count():
    # C is summed by numpy in a fixed order, so no output built on it follows the BLAS threads
    argvs = [["normalize", "--chart", "builtin:so3-euler"]]
    argvs += [["chart-change", *argv, "--map", "auto"] for argv in AUTO_MAP_ARGVS]
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(haarkit.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads)
        outputs[threads] = [subprocess.run([sys.executable, "-m", "haarkit.cli", *argv],
                                           capture_output=True, env=env, check=True).stdout
                            for argv in argvs]
    assert outputs["1"] == outputs["2"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_sample_output_does_not_depend_on_the_cpu_count():
    # the sampler runs its row blocks on one thread per CPU the process may use
    env = dict(os.environ, PYTHONPATH=str(Path(haarkit.__file__).parents[1]))
    cpu = min(os.sched_getaffinity(0))

    def child(*argv, pinned):
        return subprocess.run([sys.executable, *argv], capture_output=True, env=env, check=True,
                              preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None,
                              timeout=300).stdout

    assert child("-c", "from haarkit.sampling import WORKERS; print(WORKERS)", pinned=True) == b"1\n"
    argv = ("-m", "haarkit.cli", "sample", "--group", "o3", "--chart", "quaternion",
            "-n", "100003", "--seed", "5", "--format", "csv")
    assert child(*argv, pinned=True) == child(*argv, pinned=False)


@pytest.mark.parametrize("argv,expected", zip(AUTO_MAP_ARGVS, [
    '{"chart1": "so3_euler", "chart2": "so3_polar", "point": [0.40000000000000002, '
    '1.1000000000000001, 2], "residual": 3.4694469519536142e-18}\n',
    '{"chart1": "so3_polar", "chart2": "so3_euler", "point": [0.40000000000000002, '
    '0.29999999999999999, 2], "residual": 1.3877787807814457e-17}\n',
    '{"chart1": "so2_angle", "chart2": "so2_shifted", "point": [2.5], '
    '"residual": 0}\n',
]))
def test_auto_map_to_builtin_targets_keeps_its_bytes(argv, expected, capsys):
    code, out, _ = run(capsys, "chart-change", *argv, "--map", "auto")
    assert (code, out) == (0, expected)
    assert json.loads(out)["residual"] <= 1e-15


def test_auto_map_to_a_target_singular_at_the_image_exits_1(capsys):
    # psi = pi/2 is a rotation about e3, where Euler's beta = 0 leaves alpha + gamma only
    code, out, err = run(capsys, "chart-change", "--chart1", "builtin:so3-polar",
                         "--chart2", "builtin:so3-euler", "--point", "0,1.5707963267948966,1")
    assert (code, out) == (1, "")
    assert "chart 'so3_euler' is singular at" in err and "full column rank" in err


def test_auto_map_to_a_sqrt_chart(tmp_path, capsys):
    # t = alpha^2, so Dphi = 2 alpha and k2(t) = 1 / (2 sqrt(t) C2): the residual is |1/C1 - 1/C2|,
    # with C2 from quadrature of the integrable 1 / (2 sqrt(t))
    path = tmp_path / "root.chart"
    path.write_text("chart root { params: t in [0, 4*pi^2]; group: so(2); "
                    "matrix: [[cos(sqrt(t)), -sin(sqrt(t))], [sin(sqrt(t)), cos(sqrt(t))]]; }")
    c1, c2 = (normalize(load_chart(spec)).C for spec in ("builtin:so2-angle", str(path)))
    for point in ("2.5", "0"):  # the image of 0 is t = 4 pi^2; t = 0 has an infinite slope
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "chart-change", "--chart1", "builtin:so2-angle",
                               "--chart2", str(path), "--point", point)
        assert code == 0
        assert json.loads(out)["residual"] == pytest.approx(abs(1 / c1 - 1 / c2), rel=1e-12)


@pytest.mark.parametrize("chart2", ["builtin:so3-quat", "quat.chart"])
def test_auto_map_refuses_a_double_cover_target(chart2, tmp_path, monkeypatch, capsys):
    # test_chart_change_rejects_double_cover has the quaternion chart as the source
    monkeypatch.chdir(tmp_path)
    (tmp_path / "quat.chart").write_text(builtin_chart("so3-quat").source())
    code, out, err = run(capsys, "chart-change", "--chart1", "builtin:so3-polar", "--chart2", chart2,
                         "--point", "1,1,1", "--nodes", "8")
    assert (code, out) == (1, "")
    assert "double-cover" in err


def test_untagged_chart_not_finite_on_its_domain_exits_1(tmp_path, capsys):
    path = tmp_path / "u.chart"
    path.write_text("chart u { params: t in [0, 1]; matrix: [[sqrt(t-2), 0], [0, 1]]; }")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "normalize", "--chart", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1, column 1: chart 'u' is not finite on its domain")
    assert "nan" in err and "Warning" not in err


@pytest.mark.parametrize("source,start", [
    (SHEAR, "error: line 1, column 1: chart 'shear' is not orthogonal on its domain"),
    ("chart col { params: t in [0, 1]; matrix: [[t], [1], [0]]; }",
     "error: chart 'col' has (3, 1) matrices: no group, no Haar density"),
    ("chart d { params: t in [0, 1]; matrix: [[" + "(" * 300 + "t" + ")" * 300 + "]]; }",
     "error: line 1, column 141: expression nested deeper than 100 levels"),
    ("chart bad {\n  params: t in [0, 1];\n  matrix: [[t +]];\n}\n",
     "error: line 3, column 16: expected an expression, found ']'"),
], ids=["shear", "3x1", "too deep", "dangling operator"])
def test_chart_refusals_exit_1_with_one_line(source, start, tmp_path, capsys):
    path = tmp_path / "c.chart"
    path.write_text(source)
    code, out, err = run(capsys, "normalize", "--chart", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(start)
    assert "Last 2 dimensions" not in err


def test_reynolds_averages_only_the_group_of_the_chart(tmp_path, capsys):
    (tmp_path / "t.json").write_text(json.dumps({"dim": 2, "order": 2, "entries": [1, 2, 3, 4]}))
    (tmp_path / "refl.chart").write_text(
        "chart refl { params: t in [-pi, pi]; group: o(2); "
        "matrix: [[cos(t), sin(t)], [sin(t), -cos(t)]]; }")
    (tmp_path / "angle.chart").write_text(
        builtin_chart("so2-angle").source().replace("group: so(2);", ""))
    for chart, group in (("refl", "so2"), ("angle", "so2")):
        code, out, err = run(capsys, "reynolds", "--group", group, "--tensor", str(tmp_path / "t.json"),
                             "--chart", str(tmp_path / f"{chart}.chart"))
        assert (code, out) == (1, "")
        assert err.startswith("error: a density of o(2) chart ") and err.endswith(" cannot average so2\n")
    code, out, _ = run(capsys, "reynolds", "--group", "o2", "--tensor", str(tmp_path / "t.json"),
                       "--chart", str(tmp_path / "angle.chart"))
    assert code == 0
    assert np.abs(np.array(json.loads(out)["entries"]) - [2.5, 0, 0, 2.5]).max() <= 1e-12


@pytest.mark.parametrize("group,chart,name", [
    ("so3", "so2-angle", "so2_angle"), ("o3", "so2-angle", "so2_angle"),
    ("so2", "so3-euler", "so3_euler"), ("o2", "so3-quat", "so3_quat"),
])
def test_averages_refuse_a_chart_of_another_dimension_with_one_line(group, chart, name, tmp_path,
                                                                    capsys):
    dim = int(group[-1])
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"dim": dim, "order": 2, "entries": np.eye(dim).ravel().tolist()}))
    spelling = "so(3)" if chart.startswith("so3") else "so(2)"
    expected = f"error: a density of {spelling} chart '{name}' cannot average {group}\n"
    for argv in (("reynolds", "--tensor", str(path)), ("orbit-moments", "--diag", "1," * (dim - 1) + "2")):
        code, out, err = run(capsys, *argv, "--group", group, "--chart", f"builtin:{chart}", "--nodes", "4")
        assert (code, out, err) == (1, "", expected)


def test_check_chart_checks_moments_on_an_untagged_chart(tmp_path, capsys):
    # an untagged 3x3 chart parametrises O(3): its grid, with the -I coset, against O(3)'s exact rule
    path = tmp_path / "euler.chart"
    path.write_text(EULER.replace("group: so(3);", ""))
    code, out, _ = run(capsys, "check-chart", "--chart", str(path))
    assert code == 0
    record = json.loads(out)
    assert (record["group"], record["status"]) == ("none", "ok")
    assert record["invariance_max_residual"] < 1e-13
    assert record["invariance_tolerance"] == 1e-6


def test_closed_stdout_exits_1_without_a_traceback():
    # `haarkit sample ... | head -c 10`: the reader closes the pipe long before the output ends
    env = dict(os.environ, PYTHONPATH=str(Path(haarkit.__file__).parents[1]))
    with subprocess.Popen([sys.executable, "-m", "haarkit.cli", "sample", "--group", "so3",
                           "-n", "20000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read().decode()
    assert head.startswith(b'{"R": [[')
    assert code == 1
    assert err.splitlines() == ["error: stdout was closed before the output was written"]


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_out_path_that_cannot_be_written_exits_1(where, tmp_path, capsys):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "dim", "--group", "so3", "--order", "2", "--out", str(target))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_memory_error_exits_1_with_one_line(monkeypatch, capsys):
    def too_big(config):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli_module, "sample_chunks", too_big)
    code, out, err = run(capsys, "sample", "--group", "so3", "-n", "10000000000")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: out of memory: Unable to allocate 74.5 GiB for an array"]


class _Discard(io.TextIOBase):
    """A text stream that drops what is written to it."""

    def write(self, text):
        return len(text)


def test_sample_holds_one_block_of_text_beside_its_batch(monkeypatch):
    # 10^5 quaternion lines are 9.4 MB of text; main writes each row block's text as it comes
    argv = ["sample", "--group", "so3", "--chart", "quaternion", "-n", "100000"]
    monkeypatch.setattr(sys, "stdout", _Discard())
    assert main(argv[:-1] + ["10"]) == 0  # warm-up: imports and caches
    batch = sample(SamplerConfig(group="so3", chart="quaternion", count=100000))
    batch_bytes = batch.coordinates.nbytes + batch.matrices.nbytes + batch.quaternions.nbytes
    del batch
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - batch_bytes < 8 * 2**20, (peak, batch_bytes)


def traced_peak(argv: list[str]) -> int:
    """tracemalloc peak of main(argv), after a warm-up run of argv with its count set to 10."""
    main([*argv[:-1], "10"])  # imports and caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_holds_one_chunk_at_any_count(monkeypatch):
    # the whole 3 * 10^5 batch alone is 27.5 MiB; each chunk is formatted as it is drawn
    monkeypatch.setattr(sys, "stdout", _Discard())
    peak = traced_peak(["sample", "--group", "so3", "-n", "300000"])
    assert peak < 12 * 2**20, peak


def test_orbit_moments_mc_holds_one_chunk_of_orbit_points(monkeypatch):
    # 3 * 10^5 draws: all (N, 9) points are 20.6 MiB (27.4 MiB peak when they were held, 68.7
    # MiB with the whole batch and a second act); both orders merge each chunk's moments
    monkeypatch.setattr(sys, "stdout", _Discard())
    peak = traced_peak(["orbit-moments", "--group", "so3", "--diag", "1,2,3", "--mc", "300000"])
    assert peak < 14 * 2**20, peak


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sample_out_file_gets_the_stdout_bytes(fmt, tmp_path, capsys):
    # three chunks of draws and seven rows, each chunk many format blocks
    rows = 3 * len(next(sample_chunks(SamplerConfig(group="o3", count=2**40)))) + 7
    argv = ["sample", "--group", "o3", "--chart", "polar", "-n", str(rows), "--format", fmt]
    code, out, _ = run(capsys, *argv)
    target = tmp_path / "rows.txt"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert code == 0 and out.count("\n") == rows
    assert target.read_bytes() == out.encode("utf-8")


def test_endless_sample_into_a_closed_pipe_exits_1_at_once_and_leaves_no_thread():
    # `haarkit sample --group so3 -n 100000000 | head -c 100`: drawn whole, the batch would
    # be 9.6 GB; streamed, the first chunk's text meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(Path(haarkit.__file__).parents[1]))
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "haarkit.cli", "sample", "--group", "so3",
                           "-n", "100000000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        head = proc.stdout.read(100)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read().decode()
    assert len(head) == 100 and time.perf_counter() - start < 30
    assert code == 1
    assert err.splitlines() == ["error: stdout was closed before the output was written"]
    # in process: every chunk's threads are joined before it is formatted
    read, write = os.pipe()
    os.close(read)
    before = threading.active_count()
    with open(write, "w", encoding="utf-8") as closed, redirect_stdout(closed):
        assert main(["sample", "--group", "so3", "-n", "100000000"]) == 1
    assert threading.active_count() == before


@pytest.mark.parametrize("argv", [["-n", "0"], ["--chart", "nonsense"], ["--seed", "-1"],
                                  ["--chart", "builtin:"]])
def test_refused_sample_makes_no_out_file(argv, tmp_path, capsys):
    # the refusals run before main opens --out, so no empty or truncated file is left
    target = tmp_path / "rows.json"
    code, out, err = run(capsys, "sample", "--group", "so3", *argv, "--out", str(target))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not target.exists()


def test_orbit_moments_seed_tensor_file_prints_the_diag_bytes(tmp_path, capsys):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"dim": 3, "order": 2,
                                "entries": np.diag([1.0, 2.0, 3.0]).ravel().tolist()}))
    code, from_file, _ = run(capsys, "orbit-moments", "--group", "so3", "--seed-tensor", str(path))
    assert code == 0
    code, from_diag, _ = run(capsys, "orbit-moments", "--group", "so3", "--diag", "1,2,3")
    assert code == 0
    assert (hashlib.sha256(from_file.encode()).hexdigest()
            == hashlib.sha256(from_diag.encode()).hexdigest())
    code, out, err = run(capsys, "orbit-moments", "--group", "so3", "--seed-tensor", str(path),
                         "--diag", "1,2,3")
    assert (code, out) == (1, "")
    assert "exactly one of --seed-tensor or --diag" in err


@pytest.mark.parametrize("extra", [(), ("--chart", "builtin:so3-euler", "--nodes", "8"),
                                   ("--mc", "10")], ids=["exact rule", "chart", "mc"])
def test_orbit_moments_of_an_order_0_seed(tmp_path, capsys, extra):
    path = tmp_path / "t0.json"
    path.write_text(json.dumps({"dim": 3, "order": 0, "entries": [2.0]}))
    code, out, err = run_quietly(capsys, "orbit-moments", "--group", "so3",
                                 "--representation", "tensor", "--seed-tensor", str(path), *extra)
    assert (code, err, len(out.splitlines())) == (0, "", 1)
    record = json.loads(out)
    assert (record["m1"], record["m2"], record["cov"]) == (2, 4, 0)
    if extra == ("--mc", "10"):
        assert (record["mc_m1"], record["mc_m2"], record["mc_stderr"]) == (2, 4, {"m1": 0, "m2": 0})


def test_malformed_point_and_unknown_map_exit_1(capsys):
    code, out, err = run(capsys, "density", "--chart", "builtin:so3-euler", "--point", "1,x,2")
    assert (code, out) == (1, "")
    assert "could not parse" in err
    code, out, err = run(capsys, "chart-change", "--chart1", "builtin:so2-angle",
                         "--chart2", "builtin:so2-shifted", "--point", "2.0", "--map", "rotate")
    assert (code, out) == (1, "")
    assert "unknown --map 'rotate'" in err


def test_nodes_above_the_cap_exit_1_with_one_line(capsys):
    code, out, err = run(capsys, "normalize", "--chart", "builtin:so2-angle", "--nodes", "20000")
    assert (code, out) == (1, "")
    assert err == "error: 20000 quadrature nodes per axis exceed the limit of 1024\n"


def test_grid_past_the_node_limit_exits_1_with_one_line(capsys):
    code, out, err = run(capsys, "normalize", "--chart", "builtin:so3-euler", "--nodes", "600")
    assert (code, out) == (1, "")
    assert err == ("error: a grid of 600 x 600 x 600 = 216000000 quadrature nodes exceeds "
                   "the limit of 16777216\n")


def test_unknown_builtin_chart_prints_one_unquoted_line(capsys):
    code, out, err = run(capsys, "normalize", "--chart", "builtin:nope")
    assert (code, out) == (1, "")
    assert err == ("error: unknown built-in chart 'nope'; available: "
                   "so2-angle, so2-shifted, so3-euler, so3-polar, so3-quat\n")


@pytest.mark.parametrize("group", ["so2", "o2", "so3", "o3"])
def test_every_sample_chart_spelling_gives_the_same_bytes(group, capsys):
    # the default chart, its alias, its tag, and builtin: before either of the last two
    tag = lookup_group(group).charts[0]
    alias = CHART_LAWS[tag][0]
    outs = set()
    for chart in ("", alias, tag, f"builtin:{tag}", f"builtin:{alias}"):
        code, out, err = run(capsys, "sample", "--group", group, "--chart", chart, "-n", "2",
                             "--seed", "9")
        assert (code, err) == (0, ""), chart
        outs.add(out)
    assert len(outs) == 1 and len(next(iter(outs)).splitlines()) == 2


def test_sampler_refusal_lists_each_chart_with_its_alias(capsys):
    code, out, err = run(capsys, "sample", "--group", "so3", "--chart", "POLAR")
    assert (code, out) == (1, "")
    assert err == ("error: chart 'POLAR' does not sample group 'so3'; "
                   "valid: so3-euler (euler), so3-polar (polar), so3-quat (quaternion)\n")
