"""Command-line interface.

Exit codes: 0 success, 1 usage or input error (bad flags, malformed chart
or tensor files, points outside domains), an ``--out`` path that cannot be
written, a request larger than memory, or a stdout closed before the
output was written, 2 numerical failure (degenerate normalization,
non-convergence, under-resolved quadrature, a ``--chart`` whose grid
covers its group unevenly).  JSON output carries 17 significant digits so
values round-trip through text; the ``dim`` table prints integers.  All
angles are radians.  Identical argv (and seed) produce byte-identical
stdout.

Every float prints as format_float prints it: ``'%.17g'``, with "0" for
-0.0 and "NaN" for NaN.  The exception is ``reynolds``, which prints
Tensor.to_json: json.dumps, so shortest-repr floats ("0.0", "1.5") with
-0.0 kept.  ``sample`` output goes through format_rows, which
keeps those bytes but builds the digits of 1e-4 <= |x| < 1 as integers in
numpy and leaves only other values, rounding carries and near-ties to
format_float.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .chartlang import ChartError
from .charts import DomainError, load_chart
from .groups import GROUPS, lookup_group
from .haar import NumericalError, chart_change_check, normalize
from .orbit import REPRESENTATIONS, OrbitSpec, mc_moments, moment
from .reynolds import (INTEGER_SLACK, dim_invariants_closed, dim_invariants_quadrature, moment_gap,
                       reynolds_continuous)
from .sampling import SamplerConfig, closed_form, sample
from .tensors import Tensor, outer_power

JSON_DIGITS = 17
_SLOT = f"%.{JSON_DIGITS}g"


# ---------------------------------------------------------------------------
# Deterministic serialization


def format_float(value: float) -> str:
    if value != value:
        return "NaN"
    text = format(float(value), f".{JSON_DIGITS}g")
    return "0" if text == "-0" else text


def to_json(obj) -> str:
    """Serialize with JSON_DIGITS significant digits so output is byte-stable."""
    if isinstance(obj, dict):
        items = ", ".join(f'"{k}": {to_json(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(to_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


# The decimal exponents k the numpy path of format_rows prints, and 10^(16-k)
# for each: 17 significant digits of 1e-4 <= |x| < 1 are |x| 10^(16-k)
# rounded.  Every 10^(16-k) is an exact double (5^20 < 2^53), so Dekker's
# two-product below gives |x| 10^(16-k) exactly as a sum of two doubles.
_EXPONENTS = range(-4, 0)
_SCALES = np.array([float(10 ** (16 - k)) for k in _EXPONENTS])
# "%s%s" slot prefixes of the numpy path, indexed by 4 * (x < 0) + k + 4.
_PREFIXES = np.array([sign + "0." + "0" * (-k - 1) for sign in ("", "-") for k in _EXPONENTS],
                     dtype=object)
# Fractions this close to 1/2 go to format_float: the product is exact, but
# its fraction 1 + lo is rounded where lo is a small negative part.
_TIE_MARGIN = 1e-6


def _split(a):
    """Veltkamp's split of a into hi + lo, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_SCALES_HI, _SCALES_LO = _split(_SCALES)


def _scaled(a: np.ndarray, k: np.ndarray):
    """Floor (int64) and fraction of a * 10^(16-k) by Dekker's exact two-product.

    Exact where the product is at least 2^53, so p is an integer; a smaller
    one has the wrong k, and format_rows reads only that it is below 10^16.
    """
    i = k + 4
    p = a * _SCALES[i]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _SCALES_HI[i], _SCALES_LO[i]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    whole = np.floor(e)
    return p.astype(np.int64) + whole.astype(np.int64), e - whole


def format_rows(template: str, rows: np.ndarray) -> str:
    """One line per row of ``rows``, each value filling one ``%.17g`` slot.

    The bytes are those of format_float on every value.  Values with
    1e-4 <= |x| < 1, nearly every entry of a rotation or a unit quaternion,
    get their 17 digits as an integer from numpy and print as a sign, "0.",
    zeros and that integer with its trailing zeros dropped.  format_float
    itself prints every other value (0, +-1, tiny roundoff, +-inf, NaN), a
    value whose rounding carries to the next power of ten, and one within
    _TIE_MARGIN of a rounding tie.
    """
    flat = rows.reshape(len(rows), -1)
    x = flat.ravel()
    a = np.abs(x)
    fast = np.flatnonzero((a >= 1e-4) & (a < 1.0))  # false for NaN
    a = a[fast]
    k = np.clip(np.floor(np.log10(a)), -4, -1).astype(np.intp)
    digits, frac = _scaled(a, k)
    digits += frac > 0.5
    # Outside [10^16, 10^17): a carry to the next power of ten, or a k that
    # log10 picked one off within a few ulp of a power of ten.
    ok = (digits >= 10**16) & (digits < 10**17) & (np.abs(frac - 0.5) >= _TIE_MARGIN)
    for power in (10**16, 10**8, 10**4, 10**2, 10):  # drop trailing zeros
        np.floor_divide(digits, power, out=digits, where=digits % power == 0)
    pairs = np.empty((len(x), 2), dtype=object)
    done = fast[ok]
    pairs[done, 0] = _PREFIXES[4 * (x[done] < 0) + k[ok] + 4]
    pairs[done, 1] = digits[ok]
    rest = np.ones(len(x), dtype=bool)
    rest[done] = False
    pairs[rest, 0] = [format_float(value) for value in x[rest].tolist()]
    pairs[rest, 1] = ""
    text = "\n".join([template.replace(_SLOT, "%s%s")] * len(flat))
    return text % tuple(pairs.ravel().tolist())


def _row_template(shape: tuple[int, ...], key: str | None) -> str:
    """The %-template of one sample: csv values, or to_json of {key: value}."""
    if key is None:
        return ",".join([_SLOT] * int(np.prod(shape)))
    return to_json({key: np.zeros(shape).tolist()}).replace("0", _SLOT)


# ---------------------------------------------------------------------------
# Shared argument plumbing


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"could not parse {text!r} as comma-separated reals") from None


def _builtin_tag(spec: str) -> str | None:
    """The tag of a ``builtin:<tag>`` spec, as load_chart reads it; None for a file."""
    return spec.removeprefix("builtin:") if spec.startswith("builtin:") else None


def _averaging_density(args):
    """The density of --chart at --nodes, or None for the exact rule."""
    return normalize(load_chart(args.chart), rule=args.nodes) if args.chart else None


def _refuse_an_uneven_cover(density) -> None:
    """A NumericalError when the grid of --chart misses Haar's moments of degree 1 and 2 by
    more than INTEGER_SLACK: the chart covers its group unevenly, so its averages are not
    the group's.  Run after the average, whose refusals come first."""
    if density is not None and (gap := moment_gap(density)) > INTEGER_SLACK:
        raise NumericalError(f"chart {density.chart.name!r} covers its group unevenly: grid "
                             f"moments of degree 1 and 2 are {gap:.3g} from the exact rule, "
                             f"above {INTEGER_SLACK:g}")


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the stdout text.


def _cmd_density(args) -> str:
    chart = load_chart(args.chart)
    point = _parse_point(args.point)
    use_numeric = args.numeric or not args.closed_form
    record = {"chart": chart.name, "point": list(point)}
    if use_numeric:
        density = normalize(chart, rule=args.nodes)
        record["density"] = density.density(point)
    if args.closed_form:
        tag = _builtin_tag(args.chart)
        if tag is None:
            raise ValueError("--closed-form needs a built-in chart (builtin:<tag>)")
        value = closed_form(tag).density(point)
        if use_numeric:
            record["closed_form_density"] = value
        else:
            record["density"] = value
    return to_json(record)


def _cmd_normalize(args) -> str:
    chart = load_chart(args.chart)
    density = normalize(chart, rule=args.nodes)
    return to_json({"chart": chart.name, "C": density.C,
                    "nodes_per_axis": list(density.grid()[0].nodes_per_axis)})


def _cmd_sample(args) -> str:
    config = SamplerConfig(group=args.group, chart=args.chart or "",
                           seed=args.seed, count=args.count)
    batch = sample(config)
    if args.format == "csv":
        rows, key = batch.matrices, None
    elif batch.quaternions is not None:
        rows, key = batch.quaternions, "q"
    else:
        rows, key = batch.matrices, "R"
    return format_rows(_row_template(rows.shape[1:], key), rows)


def _cmd_check_chart(args) -> str:
    if not 0 <= args.tolerance < np.inf:
        raise ValueError(f"--tolerance must be finite and nonnegative, got {args.tolerance:g}")
    chart = load_chart(args.chart)  # load already runs structural validation
    density = normalize(chart, rule=args.nodes)
    record = {"chart": chart.name, "parse": "ok", "d": chart.d,
              "shape": list(chart.shape), "group": chart.group or "none",
              "C": density.C}
    worst = moment_gap(density)
    record.update(invariance_max_residual=worst, invariance_tolerance=args.tolerance)
    if worst > args.tolerance:
        raise NumericalError(
            f"invariance check failed: grid moments of degree 1 and 2 are {worst:.3g} "
            f"from the exact rule, above {args.tolerance:g}\n" + to_json(record))
    record["status"] = "ok"
    return to_json(record)


def _cmd_dim(args) -> str:
    # Closed-form sums exist only in 3D; planar groups use the trace formula.
    method = args.method or ("closed" if lookup_group(args.group).dim == 3 else "quadrature")
    values = {}
    if method in ("closed", "both"):
        values["closed"] = dim_invariants_closed(args.group, args.order)
    if method in ("quadrature", "both"):
        values["quadrature"] = dim_invariants_quadrature(args.group, args.order)
    if args.format == "json":
        return to_json({"group": args.group, "order": args.order, **values})
    parts = []
    if "closed" in values:
        parts.append(str(values["closed"]))
    if "quadrature" in values:
        # The quadrature value is within its roundoff slack, below 1/2, of an
        # integer (or it raised), so the table prints that integer.
        parts.append(str(round(values["quadrature"])))
    return "\n".join(parts)


def _cmd_reynolds(args) -> str:
    with open(args.tensor, "r", encoding="utf-8") as fh:
        tensor = Tensor.from_json(fh.read())
    density = _averaging_density(args)
    averaged = reynolds_continuous(args.group, tensor, density)
    _refuse_an_uneven_cover(density)
    return averaged.to_json()


def _cmd_orbit_moments(args) -> str:
    if (args.seed_tensor is None) == (args.diag is None):
        raise ValueError("provide exactly one of --seed-tensor or --diag")
    if args.diag is not None:
        seed = Tensor.from_array(np.diag(_parse_point(args.diag)))
    else:
        with open(args.seed_tensor, "r", encoding="utf-8") as fh:
            seed = Tensor.from_json(fh.read())
    spec = OrbitSpec(group=args.group, representation=args.representation, seed=seed)
    density = _averaging_density(args)
    m1 = moment(spec, 1, density)
    m2 = moment(spec, 2, density)
    _refuse_an_uneven_cover(density)
    cov = m2 - outer_power(m1, 2)  # orbit.covariance, on the moments already in hand
    record = {"group": args.group, "representation": args.representation,
              "m1": m1.array.tolist(), "m2": m2.array.tolist(), "cov": cov.array.tolist()}
    if args.mc:
        batch = sample(SamplerConfig(group=args.group, chart=args.mc_chart or "",
                                     seed=args.mc_seed, count=args.mc))
        mc1, se1 = mc_moments(spec, 1, batch)
        mc2, se2 = mc_moments(spec, 2, batch)
        record["mc_m1"] = mc1.array.tolist()
        record["mc_m2"] = mc2.array.tolist()
        record["mc_stderr"] = {"m1": se1.array.tolist(), "m2": se2.array.tolist()}
    return to_json(record)


def _cmd_chart_change(args) -> str:
    c1 = load_chart(args.chart1)
    c2 = load_chart(args.chart2)
    point = _parse_point(args.point)
    if args.map == "auto":
        shift = None
    elif args.map.startswith("shift:"):
        shift = _parse_point(args.map[len("shift:"):])
    else:
        raise ValueError(f"unknown --map {args.map!r}; use 'auto' or 'shift:dx1,dx2,...'")
    residual = chart_change_check(c1, c2, point, shift, args.nodes)
    return to_json({"chart1": c1.name, "chart2": c2.name, "point": list(point),
                    "residual": residual})


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="haarkit",
                     description="Uniform measures, sampling, and averaging on rotation groups.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    p = add("density", _cmd_density, "Evaluate the uniform density of a chart at a point.")
    p.add_argument("--chart", required=True, help="chart file path or builtin:<tag>")
    p.add_argument("--point", required=True, help="comma-separated chart coordinates (radians)")
    p.add_argument("--numeric", action="store_true", help="numeric density (default)")
    p.add_argument("--closed-form", action="store_true", help="reference closed-form density")
    p.add_argument("--nodes", type=int, default=32, help="quadrature nodes per axis (default 32)")

    p = add("normalize", _cmd_normalize, "Report the normalization constant C of a chart.")
    p.add_argument("--chart", required=True, help="chart file path or builtin:<tag>")
    p.add_argument("--nodes", type=int, default=32, help="quadrature nodes per axis (default 32)")

    p = add("sample", _cmd_sample, "Draw uniform group elements.")
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--chart", default="",
                   help="built-in chart tag or alias (euler, polar, quaternion, ...)")
    p.add_argument("-n", "--count", type=int, default=1, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="json lines or row-major csv")

    p = add("check-chart", _cmd_check_chart,
            "Parse a chart, validate it, normalize it, and test invariance.")
    p.add_argument("--chart", required=True, help="chart file path or builtin:<tag>")
    p.add_argument("--nodes", type=int, default=24, help="quadrature nodes per axis (default 24)")
    p.add_argument("--tolerance", type=float, default=1e-6,
                   help="invariance residual tolerance (default 1e-6)")

    p = add("dim", _cmd_dim, "Dimension of the invariant subspace of order-n tensors.")
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--order", required=True, type=int, help="tensor order n")
    p.add_argument("--method", choices=("closed", "quadrature", "both"), default=None,
                   help="closed-form sum, the trace formula on n + 2 angles, or both")
    p.add_argument("--format", choices=("plain", "json"), default="plain")

    p = add("reynolds", _cmd_reynolds, "Average a tensor over a group.")
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--tensor", required=True, help="tensor JSON file")
    p.add_argument("--chart", default="",
                   help="chart to integrate in (default: the exact product rule)")
    p.add_argument("--nodes", type=int, default=32,
                   help="quadrature nodes per axis with --chart (default 32)")

    p = add("orbit-moments", _cmd_orbit_moments,
            "Quadrature and Monte Carlo moments of an orbit random variable.")
    p.add_argument("--group", required=True, choices=GROUPS)
    p.add_argument("--representation", choices=REPRESENTATIONS, default="sym2")
    p.add_argument("--seed-tensor", help="seed tensor JSON file")
    p.add_argument("--diag", help="diagonal seed matrix, e.g. 1,2,3 (sym2 shorthand)")
    p.add_argument("--chart", default="",
                   help="chart to integrate in (default: the exact product rule)")
    p.add_argument("--nodes", type=int, default=32,
                   help="quadrature nodes per axis with --chart (default 32)")
    p.add_argument("--mc", type=int, default=0, help="Monte Carlo sample count (0 disables)")
    p.add_argument("--mc-seed", type=int, default=0, help="Monte Carlo RNG seed")
    p.add_argument("--mc-chart", default="", help="sampling chart for Monte Carlo")

    p = add("chart-change", _cmd_chart_change,
            "Residual of the change-of-chart density identity at a point.")
    p.add_argument("--chart1", required=True, help="source chart (file or builtin:<tag>)")
    p.add_argument("--chart2", required=True, help="target chart (file or builtin:<tag>)")
    p.add_argument("--point", required=True, help="coordinates in chart1")
    p.add_argument("--map", default="auto",
                   help="'auto' (through the group element) or 'shift:dx1,dx2,...'")
    p.add_argument("--nodes", type=int, default=32, help="quadrature nodes per axis (default 32)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        text = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            return 0
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ChartError, DomainError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation it could not make; Python does not
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left early, as `| head` does
        # what is still buffered goes to devnull, so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
