"""Command-line interface.

Exit codes: 0 success, 1 usage or input error (bad flags, malformed chart
or tensor files, points outside domains, a closed-form ``dim`` order past
reynolds.MAX_CLOSED_ORDER), an ``--out`` path that cannot be
written, a request larger than memory, or a stdout closed before the
output was written, 2 numerical failure (degenerate normalization,
non-convergence, under-resolved quadrature, a ``--chart`` whose grid
covers its group unevenly).  JSON output carries 17 significant digits so
values round-trip through text; the ``dim`` table prints integers, of any
length.  All angles are radians.  Identical argv (and seed) produce
byte-identical stdout on one numpy build and SIMD dispatch path: the
bits of np.arccos, np.arcsin and np.arctan2, through which the samplers
draw, depend on the loops numpy dispatches them to (AVX-512 or AVX2 on
x86), as do those of a user chart's arccos, arcsin, tan and ^.

Every float prints as format_float prints it: ``'%.17g'``, with "0" for
-0.0 and "NaN" for NaN.  The exception is ``reynolds``, which prints
Tensor.to_json: json.dumps, so shortest-repr floats ("0.0", "1.5") with
-0.0 kept.  ``sample`` output goes through format_rows, which
keeps those bytes but builds the digits of 1e-4 <= |x| < 1 as integers in
numpy and leaves only other values, rounding carries and near-ties to
format_float.  It yields one row block's text at a time, and ``sample``
formats each chunk of draws (sampling.sample_chunks) as it is drawn, so it
streams any count in the memory of one chunk.  Each handler returns its
stdout lines, and main alone writes them, to stdout or to the ``--out``
file, which it opens only then: a refusal writes nothing, and only a failure
while ``sample`` draws or formats a later chunk (a MemoryError) leaves a
prefix of its text.
"""

from __future__ import annotations

import argparse
import decimal
import os
import sys
from collections.abc import Iterator
from contextlib import nullcontext

import numpy as np

from .charts import builtin_tag, load_chart
from .groups import GROUPS, lookup_group
from .haar import NumericalError, _node_blocks, chart_change_check, normalize
from .orbit import REPRESENTATIONS, OrbitSpec, mc_moments_each, moment
from .quadrature import DEFAULT_NODES
from .reynolds import (INTEGER_SLACK, dim_invariants_closed, dim_invariants_quadrature, moment_gap,
                       reynolds_continuous)
from .sampling import SampleBatch, SamplerConfig, closed_form, sample_chunks
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
    if isinstance(obj, (int, np.integer)):  # any length: str(int) refuses past 4300 digits
        return str(decimal.Decimal(int(obj)))
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
# float64 entries that the arrays and Python objects of one value take while
# format_rows builds its text: about 145 bytes, so a block of
# haar.BLOCK_ENTRIES // _VALUE_ENTRIES values holds about 2 MiB of them.
_VALUE_ENTRIES = 16


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


def format_rows(template: str, rows: np.ndarray) -> Iterator[str]:
    """One line per row of ``rows``, each value filling one ``%.17g`` slot.

    The bytes are those of format_float on every value.  Values with
    1e-4 <= |x| < 1, nearly every entry of a rotation or a unit quaternion,
    get their 17 digits as an integer from numpy and print as a sign, "0.",
    zeros and that integer with its trailing zeros dropped.  format_float
    itself prints every other value (0, +-1, tiny roundoff, +-inf, NaN), a
    value whose rounding carries to the next power of ten, and one within
    _TIE_MARGIN of a rounding tie.  It yields the lines of each block of at
    most haar.BLOCK_ENTRIES // _VALUE_ENTRIES values (_node_blocks) as one text.
    """
    flat = rows.reshape(len(rows), -1)
    blocks = _node_blocks(len(flat), flat.shape[1] * _VALUE_ENTRIES)
    return (_format_block(template, flat[s]) for s in blocks)


def _format_block(template: str, flat: np.ndarray) -> str:
    """format_rows on one block of rows, flattened to (rows, values)."""
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


def _read_tensor(path: str) -> Tensor:
    """The tensor of a JSON file (--tensor, --seed-tensor)."""
    with open(path, "r", encoding="utf-8") as fh:
        return Tensor.from_json(fh.read())


def _chart_density(args):
    """The density of --chart, normalized at --nodes."""
    return normalize(load_chart(args.chart), rule=args.nodes)


def _refuse_an_uneven_cover(density) -> None:
    """A NumericalError when the grid of --chart misses Haar's moments of degree 1 and 2 by
    more than INTEGER_SLACK: the chart covers its group unevenly, so its averages are not
    the group's.  Run after the average, whose refusals come first."""
    if density is not None and (gap := moment_gap(density)) > INTEGER_SLACK:
        raise NumericalError(f"chart {density.chart.name!r} covers its group unevenly: grid "
                             f"moments of degree 1 and 2 are {gap:.3g} from the exact rule, "
                             f"above {INTEGER_SLACK:g}")


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns its stdout lines, which main writes.


def _cmd_density(args) -> list[str]:
    chart = load_chart(args.chart)
    point = _parse_point(args.point)
    use_numeric = args.numeric or not args.closed_form
    record = {"chart": chart.name, "point": list(point)}
    if use_numeric:
        density = normalize(chart, rule=args.nodes)
        record["density"] = density.density(point)
    if args.closed_form:
        tag = builtin_tag(args.chart)
        if tag is None:
            raise ValueError("--closed-form needs a built-in chart (builtin:<tag>)")
        value = closed_form(tag).density(point)
        if use_numeric:
            record["closed_form_density"] = value
        else:
            record["density"] = value
    return [to_json(record)]


def _cmd_normalize(args) -> list[str]:
    density = _chart_density(args)
    return [to_json({"chart": density.chart.name, "C": density.C,
                     "nodes_per_axis": list(density.grid()[0].nodes_per_axis)})]


def _cmd_sample(args) -> Iterator[str]:
    # a plain function, not a generator: SamplerConfig's refusals run before main opens --out
    config = SamplerConfig(group=args.group, chart=args.chart or "", seed=args.seed,
                           count=args.count)
    return _sample_lines(sample_chunks(config), args.format)


def _sample_lines(chunks: Iterator[SampleBatch], fmt: str) -> Iterator[str]:
    """The text of each chunk's row blocks, each chunk formatted as it is drawn."""
    for batch in chunks:
        if fmt == "csv":
            rows, key = batch.matrices, None
        elif batch.quaternions is not None:
            rows, key = batch.quaternions, "q"
        else:
            rows, key = batch.matrices, "R"
        del batch  # the chunk's other arrays go before its text is formatted
        yield from format_rows(_row_template(rows.shape[1:], key), rows)
        del rows  # and its rows before the next chunk is drawn


def _cmd_check_chart(args) -> list[str]:
    if not 0 <= args.tolerance < np.inf:
        raise ValueError(f"--tolerance must be finite and nonnegative, got {args.tolerance:g}")
    density = _chart_density(args)  # load already runs structural validation
    chart = density.chart
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
    return [to_json(record)]


def _cmd_dim(args) -> list[str]:
    # Closed-form counts exist only in 3D; planar groups use the trace formula.
    method = args.method or ("closed" if lookup_group(args.group).dim == 3 else "quadrature")
    values = {}
    if method in ("closed", "both"):
        values["closed"] = dim_invariants_closed(args.group, args.order)
    if method in ("quadrature", "both"):
        values["quadrature"] = dim_invariants_quadrature(args.group, args.order)
    if args.format == "json":
        return [to_json({"group": args.group, "order": args.order, **values})]
    # The quadrature value is within its roundoff slack, below 1/2, of an
    # integer (or it raised), so the table prints that integer.
    return [to_json(round(v)) for v in values.values()]


def _cmd_reynolds(args) -> list[str]:
    density = _chart_density(args) if args.chart else None  # None: the exact rule
    averaged = reynolds_continuous(args.group, _read_tensor(args.tensor), density)
    _refuse_an_uneven_cover(density)
    return [averaged.to_json()]


def _cmd_orbit_moments(args) -> list[str]:
    if (args.seed_tensor is None) == (args.diag is None):
        raise ValueError("provide exactly one of --seed-tensor or --diag")
    if args.diag is not None:
        seed = Tensor.from_array(np.diag(_parse_point(args.diag)))
    else:
        seed = _read_tensor(args.seed_tensor)
    spec = OrbitSpec(group=args.group, representation=args.representation, seed=seed)
    density = _chart_density(args) if args.chart else None
    m1 = moment(spec, 1, density)
    m2 = moment(spec, 2, density)
    _refuse_an_uneven_cover(density)
    cov = m2 - outer_power(m1, 2)  # orbit.covariance, on the moments already in hand
    record = {"group": args.group, "representation": args.representation,
              "m1": m1.array.tolist(), "m2": m2.array.tolist(), "cov": cov.array.tolist()}
    if args.mc:
        (mc1, se1), (mc2, se2) = mc_moments_each(
            spec, (1, 2), SamplerConfig(group=args.group, chart=args.mc_chart or "",
                                        seed=args.mc_seed, count=args.mc))
        record["mc_m1"] = mc1.array.tolist()
        record["mc_m2"] = mc2.array.tolist()
        record["mc_stderr"] = {"m1": se1.array.tolist(), "m2": se2.array.tolist()}
    return [to_json(record)]


def _cmd_chart_change(args) -> list[str]:
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
    return [to_json({"chart1": c1.name, "chart2": c2.name, "point": list(point),
                     "residual": residual})]


# ---------------------------------------------------------------------------
# Parser assembly


def _flag(*names, **options):
    """One add_argument call of a _COMMANDS row: its names and its options."""
    return names, options


def _nodes(default=DEFAULT_NODES, when=""):
    """The --nodes flag, with its default in its help."""
    return _flag("--nodes", type=int, default=default,
                 help=f"quadrature nodes per axis{when} (default {default})")


_OUT = _flag("--out", help="write output to this path instead of stdout")
_CHART = _flag("--chart", required=True, help="chart file path or builtin:<tag>")
_GROUP = _flag("--group", required=True, choices=GROUPS)
_NODES = _nodes()
_AVERAGING = (_flag("--chart", default="",
                    help="chart to integrate in (default: the exact product rule)"),
              _nodes(when=" with --chart"))

# (name, handler, help, flags in help order after --out), one row per subcommand
_COMMANDS = (
    ("density", _cmd_density, "Evaluate the uniform density of a chart at a point.", (
        _CHART, _flag("--point", required=True, help="comma-separated chart coordinates (radians)"),
        _flag("--numeric", action="store_true", help="numeric density (default)"),
        _flag("--closed-form", action="store_true", help="reference closed-form density"), _NODES)),
    ("normalize", _cmd_normalize, "Report the normalization constant C of a chart.",
     (_CHART, _NODES)),
    ("sample", _cmd_sample, "Draw uniform group elements.", (
        _GROUP, _flag("--chart", default="",
                      help="built-in chart tag or alias (euler, polar, quaternion, ...)"),
        _flag("-n", "--count", type=int, default=1, help="number of samples"),
        _flag("--seed", type=int, default=0, help="64-bit RNG seed"),
        _flag("--format", choices=("json", "csv"), default="json",
              help="json lines or row-major csv"))),
    ("check-chart", _cmd_check_chart,
     "Parse a chart, validate it, normalize it, and test invariance.", (
         _CHART, _nodes(24), _flag("--tolerance", type=float, default=1e-6,
                                   help="invariance residual tolerance (default 1e-6)"))),
    ("dim", _cmd_dim, "Dimension of the invariant subspace of order-n tensors.", (
        _GROUP, _flag("--order", required=True, type=int, help="tensor order n"),
        _flag("--method", choices=("closed", "quadrature", "both"), default=None,
              help="closed-form sum, the trace formula on n + 2 angles, or both"),
        _flag("--format", choices=("plain", "json"), default="plain"))),
    ("reynolds", _cmd_reynolds, "Average a tensor over a group.", (
        _GROUP, _flag("--tensor", required=True, help="tensor JSON file"), *_AVERAGING)),
    ("orbit-moments", _cmd_orbit_moments,
     "Quadrature and Monte Carlo moments of an orbit random variable.", (
         _GROUP, _flag("--representation", choices=REPRESENTATIONS, default="sym2"),
         _flag("--seed-tensor", help="seed tensor JSON file"),
         _flag("--diag", help="diagonal seed matrix, e.g. 1,2,3 (sym2 shorthand)"), *_AVERAGING,
         _flag("--mc", type=int, default=0, help="Monte Carlo sample count (0 disables)"),
         _flag("--mc-seed", type=int, default=0, help="Monte Carlo RNG seed"),
         _flag("--mc-chart", default="", help="sampling chart for Monte Carlo"))),
    ("chart-change", _cmd_chart_change,
     "Residual of the change-of-chart density identity at a point.", (
         _flag("--chart1", required=True, help="source chart (file or builtin:<tag>)"),
         _flag("--chart2", required=True, help="target chart (file or builtin:<tag>)"),
         _flag("--point", required=True, help="coordinates in chart1"),
         _flag("--map", default="auto",
               help="'auto' (through the group element) or 'shift:dx1,dx2,...'"), _NODES)),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="haarkit",
                     description="Uniform measures, sampling, and averaging on rotation groups.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, handler, help_text, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.set_defaults(handler=handler)
        for names, options in (_OUT, *flags):
            p.add_argument(*names, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        lines = args.handler(args)
        with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
            for line in lines:
                print(line, file=out)
            out.flush()
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left early, as `| head` does
        # what is still buffered goes to devnull, so the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the allocation it could not make; Python does not
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
