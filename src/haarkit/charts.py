"""Charts: named parametrisations of matrix groups over box domains.

A Chart wraps a parsed AST with compiled evaluation, domain checks, and
exact jacobians.  Built-in charts ship as chart-language files under
``haarkit/data`` and go through the same parser as user charts.

Evaluation runs a straight-line plan (Griewank & Walther, *Evaluating
Derivatives*, SIAM 2008) that each chart compiles once from its matrix:
equal subtrees are computed once, variable-free subtrees are folded to
constants, and every remaining node is one step calling the function the
tree walk of ``chartlang.evaluate_expr`` calls, on the same operands, so the
plan gives the walk's values bit for bit.  Each step's array is dropped
after its last reader has run.  Jacobians run a second plan of the
entries' symbolic partials, compiled with the first: exact, with no
difference step.

Charts are validated at 100 random domain points at load time against the
group they parametrise (Chart.parametrises): 4 x 1 charts, unit quaternions
(w, x, y, z) of SO(3), for unit norm; other untagged charts for finite
entries; square charts (untagged D x D ones are of O(D)) for orthogonality
(det +1 for so(D)).  Charts of any other shape have no Haar density.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .chartlang import (FUNCTIONS, OPERATORS, BinOp, Call, ChartAst, ChartError, Neg, Num, Pow,
                        Var, differentiate, evaluate_expr, parse_chart, print_chart, print_expr)
from .groups import GROUPS, INPUT_TOL, Group, UnknownNameError, lookup_group, orthogonality_error

BUILTIN_NAMES = tuple(dict.fromkeys(tag for group in GROUPS.values() for tag in group.charts))

_VALIDATION_POINTS = 100
_VALIDATION_SEED = 0x5EED


class DomainError(ValueError):
    """A coordinate tuple outside the domain, or a point or batch of the wrong shape."""


# ---------------------------------------------------------------------------
# Straight-line plans


@dataclass(frozen=True)
class _Plan:
    """A chart matrix as straight-line code over (N, d) points.

    An operand is ("p", k), parameter column k; ("s", t), the array step t
    returned; or ("c", value), a folded constant.  ``preset`` pairs an
    operand that is no step with an entry; each step is (function,
    operands, entries it stores, steps dropped after it): the earlier steps
    it reads for the last time, and itself if no later step reads it.  Each
    call allocates its own result, so the live arrays are the steps some
    later step still reads, and numpy's reference counting frees the rest.
    Entry (i, j) goes to row i * cols + j of the caller's (entries, N)
    ``out``, which may be a strided view (evaluate_many passes the transpose
    of its (N, rows, cols) result) or a contiguous block (jacobian_many).
    """

    shape: tuple[int, int]
    preset: tuple  # (operand, (i, j))
    steps: tuple  # (function, (operand, ...), ((i, j), ...), (step, ...))

    def run(self, pts: np.ndarray, out: np.ndarray) -> None:
        cols = self.shape[1]
        values = {("p", k): column for k, column in enumerate(pts.T)}
        for op, (i, j) in self.preset:
            out[i * cols + j] = op[1] if op[0] == "c" else values[op]
        for s, (fn, args, entries, drops) in enumerate(self.steps):
            values["s", s] = fn(*[op[1] if op[0] == "c" else values[op] for op in args])
            for i, j in entries:
                out[i * cols + j] = values["s", s]
            for t in drops:
                del values["s", t]


def _compile(ast: ChartAst) -> _Plan:
    """Merge equal subtrees, fold variable-free ones, and find each step's last reader.

    No number is -0.0 (literals are nonnegative, derivative coefficients
    nonzero), so equal subtrees compute equal values.  A step calls the
    function ``evaluate_expr`` calls for its node on the same operands, so
    the plan gives the walk's bits.
    """
    column = {p.name: k for k, p in enumerate(ast.params)}
    steps: list = []  # (function, operands), each operand computed before its reader
    step_of: dict = {}

    def constant(node):
        try:
            with np.errstate(invalid="raise", divide="raise", over="raise"):
                value = evaluate_expr(node, {})
        except ArithmeticError as exc:  # 1/0, 0^-1, 10^400, arccos(2), sin(0)/0
            raise ChartError(f"chart {ast.name!r}: constant {print_expr(node)} "
                             f"cannot be evaluated ({exc})", 1, 1) from None
        if not np.isfinite(value):  # 1e999, or Python-float overflow as in 1e308*10
            raise ChartError(f"chart {ast.name!r}: constant {print_expr(node)} "
                             f"is not finite ({value})", 1, 1)
        return ("c", value)

    def operand(node):
        if isinstance(node, Var):
            return ("p", column[node.name])
        if node in step_of:
            return ("s", step_of[node])
        if isinstance(node, Neg):
            fn, args = operator.neg, [operand(node.arg)]
        elif isinstance(node, BinOp):
            fn, args = OPERATORS[node.op], [operand(node.left), operand(node.right)]
        elif isinstance(node, Pow):
            fn, args = operator.pow, [operand(node.base), ("c", node.exponent)]
        elif isinstance(node, Call):
            fn, args = FUNCTIONS[node.func][0], [operand(node.arg)]
        else:  # Num, Pi
            return constant(node)
        if all(kind == "c" for kind, _ in args):
            return constant(node)
        steps.append((fn, tuple(args)))
        step_of[node] = len(steps) - 1
        return ("s", len(steps) - 1)

    preset = []
    stored: dict[int, list] = {}
    for i, row in enumerate(ast.matrix):
        for j, entry in enumerate(row):
            op = operand(entry)
            if op[0] == "s":
                stored.setdefault(op[1], []).append((i, j))
            else:
                preset.append((op, (i, j)))
    last_read = {t: s for s, (_, args) in enumerate(steps) for kind, t in args if kind == "s"}
    drops: list[list] = [[] for _ in steps]
    for t in range(len(steps)):
        drops[last_read.get(t, t)].append(t)
    return _Plan(shape=(len(ast.matrix), len(ast.matrix[0])), preset=tuple(preset),
                 steps=tuple((fn, args, tuple(stored.get(s, ())), tuple(drops[s]))
                             for s, (fn, args) in enumerate(steps)))


@dataclass(frozen=True, eq=False)
class Chart:
    """An immutable parametrisation p: U subset R^d -> matrices."""

    ast: ChartAst
    domain: np.ndarray = field(init=False)  # (d, 2) closed box
    _plan: _Plan = field(init=False, repr=False)
    _jacobian_plan: _Plan = field(init=False, repr=False)  # dp/du_1, ..., dp/du_d in d * rows rows

    def __post_init__(self):
        dom = np.array([[evaluate_expr(p.lower, {}), evaluate_expr(p.upper, {})]
                        for p in self.ast.params], dtype=float)
        dom.setflags(write=False)
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "_plan", _compile(self.ast))
        rows = tuple(tuple(differentiate(e, p) or Num(0.0) for e in row)  # None: identically 0
                     for p in self.params for row in self.ast.matrix)
        object.__setattr__(self, "_jacobian_plan", _compile(replace(self.ast, matrix=rows)))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_source(cls, source: str) -> "Chart":
        chart = cls(parse_chart(source))
        chart.validate()
        return chart

    @classmethod
    def from_file(cls, path) -> "Chart":
        return cls.from_source(Path(path).read_text(encoding="utf-8"))

    # -- basic facts -------------------------------------------------------

    @property
    def name(self) -> str:
        return self.ast.name

    @property
    def params(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.ast.params)

    @property
    def d(self) -> int:
        """Number of parameters."""
        return len(self.ast.params)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.ast.matrix), len(self.ast.matrix[0]))

    @property
    def group(self) -> str | None:
        return self.ast.group

    @property
    def is_quaternion(self) -> bool:
        """4 x 1 charts parametrize SO(3) through unit quaternions (w,x,y,z)."""
        return self.shape == (4, 1)

    @property
    def parametrises(self) -> Group | None:
        """The GROUPS row of the chart's elements: its tag's, SO(3) for a 4 x 1 (quaternion) chart,
        O(D) for an untagged D x D one, D = 2 or 3, and None (no group, no density) for any other."""
        if self.group is not None or self.is_quaternion:
            return lookup_group(self.group or "so3")
        rows, cols = self.shape
        return GROUPS.get(f"o{rows}") if rows == cols else None

    def source(self) -> str:
        return print_chart(self.ast)

    def __repr__(self) -> str:
        tag = self.group or ("quaternion" if self.is_quaternion else "none")
        return f"Chart({self.name!r}, d={self.d}, shape={self.shape}, group={tag})"

    # -- domain ------------------------------------------------------------

    def contains(self, u):
        """Whether a point (d,) lies in the closed box, or which rows of an (N, d) batch do."""
        u = np.asarray(u, dtype=float)
        return np.all((u >= self.domain[:, 0]) & (u <= self.domain[:, 1]), axis=-1)

    def check_point(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.d,):
            raise DomainError(f"chart {self.name!r} takes {self.d} coordinates, got shape {u.shape}")
        if not self.contains(u):
            raise DomainError(f"point {u.tolist()} outside the domain of chart {self.name!r}")
        return u

    def check_batch(self, points) -> np.ndarray:
        """An (N, d) batch as floats, shape-checked only: its points are not held to the box."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise DomainError(f"expected an (N, {self.d}) batch, got shape {pts.shape}")
        return pts

    def random_interior(self, count: int, rng, margin: float = 1e-3) -> np.ndarray:
        """Uniform points in the domain shrunk by a relative margin per axis."""
        lo, hi = self.domain[:, 0], self.domain[:, 1]
        pad = margin * (hi - lo)
        return rng.uniform(lo + pad, hi - pad, size=(count, self.d))

    # -- evaluation --------------------------------------------------------

    def evaluate(self, u) -> np.ndarray:
        """p(u) as an ndarray of the chart's matrix shape."""
        return self.evaluate_many(self.check_point(u)[None, :])[0]

    def evaluate_many(self, points) -> np.ndarray:
        """p at an (N, d) batch of points, returning (N, rows, cols).

        Runs the chart's straight-line plan, which gives the bits of the
        ``evaluate_expr`` walk.  Points are not domain-checked; quadrature
        and sampling call this on nodes already known to lie inside.
        """
        pts = self.check_batch(points)
        rows, cols = self.shape
        out = np.empty((len(pts), rows, cols))
        self._plan.run(pts, out.reshape(len(pts), rows * cols).T)
        return out

    def quaternions_at(self, points) -> np.ndarray:
        """(N, 4) quaternion components of a 4 x 1 chart at an (N, d) batch."""
        if not self.is_quaternion:
            raise ValueError(f"chart {self.name!r} is not a quaternion chart")
        return self.evaluate_many(points)[:, :, 0]

    # -- derivatives -------------------------------------------------------

    def jacobian(self, u) -> list[np.ndarray]:
        """Partials [dp/du_1, ..., dp/du_d] at a point of the closed domain."""
        return list(self.jacobian_many(self.check_point(u)[None, :])[0])

    def jacobian_many(self, points) -> np.ndarray:
        """Partials at an (N, d) batch as an (N, d, rows, cols) view; an
        infinite slope (sqrt at 0, arccos at 1, ...) gives inf or NaN quietly.

        The view's base is one C-contiguous (d * rows * cols, N) block whose
        row k * rows * cols + i * cols + j holds dp_ij/du_k at every point,
        so ``jac.reshape(N, -1).T`` gives those entry rows without a copy.
        """
        pts = self.check_batch(points)
        rows = np.empty((self.d * self.shape[0] * self.shape[1], len(pts)))
        with np.errstate(all="ignore"):
            self._jacobian_plan.run(pts, rows)
        return rows.T.reshape(len(pts), self.d, *self.shape)

    # -- validation --------------------------------------------------------

    @np.errstate(all="ignore")  # a NaN entry fails each "not err <= tol" below, quietly
    def validate(self) -> None:
        """Random-point checks against the group the chart parametrises."""
        def fail(message: str):
            raise ChartError(f"chart {self.name!r} {message}", 1, 1)
        rows, cols = self.shape
        rng = np.random.default_rng(_VALIDATION_SEED)
        pts = rng.uniform(self.domain[:, 0], self.domain[:, 1], size=(_VALIDATION_POINTS, self.d))
        mats = self.evaluate_many(pts)
        group = self.parametrises
        if self.group is None and self.is_quaternion:
            q = mats[:, :, 0]
            err = float(np.abs(np.einsum("ni,ni->n", q, q) - 1.0).max())
            if not err <= INPUT_TOL:
                fail(f"is 4x1 (quaternion) but |q| deviates from 1 by {err:.3g}")
        elif self.group is None and not np.isfinite(mats).all():
            k, i, j = np.argwhere(~np.isfinite(mats))[0]
            fail(f"is not finite on its domain: entry ({i}, {j}) is {mats[k, i, j]} at {pts[k].tolist()}")
        elif group is not None:
            claim = f"declares group {self.group}" if self.group else f"is untagged, so {group.spelling},"
            needs = group.dim * (group.dim - 1) // 2
            if (rows, cols) != (group.dim, group.dim):
                fail(f"{claim} but its matrix is {rows}x{cols}")
            if self.d != needs:
                fail(f"{claim} but has {self.d} parameters; the group needs {needs}")
            err = orthogonality_error(mats)
            if not err <= INPUT_TOL:
                fail(f"is not orthogonal on its domain (max |p p^T - I| = {err:.3g} "
                     f"over {_VALIDATION_POINTS} random points)")
            if group.proper and not float(np.abs(np.linalg.det(mats) - 1.0).max()) <= INPUT_TOL:
                fail(f"declares {self.group} but det p deviates from +1")


# ---------------------------------------------------------------------------
# Built-in charts


_builtin_cache: dict[str, Chart] = {}


def builtin_chart(name: str) -> Chart:
    """Load one of the built-in charts by tag (see BUILTIN_NAMES)."""
    if name not in BUILTIN_NAMES:
        raise UnknownNameError(f"unknown built-in chart {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    if name not in _builtin_cache:
        text = resources.files("haarkit").joinpath(f"data/{name}.chart").read_text(encoding="utf-8")
        _builtin_cache[name] = Chart.from_source(text)
    return _builtin_cache[name]


def load_chart(spec: str) -> Chart:
    """Load a chart from ``builtin:<tag>`` or a filesystem path."""
    if spec.startswith("builtin:"):
        return builtin_chart(spec[len("builtin:"):])
    return Chart.from_file(spec)
