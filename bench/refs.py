"""Correctness references for the benchmark, computed without haarkit.

Everything here is plain numpy and closed-form mathematics, so a defect in
the library cannot also hide in its own reference.  Each ``check_*``
function takes what an operation produced and returns a ``Check``: whether
it passed, the worst relative error against an exact reference (``None``
for statistical checks) and a short reason on failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Normalization constants of the README table.  The polar chart's numeric
# C is 8 pi^2; its closed-form constant disagrees, so only normalized
# polar densities are compared.
CHART_C = {
    "so2-angle": TWO_PI,
    "so2-shifted": TWO_PI,
    "so3-euler": 8.0 * math.pi**2,
    "so3-polar": 8.0 * math.pi**2,
    "so3-quat": 2.0 * math.pi**2,
    "zyz": 8.0 * math.pi**2,
    "half-turn": TWO_PI,
}

# Relative tolerance for values the library computes by quadrature and
# finite differences; the exact references here carry no error of their own.
REL_TOL = 1e-6
# A quadrature dimension further than this from the integer reports
# under-resolution in the library too.
DIM_TOL = 1e-3
# Statistical checks accept a sample mean within this many standard errors.
Z_MAX = 5.0
# Sampled matrices are printed with 17 significant digits.
ORTHO_TOL = 1e-9

# E[tr R] is 0 for all four groups; E[(tr R)^2] counts the invariants of
# the representation on R^D (x) R^D.
TRACE_SQUARE_MEAN = {"so2": 2.0, "o2": 1.0, "so3": 1.0, "o3": 1.0}


@dataclass(frozen=True)
class Check:
    ok: bool
    rel_err: float | None = None
    detail: str = ""


def rel_err(value, reference) -> float:
    """Worst entry-wise error relative to the largest reference entry."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if value.shape != reference.shape:
        return math.inf
    scale = float(np.abs(reference).max(initial=0.0)) or 1.0
    return float(np.abs(value - reference).max(initial=0.0)) / scale


def _within(err: float, tol: float, what: str) -> Check:
    if err <= tol:
        return Check(True, err)
    return Check(False, err, f"{what}: relative error {err:.3g} above {tol:g}")


def check_close(value, reference, what: str) -> Check:
    return _within(rel_err(value, reference), REL_TOL, what)


def check_equal(value, reference, what: str) -> Check:
    if value == reference:
        return Check(True, 0.0)
    return Check(False, None, f"{what} is {value!r}, expected {reference!r}")


# ---------------------------------------------------------------------------
# Densities


def density(kind: str, u) -> float:
    """Normalized Haar density of a chart kind at coordinates u."""
    u = np.asarray(u, dtype=float)
    if kind in ("so2-angle", "so2-shifted"):
        return 1.0 / TWO_PI
    if kind == "half-turn":  # p(t) = rotation by 2t covers SO(2) once for t in an interval of pi
        return 1.0 / math.pi
    if kind in ("so3-euler", "zyz"):
        return math.sin(u[1]) / (8.0 * math.pi**2)
    if kind == "so3-polar":
        return math.cos(u[1]) * math.sin(u[2] / 2.0) ** 2 / (2.0 * math.pi**2)
    if kind == "so3-quat":
        return math.sin(u[0]) ** 2 * math.sin(u[1]) / (2.0 * math.pi**2)
    raise KeyError(kind)


# ---------------------------------------------------------------------------
# Invariant theory


def riordan(n: int) -> int:
    """Riordan numbers 1, 0, 1, 1, 3, 6, 15, 36, 91, ...

    R(n) is the dimension of SO(3)-invariant order-n tensors:
    (n + 1) R(n) = (n - 1) (2 R(n-1) + 3 R(n-2)).
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    values = [1, 0]
    for m in range(2, n + 1):
        values.append((m - 1) * (2 * values[m - 1] + 3 * values[m - 2]) // (m + 1))
    return values[n]


def invariant_dim(group: str, n: int) -> int:
    """Dimension of invariant order-n tensors on R^3 (O(3) kills odd orders)."""
    if group == "o3" and n % 2:
        return 0
    return riordan(n)


def pairings(n: int) -> list[list[tuple[int, int]]]:
    """All perfect matchings of range(n); (n - 1)!! of them for even n."""
    if n % 2:
        return []
    if n == 0:
        return [[]]
    out = []
    for k in range(1, n):
        rest = [i for i in range(1, n) if i != k]
        for sub in pairings(n - 2):
            out.append([(0, k)] + [(rest[a], rest[b]) for a, b in sub])
    return out


def pairing_basis(dim: int, n: int) -> np.ndarray:
    """Columns are the flattened Kronecker-delta pairings of order n."""
    idx = np.indices((dim,) * n).reshape(n, -1)
    cols = []
    for matching in pairings(n):
        col = np.ones(idx.shape[1])
        for a, b in matching:
            col *= idx[a] == idx[b]
        cols.append(col)
    return np.stack(cols, axis=1) if cols else np.zeros((dim**n, 0))


def levi_civita() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    return eps


def invariant_projector(group: str, dim: int, n: int) -> np.ndarray:
    """The (D^n, D^n) group-averaging operator on order-n tensors.

    The group average of an orthogonal representation is the orthogonal
    projector onto the invariants.  These are spanned by the Kronecker-delta
    pairings for O(D), and for SO(3) at even order; SO(3) at order 3 has
    the Levi-Civita tensor.  Pairings are linearly dependent when D is
    small, so the span is taken through an SVD.
    """
    if group == "so3" and n == 3:
        basis = levi_civita().reshape(-1, 1)
    elif group in ("o2", "o3") or (group == "so3" and n % 2 == 0):
        basis = pairing_basis(dim, n)
    else:
        raise ValueError(f"no reference invariants for {group} at order {n}")
    if basis.shape[1] == 0:
        return np.zeros((dim**n, dim**n))
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    q = u[:, s > 1e-9 * s.max()]
    return q @ q.T


def project_invariant(group: str, tensor) -> np.ndarray:
    """The group average of a tensor: its projection onto the invariants."""
    t = np.asarray(tensor, dtype=float)
    return (invariant_projector(group, t.shape[0], t.ndim) @ t.ravel()).reshape(t.shape)


# ---------------------------------------------------------------------------
# Conjugation-orbit moments of a symmetric 3x3 seed v under SO(3) / O(3)


def sym2_moments(diag) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m1, m2 and covariance of g v g^T for v = diag(...).

    m1 = (tr v / 3) I.  m2 is isotropic, a J1 + b (J2 + J3) with
    J1 = d_ij d_kl, J2 = d_ik d_jl, J3 = d_il d_jk; contracting i=j, k=l
    gives 9a + 6b = (tr v)^2 and contracting i=k, j=l gives
    3a + 12b = tr(v^2), whence a = (2 T1^2 - T2) / 15, b = (3 T2 - T1^2) / 30.
    """
    v = np.diag(np.asarray(diag, dtype=float))
    t1, t2 = float(np.trace(v)), float(np.trace(v @ v))
    eye = np.eye(3)
    j1 = np.einsum("ij,kl->ijkl", eye, eye)
    j2 = np.einsum("ik,jl->ijkl", eye, eye)
    j3 = np.einsum("il,jk->ijkl", eye, eye)
    m1 = t1 / 3.0 * eye
    m2 = (2.0 * t1**2 - t2) / 15.0 * j1 + (3.0 * t2 - t1**2) / 30.0 * (j2 + j3)
    return m1, m2, m2 - np.einsum("ij,kl->ijkl", m1, m1)


# ---------------------------------------------------------------------------
# Uniform rotations


def orthogonality_error(mats: np.ndarray) -> float:
    """max |R R^T - I| over a stack, row pair by row pair (cheap for small D)."""
    dim = mats.shape[-1]
    worst = 0.0
    for i in range(dim):
        for k in range(i, dim):
            dot = np.einsum("nj,nj->n", mats[:, i], mats[:, k])
            worst = max(worst, float(np.abs(dot - (i == k)).max()))
    return worst


def determinants(mats: np.ndarray) -> np.ndarray:
    """det of a stack of 2x2 or 3x3 matrices by cofactor expansion."""
    if mats.shape[-1] == 2:
        return mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    return np.einsum("nj,nj->n", mats[:, 0], np.cross(mats[:, 1], mats[:, 2]))


def check_rotations(mats: np.ndarray, group: str) -> Check:
    """Rows orthogonal, det sign right, and trace moments of the uniform law."""
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[0]
    ortho = orthogonality_error(mats)
    if ortho > ORTHO_TOL:
        return Check(False, None, f"rows not orthonormal: max |R R^T - I| = {ortho:.3g}")
    det = determinants(mats)
    if float(np.abs(np.abs(det) - 1.0).max()) > ORTHO_TOL:
        return Check(False, None, "|det R| deviates from 1")
    improper = float(np.mean(det < 0))
    if group.startswith("so"):
        if improper:
            return Check(False, None, f"{improper:.3g} of the {group} samples have det -1")
    elif abs(improper - 0.5) > Z_MAX * 0.5 / math.sqrt(n):
        return Check(False, None, f"improper share {improper:.4f} is not 1/2 for {group}")
    return check_trace_moments(np.trace(mats, axis1=1, axis2=2), group)


def check_quaternions(quats: np.ndarray) -> Check:
    """Unit quaternions whose rotations are uniform on SO(3)."""
    quats = np.asarray(quats, dtype=float)
    norm_err = float(np.abs(np.einsum("ni,ni->n", quats, quats) - 1.0).max())
    if norm_err > ORTHO_TOL:
        return Check(False, None, f"|q| deviates from 1 by {norm_err:.3g}")
    return check_trace_moments(4.0 * quats[:, 0] ** 2 - 1.0, "so3")


def check_trace_moments(trace: np.ndarray, group: str) -> Check:
    n = trace.shape[0]
    for power, expected in ((1, 0.0), (2, TRACE_SQUARE_MEAN[group])):
        values = trace**power
        gap = abs(float(values.mean()) - expected)
        se = float(values.std(ddof=1)) / math.sqrt(n)
        z = gap / se if se > 0 else (math.inf if gap else 0.0)
        if z > Z_MAX:
            return Check(False, None, f"E[(tr R)^{power}] is {z:.1f} standard errors "
                                      f"from {expected:g} ({group}, {n} samples)")
    return Check(True)


def check_grid(c: float, weighted: np.ndarray, elements: np.ndarray, chart: str) -> Check:
    """A normalized grid: exact C, weights summing to 1, orthogonal elements."""
    ortho = orthogonality_error(elements)
    if ortho > ORTHO_TOL:
        return Check(False, None, f"grid elements not orthogonal: {ortho:.3g}")
    err = max(rel_err(c, CHART_C[chart]), rel_err(float(np.sum(weighted)), 1.0))
    return _within(err, REL_TOL, "normalization")


def check_mc(mean, stderr, reference) -> Check:
    """Monte Carlo means within Z_MAX of their reported standard errors."""
    mean, stderr = np.asarray(mean, dtype=float), np.asarray(stderr, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if mean.shape != reference.shape or stderr.shape != reference.shape:
        return Check(False, None, "Monte Carlo moment has the wrong shape")
    excess = np.abs(mean - reference) - (Z_MAX * stderr + 1e-9)
    if float(excess.max()) > 0.0:
        return Check(False, None, "Monte Carlo moment outside 5 standard errors")
    return Check(True)


# ---------------------------------------------------------------------------
# Parsing CLI output


def parse_numbers(text: str) -> np.ndarray:
    """All numbers of a json-lines or csv sample dump, in order."""
    table = str.maketrans({c: " " for c in '{}[]":,Rq\n'})
    return np.fromstring(text.translate(table), sep=" ")


def check_cli(kind: str, stdout: str, expect: dict) -> Check:
    """Check one CLI operation's stdout against its exact reference."""
    if kind in ("sample", "sample-quat"):
        values = parse_numbers(stdout)
        count = expect["count"]
        if kind == "sample-quat":
            if values.size != count * 4:
                return Check(False, None, f"expected {count} quaternions, got {values.size / 4:g}")
            return check_quaternions(values.reshape(count, 4))
        dim = expect["dim"]
        if values.size != count * dim * dim:
            return Check(False, None, f"expected {count} {dim}x{dim} matrices")
        return check_rotations(values.reshape(count, dim, dim), expect["group"])
    if kind == "dim":
        return check_dims(stdout, expect)
    record = json.loads(stdout)
    if kind == "normalize":
        if record["nodes_per_axis"] != expect["nodes_per_axis"]:
            return Check(False, None, "normalize reported other node counts")
        return _within(rel_err(record["C"], CHART_C[expect["chart"]]), REL_TOL, "C")
    if kind == "density":
        ref = density(expect["chart"], expect["point"])
        keys = [k for k in ("density", "closed_form_density") if k in record]
        if len(keys) != expect["values"]:
            return Check(False, None, f"density output has keys {sorted(record)}")
        return _within(max(rel_err(record[k], ref) for k in keys), REL_TOL, "density")
    if kind == "check-chart":
        if record.get("status") != "ok":
            return Check(False, None, "check-chart status is not ok")
        if record["invariance_max_residual"] > record["invariance_tolerance"]:
            return Check(False, None, "invariance residual above tolerance")
        return _within(rel_err(record["C"], CHART_C[expect["chart"]]), REL_TOL, "C")
    if kind == "chart-change":
        scale = density(expect["chart"], expect["point"])
        return _within(abs(record["residual"]) / scale, REL_TOL, "chart-change residual")
    if kind == "orbit":
        return check_orbit(record, expect)
    if kind == "reynolds":
        tensor = np.asarray(json.loads(expect["tensor_json"])["entries"], dtype=float)
        tensor = tensor.reshape((expect["dim"],) * expect["order"])
        out = np.asarray(record["entries"], dtype=float).reshape(tensor.shape)
        return _within(rel_err(out, project_invariant(expect["group"], tensor)), REL_TOL,
                       "Reynolds average")
    raise KeyError(f"no check for {kind!r}")


def check_orbit(record: dict, expect: dict) -> Check:
    m1, m2, cov = sym2_moments(expect["diag"])
    err = max(rel_err(record["m1"], m1), rel_err(record["m2"], m2), rel_err(record["cov"], cov))
    result = _within(err, REL_TOL, "orbit moments")
    if result.ok and "mc_m1" in record:
        for key, ref in (("m1", m1), ("m2", m2)):
            mc = check_mc(record[f"mc_{key}"], record["mc_stderr"][key], ref)
            if not mc.ok:
                return Check(False, err, f"{key}: {mc.detail}")
    return result


def check_dims(stdout: str, expect: dict) -> Check:
    record = json.loads(stdout)
    exact = invariant_dim(expect["group"], expect["order"])
    if record.get("closed") != exact:
        return Check(False, None, f"closed dimension {record.get('closed')} is not {exact}")
    err = abs(record["quadrature"] - exact)
    if err > DIM_TOL:
        return Check(False, None, f"quadrature dimension {record['quadrature']!r} is not {exact}")
    return Check(True, rel_err(record["quadrature"], exact))
