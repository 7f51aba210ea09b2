"""Uniform sampling of SO(2), O(2), SO(3), O(3) through per-coordinate laws.

A group samples through the built-in charts of its row of groups.GROUPS,
the first by default.  Each built-in chart factorizes the uniform density
into independent coordinate laws, its row of CHART_LAWS, which gives both
the sampler (one closed-form draw per coordinate) and the closed-form
density.  Euler needs beta = arccos(1 - 2U), an inverse CDF.  The axis
angle alpha (k = 1) and the hyperpolar half-angle theta (k = 2) share one
law, sin^2(k x / 2) on [0, pi] (_cycloid).  Its CDF (k x - sin k x)/(k pi)
has no closed-form inverse, so that law draws from two uniforms instead,
through the abscissa of a uniform point in the unit half-disk: no iteration
and no tolerance.

Determinism contract: a fresh sampler with the same seed reproduces the
same batch bit for bit on one numpy build and SIMD dispatch path.  The
Euler and cycloid laws invert through np.arccos, np.arcsin and np.arctan2,
whose bits differ between numpy's AVX-512 and AVX2 loops; the Philox
uniforms do not.  Each coordinate axis j draws from its own Philox
stream, Generator(Philox(key=seed).jumped(j)), and O-group coin flips from
axis d's, one past the chart's last, so the laws stay independent of layout.

One routine, _draw, fills any row range [start, start + rows) of a draw, in
chunks of haar.BLOCK_ENTRIES // D^2 rows (_chunks), each cut evenly into
min(WORKERS, rows) blocks for WORKERS threads, one per CPU the process may
use, the caller among them: thread k draws blocks k, k + W, k + 2W, ... of the
W in use, and every thread is joined before _draw returns.  Philox is counter
based, so a block finds its own uniforms in each stream from its first row
(_uniforms): no lock, no shared generator, and neither the block order nor the
range a block falls in matters.  Where numpy lets go of the GIL, a thread
maps, charts and flips (sigma g through np.where where the coin is below 1/2)
into its own rows.  ``sample`` is _draw over all rows; ``sample_chunks``
yields the same rows as SampleBatch chunks, each drawn once when it is asked
for, so a caller that keeps no chunk holds one chunk at any count.  A draw
holds one block budget of temporaries beside its output; neither its bytes nor
its chunks depend on the CPU count, and its bytes on neither the block size
nor the chunking: a law taking two uniforms per row reads one (rows, 2)
row-major array, and every stage after the draws works row by row.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .charts import builtin_chart, builtin_tag
from .groups import UnknownNameError, improper_coset, lookup_group, quat_rotation_matrices
from .haar import HaarDensity, _block_rows


# ---------------------------------------------------------------------------
# Coordinate laws of the built-in charts


def _cycloid_cdf(x, k):
    kx = k * x
    return (kx - np.sin(kx)) / (k * np.pi)


@dataclass(frozen=True)
class Law:
    """One coordinate's factor of a built-in chart's Haar density.  All but
    the uniform draw assume the half-turn axis the built-in charts give them."""

    pdf: Callable  # x -> unnormalized density factor
    mass: Callable  # (lo, hi) -> integral of pdf over [lo, hi]
    # (u_1, ..., u_width, lo, hi) -> x with density pdf / mass on [lo, hi], from
    # width independent uniform arrays; at width 1, the x whose CDF is u
    draw: Callable
    width: int = 1


UNIFORM = Law(np.ones_like, lambda lo, hi: hi - lo, lambda u, lo, hi: lo + (hi - lo) * u)
SINE = Law(np.sin, lambda lo, hi: np.cos(lo) - np.cos(hi), lambda u, lo, hi: np.arccos(1.0 - 2.0 * u))
COSINE = Law(np.cos, lambda lo, hi: np.sin(hi) - np.sin(lo), lambda u, lo, hi: np.arcsin(2.0 * u - 1.0))


def _cycloid(k: float) -> Law:
    """The law sin^2(k x / 2) on [0, pi], for k = 1 or 2, drawn exactly from two uniforms.

    w = sqrt(U1) cos(pi U2), the abscissa of a uniform point in the unit
    half-disk, has density (2/pi) sqrt(1 - w^2) on [-1, 1] (Miles, Biometrika
    52, 1965).  So arccos w has density (2/pi) sin^2, the law at k = 2, and
    2 arccos |w| the law at k = 1.  Each arccos is taken as atan2(r, w), with
    r^2 = 1 - w^2 summed as (1 - U1) + U1 sin^2(pi U2) without cancellation:
    arccos itself loses half its digits near |w| = 1.  pdf = pi/2 times the
    CDF's slope.
    """

    def draw(u1, u2, lo, hi):
        turn = np.pi * u2
        w = np.sqrt(u1) * np.cos(turn)
        r = np.sqrt((1.0 - u1) + u1 * np.sin(turn) ** 2)
        return np.arctan2(r, w) if k == 2.0 else 2.0 * np.arctan2(r, np.abs(w))

    return Law(lambda x: np.sin(k * x / 2.0) ** 2,
               lambda lo, hi: np.pi / 2.0 * (_cycloid_cdf(hi, k) - _cycloid_cdf(lo, k)),
               draw, width=2)


ANGLE, HALF_ANGLE = _cycloid(1.0), _cycloid(2.0)  # axis angle alpha; half-angle theta

# Built-in chart tag -> (sampler alias, one law per coordinate).
CHART_LAWS = {
    "so2-angle": ("angle", (UNIFORM,)),
    "so2-shifted": ("shifted", (UNIFORM,)),
    "so3-euler": ("euler", (UNIFORM, SINE, UNIFORM)),
    "so3-polar": ("polar", (UNIFORM, COSINE, ANGLE)),
    "so3-quat": ("quaternion", (HALF_ANGLE, SINE, UNIFORM)),
}


def closed_form(tag: str) -> HaarDensity:
    """The reference density of a built-in chart with its exact constant.

    The density is the product of the chart's coordinate laws and C the
    product of their masses, the exact integral of that product over the
    domain.  The normalized closed and numeric densities agree even where
    the two constants differ: the axis-angle product cos(psi) sin^2(alpha/2)
    integrates to 2 pi^2, while the numeric |det M| = 4 cos(psi) sin^2(alpha/2)
    gives 8 pi^2.  The numeric engine is the arbiter and the acceptance
    suite checks agreement at 1e-6.
    """
    if tag not in CHART_LAWS:
        raise UnknownNameError(f"no closed-form density for tag {tag!r}; "
                       f"available: {', '.join(sorted(CHART_LAWS))}")
    laws = CHART_LAWS[tag][1]
    chart = builtin_chart(tag)
    c = float(math.prod(law.mass(lo, hi) for law, (lo, hi) in zip(laws, chart.domain)))
    return HaarDensity(chart=chart, C=c, unnormalized=lambda pts: math.prod(
        law.pdf(x) for law, x in zip(laws, pts.T)))


# ---------------------------------------------------------------------------
# Samplers


@dataclass(frozen=True)
class SamplerConfig:
    group: str  # a tag of groups.GROUPS
    chart: str = ""  # built-in chart tag or alias; default: the group's first chart
    seed: int = 0
    count: int = 1

    def __post_init__(self):
        charts = lookup_group(self.group).charts
        name = builtin_tag(self.chart) or self.chart
        tag = next((t for t, (alias, _) in CHART_LAWS.items() if alias == name), name) or charts[0]
        if tag not in charts:
            valid = ", ".join(f"{t} ({CHART_LAWS[t][0]})" for t in charts)
            raise ValueError(f"chart {self.chart!r} does not sample group {self.group!r}; valid: {valid}")
        object.__setattr__(self, "chart", tag)
        for name, value in (("seed", self.seed), ("count", self.count)):  # not 1.5 or True
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.count < 1:
            raise ValueError("count must be positive")


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Samples with coordinates, matrices, and quaternions when applicable."""

    config: SamplerConfig
    coordinates: np.ndarray  # (N, d) chart coordinates of the proper part
    matrices: np.ndarray  # (N, D, D), improper elements already composed
    quaternions: np.ndarray | None = None  # (N, 4) for proper quaternion batches

    def __len__(self) -> int:
        return self.matrices.shape[0]


# Threads that draw a batch's row blocks: the CPUs this process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _uniforms(seed: int, axis: int, start: int, rows: int, width: int = 1) -> np.ndarray:
    """Rows start .. start + rows - 1 of axis's stream, width uniforms per row.  The stream's
    counter starts at axis * 2^128 and steps once per four doubles (Salmon et al., SC 2011)."""
    first = start * width
    bits = np.random.Philox(counter=(axis << 128) + first // 4, key=int(seed))
    return np.random.Generator(bits).random(first % 4 + rows * width)[first % 4:].reshape(rows, width)


def _chunks(count: int, dim: int) -> Iterator[range]:
    """range(count) in chunks of one block budget of D x D matrices, whatever the CPU count."""
    every, step = range(count), _block_rows(dim * dim)
    return (every[start:start + step] for start in every[::step])


def _draw(config: SamplerConfig, rows: range) -> SampleBatch:
    """Rows ``rows`` (a range of step 1) of config's draws, each chunk split over WORKERS threads."""
    tag = config.chart
    chart = builtin_chart(tag)
    group = lookup_group(config.group)
    count, dim = len(rows), group.dim
    coords = np.empty((count, chart.d))
    mats = np.empty((count, dim, dim))
    quats = np.empty((count, 4)) if chart.is_quaternion and group.proper else None
    blocks, failed = [], []
    for c in _chunks(count, dim):  # min(WORKERS, rows) blocks each, their sizes within one
        p = min(WORKERS, len(c))
        blocks += [slice(c.start + len(c) * k // p, c.start + len(c) * (k + 1) // p) for k in range(p)]
    runners = min(WORKERS, len(blocks))

    def run(k: int):
        try:
            for s in blocks[k::runners]:
                if failed:
                    return
                first, size = rows.start + s.start, len(coords[s])
                for j, (law, (lo, hi)) in enumerate(zip(CHART_LAWS[tag][1], chart.domain)):
                    coords[s, j] = law.draw(*_uniforms(config.seed, j, first, size, law.width).T, lo, hi)
                if chart.is_quaternion:
                    q = chart.quaternions_at(coords[s])
                    mats[s] = quat_rotation_matrices(q)
                    if quats is not None:
                        quats[s] = q
                else:
                    mats[s] = chart.evaluate_many(coords[s])
                if not group.proper:
                    coin = _uniforms(config.seed, chart.d, first, size) < 0.5
                    mats[s] = np.where(coin[:, :, None], improper_coset(mats[s]), mats[s])
        except BaseException as exc:  # the others stop before their next block; re-raised below
            failed.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, k))  # carries np.errstate
               for k in range(1, runners)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if failed:
        raise failed[0]
    return SampleBatch(config=config, coordinates=coords, matrices=mats, quaternions=quats)


def sample(config: SamplerConfig) -> SampleBatch:
    """Draw config.count uniform elements of config.group through its chart, block by block."""
    return _draw(config, range(config.count))


def sample_chunks(config: SamplerConfig) -> Iterator[SampleBatch]:
    """sample(config) as consecutive chunks (_chunks) in row order.

    Each chunk is drawn when it is asked for and holds only its own rows, so a
    caller that drops one before asking for the next holds one chunk at any
    count.  The chunks concatenate to the bytes of sample(config); each carries
    config itself, whose count is that of the whole draw.
    """
    return (_draw(config, chunk) for chunk in _chunks(config.count, lookup_group(config.group).dim))
