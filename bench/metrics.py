"""Per-op bookkeeping and the end-to-end metrics derived from it."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

# name -> unit, in the order the report prints them
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Every executed op of one run: timings, failures, errors and digests.

    An op fails on a nonzero exit, a failed reference check, or stdout whose
    sha256 differs from an earlier execution of the same op.  Only ops that
    succeed contribute timings.
    """

    wall: dict = field(default_factory=dict)  # op id -> [seconds]
    cpu: dict = field(default_factory=dict)  # op id -> [seconds]
    rows: dict = field(default_factory=dict)  # op id -> rotations per execution
    digests: dict = field(default_factory=dict)  # op id -> first stdout sha256
    rel_errs: dict = field(default_factory=dict)  # op id -> worst relative error
    failures: list = field(default_factory=list)  # (op id, reason)
    attempted: int = 0
    peak_rss_mb: float = 0.0

    def same_bytes(self, op_id: str, digest: str) -> bool:
        """Record the digest of an execution; False if it differs from an earlier one."""
        return self.digests.setdefault(op_id, digest) == digest

    def record(self, op_id: str, *, digest: str, wall: float | None = None,
               cpu: float | None = None, rc: int = 0, check=None, rows: int = 0,
               rss_mb: float = 0.0, error: str = "") -> bool:
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        reason = ""
        if rc != 0:
            reason = f"exit code {rc}: {error.strip()[-300:]}"
        elif not self.same_bytes(op_id, digest):
            reason = f"stdout sha256 {digest[:12]} differs from {self.digests[op_id][:12]}"
        elif check is not None and not check.ok:
            reason = check.detail
        if reason:
            self.failures.append((op_id, reason))
            return False
        if check is not None and check.rel_err is not None:
            self.rel_errs[op_id] = max(self.rel_errs.get(op_id, 0.0), check.rel_err)
        if wall is not None:
            self.wall.setdefault(op_id, []).append(wall)
            self.cpu.setdefault(op_id, []).append(cpu)
            self.rows[op_id] = rows
        return True

    @property
    def failed(self) -> int:
        return len(self.failures)

    def executions(self) -> int:
        return sum(len(v) for v in self.wall.values())

    def op_medians(self) -> dict:
        return {op: statistics.median(v) for op, v in self.wall.items()}

    def pass_wall(self) -> float:
        """Wall time of one pass over the op list: the sum of per-op medians."""
        return sum(self.op_medians().values())


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(tally: Tally, setup_times: list[float]) -> dict:
    walls = tally.op_medians()
    values = {
        "setup_s": _median(setup_times),
        "wall_s": sum(walls.values()),
        "cpu_s": sum(_median(v) for v in tally.cpu.values()),
        "op_p50_s": _median(walls.values()),
        "peak_rss_mb": tally.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def extras(tally: Tally) -> dict:
    """Metrics that exist on only some workloads or may be zero."""
    walls = tally.op_medians()
    sampling = [op for op, rows in tally.rows.items() if rows]
    out = {
        "failed_ratio": {"value": tally.failed / max(tally.attempted, 1), "unit": "ratio"},
        "max_rel_err": {"value": max(tally.rel_errs.values(), default=None), "unit": "ratio"},
    }
    if sampling:
        rate = sum(tally.rows[op] for op in sampling) / sum(walls[op] for op in sampling)
        out["samples_per_s"] = {"value": rate, "unit": "1/s"}
    return out
