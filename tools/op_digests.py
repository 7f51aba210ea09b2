"""Compare the per-op stdout digests of two benchmark checkouts.

    python3 bench/run.py --workload all --seed 1 --seconds 0 --trace 0   # in each checkout
    python tools/op_digests.py PARENT_DIR CHANGE_DIR [--seed S]

Reads each checkout's bench/out/result-<workload>-seed<S>-trace0.json and
lists every op whose digest differs between the two, is missing from one
side, or is empty (an op that failed records no digest), and every op a run
counted as failed.  Exits 1 if it lists anything or finds no result file,
0 when every op of every workload has the same digest on both sides.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def digests(checkout: Path, seed: int) -> tuple[dict[str, str], int]:
    """{workload/op: digest} over the checkout's untraced results at a seed, and their failed ops."""
    found, failed = {}, 0
    for path in sorted((checkout / "bench" / "out").glob(f"result-*-seed{seed}-trace0.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        failed += record.get("failed", 0)
        for op, entry in record["ops"].items():
            found[f"{record['workload']}/{op}"] = entry["digest"]
    return found, failed


def compare(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per op whose digest differs, is missing on one side, or is empty."""
    lines = []
    for op in sorted(parent.keys() | change.keys()):
        old, new = parent.get(op), change.get(op)
        if old is None or new is None:
            lines.append(f"{op}: only in {'change' if old is None else 'parent'}")
        elif not old or not new:
            lines.append(f"{op}: no digest (a failed op)")
        elif old != new:
            lines.append(f"{op}: {old[:12]} -> {new[:12]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the op digests of two benchmark runs.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--seed", type=int, default=1, help="the runs' --seed (default 1)")
    args = parser.parse_args(argv)
    (parent, parent_failed), (change, change_failed) = (digests(args.parent, args.seed),
                                                        digests(args.change, args.seed))
    if not parent or not change:
        side = args.parent if not parent else args.change
        print(f"no result-*-seed{args.seed}-trace0.json with ops under {side / 'bench' / 'out'}",
              file=sys.stderr)
        return 1
    lines = compare(parent, change)
    lines += [f"{name}: {count} failed ops" for name, count in
              (("parent", parent_failed), ("change", change_failed)) if count]
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"all {len(parent)} op digests equal, 0 failed ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
