"""The library workload: public haarkit API calls in one process.

    python bench/child_lib.py --inputs DIR --seconds S --trace 0|1

Reads the generated ``params.json`` in DIR, cycles through the call list
until S seconds have passed (always at least one full pass; S = 0 makes
exactly one), and prints one JSON report on stdout: the cold import time,
each execution's wall and CPU time, stdout-equivalent sha256 digest and
reference check, and with --trace 1 the spans and counters.

Why this workload: the CLI never reaches ``reynolds_matrix`` or
``invariant_rank``, and in ``sample`` it hides the samplers and
``invert_cdf`` behind output formatting.  Here the same sampling layer runs
on 10^6 draws with no start-up and no formatting, so a formatting gain that
costs the sampler shows on this workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import Recorder, install


@dataclass(frozen=True)
class LibOp:
    id: str
    call: object  # () -> result
    check: object  # result -> Check
    parts: object  # result -> arrays and scalars whose bytes are digested
    rows: int = 0


# The haarkit, numpy and refs modules are passed in rather than imported at
# the top, so that the import of haarkit.cli in main() is timed cold.


def build_ops(hk, np, refs, params: dict) -> list[LibOp]:
    from workloads import LIBRARY_ROWS, MC_ROWS

    ops = []
    for group in ("so3", "o3"):
        for chart in ("euler", "polar", "quaternion"):
            config = hk.SamplerConfig(group=group, chart=chart, count=LIBRARY_ROWS,
                                      seed=params["sample_seeds"][f"{group}/{chart}"])
            ops.append(LibOp(f"sample/{group}/{chart}", lambda c=config: hk.sample(c),
                             lambda batch, g=group: refs.check_rotations(batch.matrices, g),
                             lambda batch: [batch.matrices], rows=LIBRARY_ROWS))

    diag = params["diag"]["mc"]
    spec = hk.OrbitSpec(group="so3", representation="sym2", seed=hk.as_tensor(np.diag(diag)))
    mc_config = hk.SamplerConfig(group="so3", chart="polar", seed=params["mc_seed"], count=MC_ROWS)
    m2_ref = refs.sym2_moments(diag)[1]
    ops.append(LibOp("mc_moments/so3/m2", lambda: hk.mc_moments(spec, 2, mc_config),
                     lambda r: refs.check_mc(r[0].array, r[1].array, m2_ref),
                     lambda r: [r[0].array, r[1].array]))

    for kind, spec_text in (("zyz", params["zyz"]), ("so3-polar", "builtin:so3-polar")):
        def normalize_grid(s=spec_text):
            density = hk.normalize(hk.load_chart(s))
            return density.C, density.grid()
        ops.append(LibOp(f"normalize+grid/{kind}", normalize_grid,
                         lambda r, k=kind: refs.check_grid(r[0], r[1][1], r[1][2], k),
                         lambda r: [r[0], r[1][1], r[1][2]]))

    def euler_density():
        return hk.normalize(hk.builtin_chart("so3-euler"))

    for n in (3, 4):
        ops.append(LibOp(f"reynolds_matrix/so3/{n}",
                         lambda n=n: hk.reynolds_matrix("so3", n, euler_density()),
                         lambda op, n=n: refs.check_close(op, refs.invariant_projector("so3", 3, n),
                                                          "averaging operator"),
                         lambda op: [op]))
    ops.append(LibOp("invariant_rank/so3/3", lambda: hk.invariant_rank("so3", 3, euler_density()),
                     lambda rank: refs.check_equal(rank, refs.riordan(3), "invariant rank"),
                     lambda rank: [rank]))
    return ops


def digest(np, parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import haarkit.cli  # noqa: F401  (cold import, as the CLI pays it)

    import_s = time.perf_counter() - start
    import haarkit as hk
    import numpy as np

    import refs

    recorder = Recorder()
    if args.trace:
        install(recorder)
    params = json.loads((args.inputs / "params.json").read_text(encoding="utf-8"))
    ops = build_ops(hk, np, refs, params)
    records, checked = [], set()
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < args.seconds:
        op = ops[i % len(ops)]
        i += 1
        recorder.op = op.id
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = op.call()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        # repeats are compared by digest alone
        check = refs.Check(True) if op.id in checked else op.check(result)
        checked.add(op.id)
        records.append({"id": op.id, "wall": wall, "cpu": cpu, "rows": op.rows,
                        "digest": digest(np, op.parts(result)), "ok": check.ok,
                        "rel_err": check.rel_err, "detail": check.detail})
        del result
    json.dump({"import_s": import_s, "ops": records, "spans": recorder.spans,
               "counts": recorder.counts}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
