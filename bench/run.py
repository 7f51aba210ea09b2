"""haarkit benchmark: end-to-end and per-layer timings of four workloads.

    python3 bench/run.py --workload cli-quadrature --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

Run it from the repository root; it needs only python3 and numpy, and runs
the library from ``src/`` (PYTHONPATH), not an installed copy.

One closed-loop client drives haarkit from outside: one operation at a
time, each started after the previous one finished, from this single
process.  An op is one ``python -m haarkit.cli ...`` subprocess, or one
public library call inside the single child process of the ``library``
workload.  Inputs come from ``--seed`` (see workloads.py); every op's
output is checked against references computed without haarkit (refs.py),
and repeats of an op must reproduce its stdout sha256.

With ``--trace 0`` the op list is cycled for ``--seconds`` (at least one
full pass) and the end-to-end metrics are reported.  With ``--trace 1`` the
op list runs once untraced and once with spans around haarkit's public
functions (spans.py), and the per-layer metrics are reported.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, including each op's
stdout digest and the environment, are written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import refs
import spans
from metrics import Tally, end_to_end, extras
from workloads import WORKLOADS, generate_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"

# Set-up is repeated and its median reported, so one cold start (such as
# the first bytecode compilation in a fresh checkout) does not decide it.
SETUP_REPS = 5
# The warm-up op that ends set-up: a cheap CLI call that imports everything.
WARMUP = ("dim", "--group", "so3", "--order", "2")
# BLAS threads pinned in every child, at most nproc.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A child running longer than this is killed and its op counts as failed.
OP_TIMEOUT_S = 120.0


class ProgramError(RuntimeError):
    """The program under test cannot run at all; no result is printed."""


@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    return env


def spawn(cmd: list[str], env: dict) -> Proc:
    """Run a child to completion; wall time, own CPU and max RSS via wait4."""
    out_path, err_path = OUT / f"stdout-{os.getpid()}", OUT / f"stderr-{os.getpid()}"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, out.read(), err.read().decode(errors="replace"))


def cli_cmd(argv) -> list[str]:
    return [sys.executable, "-m", "haarkit.cli", *argv]


def check_stdout(op, stdout: bytes) -> refs.Check:
    try:
        return refs.check_cli(op.check, stdout.decode("utf-8"), op.expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return refs.Check(False, None, f"unreadable output: {exc!r}")


def set_up(seed: int, inputs: Path, env: dict) -> tuple[dict, list[float]]:
    """Generate the inputs and reach a warm start, SETUP_REPS times."""
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        shutil.rmtree(inputs, ignore_errors=True)
        params = generate_inputs(seed, inputs)
        warm = spawn(cli_cmd(WARMUP), env)
        if warm.rc != 0:
            raise ProgramError(f"warm-up op failed with exit code {warm.rc}: {warm.stderr.strip()}")
        times.append(perf_counter() - start)
    return params, times


# ---------------------------------------------------------------------------
# CLI workloads


def run_cli_ops(ops, env: dict, seconds: float, tally: Tally) -> None:
    """Cycle through the ops until `seconds` have passed, after one full pass."""
    checked = set()
    start = perf_counter()
    i = 0
    while i < len(ops) or perf_counter() - start < seconds:
        op = ops[i % len(ops)]
        i += 1
        proc = spawn(cli_cmd(op.argv), env)
        check = None
        if proc.rc == 0 and op.id not in checked:
            check = check_stdout(op, proc.stdout)
            checked.add(op.id)
        tally.record(op.id, digest=hashlib.sha256(proc.stdout).hexdigest(), wall=proc.wall,
                     cpu=proc.cpu, rc=proc.rc, check=check, rows=op.rows,
                     rss_mb=proc.rss_mb, error=proc.stderr)


def trace_cli_ops(ops, env: dict, tally: Tally, trace: dict) -> float:
    """One traced pass, each op in-process in its own child; returns its wall time."""
    wall = 0.0
    for op in ops:
        proc = spawn([sys.executable, str(BENCH / "child_cli.py"), *op.argv], env)
        wall += proc.wall
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            tally.record(op.id, digest="", rc=proc.rc or 1, error=proc.stderr)
            continue
        tally.record(op.id, digest=report["digest"], rc=report["rc"], error=proc.stderr)
        absorb(trace, report, op.id)
        trace["imports"].append(report["import_s"])
        trace["output_bytes"] += report["output_bytes"]
    return wall


def absorb(trace: dict, report: dict, op_id) -> None:
    spans.merge(trace["spans"], report["spans"], op_id)
    for key, value in report["counts"].items():
        trace["counts"][key] = trace["counts"].get(key, 0) + value


# ---------------------------------------------------------------------------
# Library workload


def run_library(inputs: Path, env: dict, seconds: float, traced: bool, tally: Tally):
    """Run the library child; returns its report, or None if it failed."""
    proc = spawn([sys.executable, str(BENCH / "child_lib.py"), "--inputs", str(inputs),
                  "--seconds", str(seconds), "--trace", str(int(traced))], env)
    try:
        report = json.loads(proc.stdout) if proc.rc == 0 else None
    except ValueError:
        report = None
    if report is None:
        tally.record("library", digest="", rc=proc.rc or 1, error=proc.stderr)
        return None
    for r in report["ops"]:
        tally.record(r["id"], digest=r["digest"],
                     wall=None if traced else r["wall"], cpu=r["cpu"],
                     check=refs.Check(r["ok"], r["rel_err"], r["detail"]),
                     rows=r["rows"], rss_mb=proc.rss_mb)
    report["wall"] = sum(r["wall"] for r in report["ops"])
    return report


# ---------------------------------------------------------------------------
# Running a workload


def environment() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "src_lines": src_lines, "machine": platform.machine()}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    build_ops = WORKLOADS[name]
    env = child_env()
    inputs = OUT / "inputs" / f"{name}-{seed}"
    params, setup_times = set_up(seed, inputs, env)
    tally = Tally()
    trace = {"spans": [], "counts": {}, "imports": [], "output_bytes": 0}
    if build_ops is None:
        first = run_library(inputs, env, 0.0 if traced else seconds, False, tally)
        if traced:
            second = run_library(inputs, env, 0.0, True, tally)
            if first and second:
                absorb(trace, second, None)
                trace["imports"].append(second["import_s"])
                trace["overhead"] = second["wall"] - first["wall"]
    else:
        ops = build_ops(params)
        run_cli_ops(ops, env, 0.0 if traced else seconds, tally)
        if traced:
            trace["overhead"] = trace_cli_ops(ops, env, tally, trace) - tally.pass_wall()
    if traced:
        summary = spans.summarize(trace["spans"], trace["counts"])
        metrics = spans.per_layer_metrics(summary, trace["imports"], trace["output_bytes"],
                                          trace.get("overhead", 0.0))
        extra = {"layers": summary}
    else:
        metrics = end_to_end(tally, setup_times)
        extra = extras(tally)
    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    write_results(name, seed, seconds, traced, result, extra, tally, setup_times, trace)
    print_report(name, seed, seconds, traced, result, extra, tally, setup_times)
    return result


def write_results(name, seed, seconds, traced, result, extra, tally, setup_times, trace):
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
              "environment": environment(),
              "setup_times": setup_times, **result, "extras": extra,
              "failures": tally.failures,
              "ops": {op: {"digest": digest, "wall": tally.wall.get(op, []),
                           "cpu": tally.cpu.get(op, []), "rel_err": tally.rel_errs.get(op)}
                      for op, digest in tally.digests.items()}}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(trace["spans"]), encoding="utf-8")


def print_report(name, seed, seconds, traced, result, extra, tally, setup_times):
    env = environment()
    print(f"workload {name}  seed {seed}  {'traced pass' if traced else f'{seconds:g} s'}  "
          f"(closed loop, 1 client; python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, BLAS threads {env['blas_threads']}, "
          f"src {env['src_lines']} lines)")
    ops, runs = len(tally.wall), tally.executions()
    notes = {"setup_s": f"median of {len(setup_times)} set-ups",
             "wall_s": f"sum of per-op medians, {ops} ops, {runs} timed executions",
             "cpu_s": f"sum of per-op median CPU, {runs} executions",
             "op_p50_s": f"median of {ops} per-op medians",
             "peak_rss_mb": "largest max-RSS of any child"}
    for key, metric in {**result["metrics"], **(extra if not traced else {})}.items():
        value = metric["value"]
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:44s} {text:>14s} {metric['unit']:6s} {notes.get(key, '')}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    for op, reason in tally.failures:
        print(f"  FAILED {op}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="haarkit benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that spawn() kills
    # and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "haarkit" / "cli.py").is_file():
        print(f"error: no haarkit sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except ProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for leftover in OUT.glob(f"std*-{os.getpid()}"):
            leftover.unlink()
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
