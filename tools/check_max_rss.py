"""Exit codes and max RSS of the installed ``haarkit`` command, one child per case.

    python tools/check_max_rss.py

Each case runs as a child of this process, in a temporary directory that
holds the order-6 tensor file t6.json, with stdout discarded.  Its max
RSS is read by ``os.wait4`` and must stay under the case's bound in MB.  On
Linux a child's max RSS starts at the high-water RSS of the process that
spawned it, so this parent imports nothing beyond the standard library.  A
case that expects a failure also checks that stderr is one line with the
given prefix.  Exits nonzero on the first case that misses.
"""

import json
import os
import subprocess
import sys
import tempfile

SAMPLE_1E6 = ("from haarkit import SamplerConfig, sample; "
              "sample(SamplerConfig(group='o3', chart='quaternion', count=10**6))")

# (argv, exit code, max RSS bound in MB, stderr prefix of a one-line refusal or None)
CASES = [
    # an order whose 2^n overflows is refused before the n + 2 class nodes are built
    (["timeout", "5", "haarkit", "dim", "--group", "so2", "--order", "100000000"], 2, 100,
     "numerical failure: "),
    # an order-6 average on a chart's 32^3 grid sums node slices, each rotated into two block
    # buffers by act_batch (40.0 MB; 45.7 with numpy.random loaded and one einsum per mode),
    # far below the 32^3 x 3^6 stack of rotated tensors (408 MB unsliced)
    (["haarkit", "reynolds", "--group", "so3", "--tensor", "t6.json", "--chart", "builtin:so3-euler"],
     0, 50, None),
    # a 10^6-draw sampler holds one block of temporaries beside its 92 MiB output
    ([sys.executable, "-c", SAMPLE_1E6], 0, 150, None),
    # normalize fills the density kernel in node blocks: one block of chart temporaries
    # beside the 48^3 grid it keeps (82.7 MB of max RSS with the kernel on the whole grid),
    # and loads its chart without numpy.random (49.7 MB; 55.6 when validation imported it)
    (["haarkit", "normalize", "--chart", "builtin:so3-polar", "--nodes", "48"], 0, 62, None),
    # Monte Carlo moments hold one chunk of draws and its orbit points, whose outer powers they
    # form once per row block in one buffer, each block's (n, mean, M2) merged into a running
    # total: 47.1 MB at 10^5 draws and 47.2 MB at 10^6 (54.1 and 115.9 MB with every orbit
    # point held, 63.2 and 268.9 MB with the whole batch beside them, 124.8 MB at 10^5 with
    # the whole stack of outer powers)
    (["haarkit", "orbit-moments", "--group", "so3", "--diag", "1,2,3", "--mc", "100000"],
     0, 53, None),
    (["haarkit", "orbit-moments", "--group", "so3", "--diag", "1,2,3", "--mc", "1000000"],
     0, 56, None),
    # sample formats each chunk as it is drawn and writes each row block's text as it is
    # formatted: 55.9 MB at 10^6 rows (132.0 MB with the whole batch; 79.8 MB at 30 000 rows
    # when the batch was formatted at once, 99-101 MB at 200 000 when its whole text was)
    (["haarkit", "sample", "--group", "so3", "-n", "30000"], 0, 72, None),
    (["haarkit", "sample", "--group", "so3", "--chart", "quaternion", "-n", "200000"],
     0, 85, None),
    (["haarkit", "sample", "--group", "so3", "-n", "1000000"], 0, 70, None),
]


def max_rss_mb(argv: list[str], cwd: str) -> tuple[int, float, str]:
    """Exit code, max RSS in MB and stderr of argv run as a child in cwd."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, usage.ru_maxrss / 1024, err


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "t6.json"), "w", encoding="utf-8") as fh:
            json.dump({"dim": 3, "order": 6, "entries": [(i % 7) - 3.0 for i in range(729)]}, fh)
        for argv, code, bound, refusal in CASES:
            got, rss_mb, err = max_rss_mb(argv, tmp)
            print(f"{' '.join(argv)}: exit {got}, max RSS {rss_mb:.1f} MB (bound {bound})")
            one_line = err.count("\n") == 1 and err.startswith(refusal or "")
            if got != code or rss_mb >= bound or (refusal is not None and not one_line):
                print(f"FAILED: want exit {code} under {bound} MB; stderr was {err!r}")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
