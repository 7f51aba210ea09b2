"""Run one haarkit CLI operation in-process, with spans around its layers.

    python bench/child_cli.py <haarkit argv...>

Times the cold ``import haarkit.cli``, installs the span wrappers, calls
``haarkit.cli.main(argv)`` with stdout captured, and prints one JSON
report (exit code, stdout sha256 and size, spans, counters) on the real
stdout.
"""

import contextlib
import hashlib
import io
import json
import sys
from time import perf_counter

from spans import Recorder, install


def main(argv: list[str]) -> int:
    start = perf_counter()
    import haarkit.cli

    import_s = perf_counter() - start
    recorder = Recorder()
    install(recorder)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        rc = haarkit.cli.main(argv)
    out = captured.getvalue().encode("utf-8")
    json.dump({"rc": rc, "import_s": import_s, "digest": hashlib.sha256(out).hexdigest(),
               "output_bytes": len(out), "spans": recorder.spans, "counts": recorder.counts},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
