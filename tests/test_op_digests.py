"""The digest comparison of two benchmark checkouts (tools/op_digests.py)."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "op_digests.py"
_SPEC = importlib.util.spec_from_file_location("op_digests", _PATH)
op_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_digests)


def checkout(root, workloads, seed=1, failed=0):
    """A checkout holding one result file per workload: {workload: {op: digest}}."""
    out = root / "bench" / "out"
    out.mkdir(parents=True)
    for name, ops in workloads.items():
        record = {"workload": name, "seed": seed, "trace": 0, "failed": failed,
                  "ops": {op: {"digest": digest, "wall": [0.1]} for op, digest in ops.items()}}
        (out / f"result-{name}-seed{seed}-trace0.json").write_text(json.dumps(record))
    return root


RUN = {"cli-sample": {"sample/so3": "a" * 64, "sample/o2": "b" * 64}, "library": {"grid": "c" * 64}}


def test_equal_digests_pass(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", RUN)
    change = checkout(tmp_path / "change", RUN)
    assert op_digests.main([str(parent), str(change)]) == 0
    assert capsys.readouterr().out == "all 3 op digests equal, 0 failed ops\n"


def test_a_changed_missing_or_empty_digest_fails(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", RUN)
    change = checkout(tmp_path / "change", {
        "cli-sample": {"sample/so3": "d" * 64, "sample/o2": ""},
        "library": {"grid": "c" * 64, "extra": "e" * 64}})
    assert op_digests.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cli-sample/sample/o2: no digest (a failed op)",
        "cli-sample/sample/so3: aaaaaaaaaaaa -> dddddddddddd",
        "library/extra: only in change"]


def test_failed_ops_and_missing_results_fail(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", RUN)
    change = checkout(tmp_path / "change", RUN, failed=2)  # in each of the two workloads
    assert op_digests.main([str(parent), str(change)]) == 1
    assert capsys.readouterr().out == "change: 4 failed ops\n"
    # another seed has no result files
    assert op_digests.main([str(parent), str(change), "--seed", "7"]) == 1
    assert "no result-*-seed7-trace0.json" in capsys.readouterr().err


def test_traced_results_are_not_read(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", RUN)
    change = checkout(tmp_path / "change", RUN)
    traced = {"workload": "library", "failed": 0, "ops": {"grid": {"digest": "f" * 64}}}
    (change / "bench" / "out" / "result-library-seed1-trace1.json").write_text(json.dumps(traced))
    assert op_digests.main([str(parent), str(change)]) == 0
    capsys.readouterr()
