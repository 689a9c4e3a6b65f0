"""Smoke test of the benchmark itself.

Runs every workload for a few seconds, untraced and traced, with every
answer check on, and checks the result line against BENCHMARK.json; runs
the benchmark where the program's source is missing, which must fail
without a result; and checks the self-time arithmetic on a synthetic
span tree.  Run it either way::

    python3 fjbench/smoke.py
    python3 -m pytest -q fjbench/smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import DEFAULT_SEED, HELD_OUT_SEED, Inputs  # noqa: E402
from spans import Recorder, Span, covered, self_times  # noqa: E402

SMOKE_SECONDS = "2"


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap, and
    # c [8, 12], which outlives it; a has one child d [2, 3]
    spans = [Span(0, "root", None, 0.0, 10.0), Span(1, "a", 0, 1.0, 4.0),
             Span(2, "b", 0, 3.0, 6.0), Span(3, "c", 0, 8.0, 12.0),
             Span(4, "d", 1, 2.0, 3.0)]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}
    assert covered(0.0, 1.0, []) == 0.0
    assert covered(0.0, 5.0, [(1.0, 2.0), (1.5, 3.0), (4.0, 9.0)]) == 3.0


class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_recorder_links_nested_calls_and_unwraps():
    recorder = Recorder()
    originals = dict(_Layer.__dict__)
    recorder.wrap(_Layer, "outer", "outer")
    recorder.wrap(_Layer, "inner", "inner", tag=lambda r: r)
    try:
        assert _Layer().outer(3) == 7  # disabled: no spans
        assert recorder.spans == []
        recorder.enabled = True
        assert _Layer().outer(3) == 7
    finally:
        recorder.unwrap_all()
    inner, outer = recorder.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent, inner.tag) == ("inner", outer.ident, 6)
    assert _Layer.__dict__["outer"] is originals["outer"]
    assert _Layer.__dict__["inner"] is originals["inner"]


def test_write_epochs_insert_every_held_out_row_once():
    inputs = Inputs.build(DEFAULT_SEED)
    _, inserts = inputs.update_split()
    rounds = inputs.write_rounds(inserts)
    for _ in range(2):
        inserted = dict.fromkeys(inserts, 0)
        while True:
            table, rows, reads, last = next(rounds)
            assert 1 <= len(reads) and rows.column_names \
                == inserts[table].column_names
            inserted[table] += len(rows)
            if last:
                break
        assert inserted == {n: len(t) for n, t in inserts.items()}


def _run(cwd, workload, trace, seed=DEFAULT_SEED):
    return subprocess.run(
        [sys.executable, "fjbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_workload(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    # the untraced run on the default seed, the traced one on the held-out
    for trace, key, seed in ((0, "end_to_end", DEFAULT_SEED),
                             (1, "per_layer", HELD_OUT_SEED)):
        proc = _run(ROOT, workload, trace, seed)
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stderr[-2000:]
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expected
        for name, metric in result["metrics"].items():
            value = metric["value"]
            assert isinstance(value, (int, float)) and value == value, name
            if trace == 0:
                assert value > 0, name


def test_plan_cold():
    _check_workload("plan-cold")


def test_http_hot():
    _check_workload("http-hot")


def test_serve_writes():
    _check_workload("serve-writes")


def test_cluster_tcp():
    _check_workload("cluster-tcp")


def test_fails_without_the_program_source():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "fjbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "plan-cold", 0)
        assert proc.returncode != 0
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert not last.startswith("{")


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} smoke tests passed")
