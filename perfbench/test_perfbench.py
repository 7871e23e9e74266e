"""The benchmark's own tests: exact counts repeat, spans tile the root.

Run from the repository root with ``python3 -m pytest perfbench -q``
(about a minute: each workload is run twice, one untraced and one
traced rep each time).
"""

import functools
import json
import shutil
import subprocess
import sys

import pytest

import run

assert run.bootstrap(), "the program's source is missing"

from scenarios import WORKLOADS  # noqa: E402
from tracing import SpanRecorder, layer_table, self_times  # noqa: E402

#: per-layer counts that must repeat exactly for one seed
EXACT = (
    "db.txn_rows",
    "core.auxiliary.tuples",
    "core.checker.evaluations_per_step",
    "core.checker.reuse_ratio",
    "core.persist.checkpoints",
    "core.persist.replayed_records",
    "ingest.buffer_depth_max",
    "ingest.duplicates",
    "ingest.late",
    "shard.checker_steps",
    "shard.useful_step_ratio",
    "shard.mailbox_depth_max",
)


@functools.lru_cache(maxsize=None)
def one_run(name, seed):
    bench = run.Run(WORKLOADS[name], seed, seconds=0, trace=True)
    bench.execute()
    per_layer = bench.per_layer()
    aux_max = bench.end_to_end()["aux_tuples_max"][0]
    return bench, per_layer, aux_max


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_and_verdicts_check(name):
    first, layers_a, aux_a = one_run(name, 7)
    one_run.cache_clear()
    second, layers_b, aux_b = one_run(name, 7)
    for bench in (first, second):
        assert bench.problems == []
        assert bench.failed == 0 and bench.attempted > 0
    assert first.untraced[0].counts == second.untraced[0].counts
    assert aux_a == aux_b > 0
    for metric in EXACT:
        assert layers_a[metric] == layers_b[metric], metric
    assert layers_a["ingest.late"][0] == 0
    if name == "payments-ops":
        assert layers_a["ingest.duplicates"][0] == first.inputs.replays > 0
        assert first.untraced[0].counts["ingest.identity"] is True
    if name == "sensors-sharded":
        assert first.untraced[0].counts["shard.accounting"] is True
        assert layers_a["shard.checker_steps"][0] == 2 * len(
            first.inputs.stream)


def test_layer_table_tiles_the_root():
    recorder = SpanRecorder()
    recorder.begin("run")
    for step in range(3):
        recorder.step = step
        recorder.begin("core.monitor.step")
        recorder.begin("core.checker.step")
        recorder.closed("db.apply", 1e-6)
        recorder.closed("core.foeval.evaluate", 1e-6)
        recorder.end()
        recorder.begin("core.persist.record")
        recorder.end()
        recorder.end()
    recorder.end()
    spans = recorder.finished()
    root = spans[0]
    table = layer_table(spans, 3)
    assert sum(table.values()) == pytest.approx(
        (root[3] - root[2]) * 1e6 / 3, rel=1e-9)
    assert all(value >= 0 for value in self_times(spans))


def test_children_are_clipped_to_their_parent():
    spans = [
        (0, "run", 0.0, 10.0, -1, -1),
        (1, "db.apply", -1.0, 4.0, 0, 0),  # starts before its parent
        (2, "core.foeval.evaluate", 3.0, 12.0, 0, 0),  # overlaps, overruns
    ]
    assert self_times(spans) == [0.0, 4.0, 6.0]


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    bench, per_layer, _aux = one_run("sensors-hot", 7)
    assert [m["name"] for m in spec["end_to_end"]] == list(
        bench.end_to_end())
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    printed = dict(bench.end_to_end(), **per_layer)
    assert units == {name: unit for name, (_v, unit) in printed.items()}


def test_fails_without_the_program():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_*"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "sensors-hot", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode == 2
    assert done.stdout == ""
