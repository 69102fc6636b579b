"""Tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_keys(workload: str, seed: int, n_rounds: int) -> list[list[str]]:
    stream = workloads.ROUNDS[workload](seed)
    return [[op.key for op in next(stream)] for _ in range(n_rounds)]


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload,n_rounds", [
    ("rangequery", 4), ("artifacts", 1), ("msgstorm", 3), ("drills", 1),
])
def test_one_seed_yields_identical_operations(workload, n_rounds):
    first = first_keys(workload, 11, n_rounds)
    assert first == first_keys(workload, 11, n_rounds)
    assert all(first)


@pytest.mark.parametrize("workload", ["rangequery", "msgstorm"])
def test_seeded_workloads_differ_by_seed(workload):
    assert first_keys(workload, 11, 3) != first_keys(workload, 12, 3)


@pytest.mark.parametrize("size,seed", [(1, 0), (2, 3), (5, 1), (8, 4)])
def test_mixed_reference_matches_the_runtime(size, seed):
    from repro import smpi
    from repro.harness.stress import mixed_workload

    params = dict(rounds=12, reps=2, seed=seed)
    out = smpi.launch(size, mixed_workload, **params)
    assert out.results == workloads.mixed_reference(size, **params)


def ring_op() -> Op:
    return next(workloads.ROUNDS["drills"](0))[0]


def loop(ops: list[Op], *, traced: bool = False, digests: dict | None = None):
    log, _observer, recorder = run.run_loop(
        itertools.repeat(ops), ops, digests or {}, 0.0, traced
    )
    return log, recorder


def test_corrupted_result_is_a_failed_operation():
    good = ring_op()
    corrupted = dataclasses.replace(
        good, run=lambda: dataclasses.replace(good.run(), outcome="aborted")
    )
    log, _ = loop([corrupted, good])
    assert log.attempted == 2
    assert [key for key, _msg in log.failures] == [good.key]
    assert "outcome aborted" in log.failures[0][1]


def test_raising_operation_and_wrong_digest_are_failed_operations():
    def boom():
        raise RuntimeError("boom")

    good = ring_op()
    raising = dataclasses.replace(good, key="raises", run=boom)
    log, _ = loop([raising, good], digests={good.key: "0" * 64})
    assert log.attempted == 2
    messages = [msg for _key, msg in log.failures]
    assert messages[0] == "RuntimeError: boom"
    assert "digest" in messages[1]


def snapshot(recorder: layers.Recorder) -> dict:
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _ in recorder.replacements()}


def test_traced_run_restores_every_patched_attribute_after_a_raise():
    from repro.smpi.runtime import World

    recorder = layers.Recorder()
    before = snapshot(recorder)
    publish = vars(World)["publish_runtime_counters"]
    with pytest.raises(RuntimeError):
        with layers.patched(recorder.replacements()):
            assert snapshot(recorder) != before
            raise RuntimeError("operation raised")
    assert snapshot(recorder) == before

    def boom():
        raise RuntimeError("boom")

    # An untraced round, then a traced round whose operation raises.
    log, recorder = loop([dataclasses.replace(ring_op(), run=boom)], traced=True)
    assert len(log.traced_rounds) == 1 and len(log.failures) == 2
    assert snapshot(recorder) == before
    assert vars(World)["publish_runtime_counters"] is publish


def test_traced_round_records_spans_under_their_operation():
    log, recorder = loop(next(workloads.ROUNDS["drills"](0))[:3], traced=True)
    op_keys = {span[2] for span in recorder.spans if span[3] == "op"}
    assert len(op_keys) == 3
    assert all(span[2] in op_keys for span in recorder.spans)
    names = {span[3] for span in recorder.spans}
    assert {"smpi.launch", "smpi.p2p", "faults.run", "recovery.run"} <= names
    self_s = layers.self_times(recorder.spans)
    assert all(value >= -1e-9 for value in self_s.values())


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_traced_run_reports_overhead_and_every_per_layer_metric():
    out = result_line(run_cli("--workload", "drills", "--seed", "3", "--seconds", "1", "--trace", "1"))
    metrics = out["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    overhead = metrics["trace.overhead_s"]["value"]
    traced, untraced = metrics["trace.wall_s"]["value"], metrics["trace.untraced_wall_s"]["value"]
    assert overhead == pytest.approx(traced - untraced)
    assert metrics["smpi.wakeups.missed"]["value"] == 0
    assert out["correct"] is True and out["attempted"] >= 28


def test_untraced_run_reports_every_end_to_end_metric():
    out = result_line(run_cli("--workload", "drills", "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        reported = out["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_cli("--workload", "drills", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
