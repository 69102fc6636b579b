"""Run one workload of the repo benchmark and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload rangequery --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload drills --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --record-digests      # rewrite perfbench/digests.json

One process runs one workload as a closed loop with one client: it
issues an operation, waits for it, checks its output and its pinned
virtual-time digest, then issues the next.  Operations come in rounds
(the workload's fixed list, see ``workloads.py``); new rounds start
until ``--seconds`` would be exceeded, and every round is complete.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds in one process and prints the per-layer
metrics of the traced rounds, with the tracing overhead.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``README.md`` for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

#: set-up is measured this many times per run, each in a fresh
#: interpreter, and reported as the median.
SETUP_REPEATS = 5
#: the seed whose operations' digests are committed in digests.json.
DEFAULT_SEED = 0
#: rounds of the default seed recorded into digests.json per workload.
RECORD_ROUNDS = {"rangequery": 32, "artifacts": 1, "msgstorm": 24, "drills": 1}

#: the end-to-end metrics in the result line, listed with their bounds in
#: BENCHMARK.json; the others are printed only (see README.md).
RESULT_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


@dataclass
class RunLog:
    """What one run measured and checked."""

    #: seconds of each operation, per untraced and per traced round
    rounds: list[list[float]] = field(default_factory=list)
    traced_rounds: list[list[float]] = field(default_factory=list)
    traced_ops: list[tuple[str, float]] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    digests: dict[str, set] = field(default_factory=lambda: defaultdict(set))
    #: the process's peak resident memory (KiB) at the end of the first round
    peak_rss_kib: int = 0

    @property
    def op_times(self) -> list[float]:
        return [t for times in self.rounds for t in times]

    @property
    def attempted(self) -> int:
        return sum(map(len, self.rounds)) + sum(map(len, self.traced_rounds))


def use_source_tree() -> None:
    """Import the program from this checkout's ``src``, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: the program's source is missing: {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def prepare(workload: str, seed: int):
    """Set-up: import the program and build the first round's inputs."""
    stream = workloads.ROUNDS[workload](seed)
    first = next(stream)
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return stream, first, digests


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from interpreter start to the first operation being ready,
    each in a fresh interpreter running only :func:`prepare`."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{done.stderr}")
    return times


def clear_caches() -> None:
    """Empty every ``functools`` cache of the program and collect garbage,
    so that each round starts as cold as a fresh ``repro`` process and no
    round pays for collecting the previous one's garbage."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_info") and callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()


def run_op(op, log: RunLog, observer, recorder, digests: dict) -> float:
    """Issue, time and check one operation; returns its seconds."""
    missed_before = observer.missed_wakeups
    span = recorder.operation(op.key) if recorder is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            result = op.run()
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
        seconds = time.perf_counter() - start
        log.failures.append((op.key, f"{type(exc).__name__}: {exc}"))
        return seconds
    seconds = time.perf_counter() - start
    try:
        op.check(result)
        missed = observer.missed_wakeups - missed_before
        workloads.expect(missed == 0, f"{missed} lost wakeups rode out the fallback poll")
        digest = op.digest(result)
        log.digests[op.key].add(digest)
        if op.pinned and op.key in digests:
            workloads.expect(
                digest == digests[op.key], f"virtual-time digest {digest[:16]} is not the pinned one"
            )
    except Exception as exc:  # noqa: BLE001 - a failed check must not stop the run
        if not isinstance(exc, workloads.CheckFailed):
            exc = workloads.CheckFailed(f"check raised {type(exc).__name__}: {exc}")
        log.failures.append((op.key, str(exc)))
    return seconds


def run_loop(stream, first, digests: dict, seconds: float, traced: bool):
    """The closed loop.  In a traced run, odd rounds are traced."""
    log = RunLog()
    observer = layers.LaunchObserver()
    recorder = layers.Recorder() if traced else None
    start = time.perf_counter()
    ops = first
    with observer.installed():
        for index in range(sys.maxsize):
            trace_round = traced and index % 2 == 1
            clear_caches()
            times: list[float] = []
            with contextlib.ExitStack() as stack:
                if trace_round:
                    stack.enter_context(layers.patched(recorder.replacements()))
                    observer.recorder = recorder
                    stack.callback(setattr, observer, "recorder", None)
                for op in ops:
                    times.append(run_op(op, log, observer, recorder if trace_round else None, digests))
                    if trace_round:
                        log.traced_ops.append((op.key, times[-1]))
            (log.traced_rounds if trace_round else log.rounds).append(times)
            if index == 0:
                log.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = time.perf_counter() - start
            enough = log.rounds and (log.traced_rounds or not traced)
            if enough and elapsed + sum(times) > seconds:
                break
            ops = next(stream)
    return log, observer, recorder


def round_wall(rounds: list[list[float]]) -> float:
    """Seconds to complete a round's fixed list of operations: the sum,
    over the list, of each operation's median across the run's rounds.
    A slow spell of the host that hits one round is outvoted by the others,
    operation by operation."""
    return sum(statistics.median(times) for times in zip(*rounds))


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(log: RunLog, observer, setup_times: list[float]) -> dict[str, tuple[float, str]]:
    op_times = log.op_times
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (round_wall(log.rounds), "s"),
        "op_p50_s": (statistics.median(op_times), "s"),
        "op_p99_s": (quantile(op_times, 99), "s"),
        "sim_msgs_per_s": (observer.messages / sum(op_times), "msg/s"),
        "peak_rss_mb": (log.peak_rss_kib / 1024.0, "MiB"),
    }


def per_layer(log: RunLog, recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds, per round where a sum."""
    from repro.harness import EXPERIMENTS

    rounds = len(log.traced_rounds)
    time_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    extras: dict[str, list] = defaultdict(list)
    for _id, _parent, _op, name, start, end, _thread, extra in recorder.spans:
        time_s[name] += end - start
        calls[name] += 1
        if extra is not None:
            extras[name].append(extra)
    counts = recorder.counts

    def per_round(value: float) -> float:
        return value / rounds

    queries = extras["spatial.query"]
    distinct_queries = {(s[2], s[7][2]) for s in recorder.spans if s[3] == "spatial.query"}
    gen_calls = extras["data.gen"]
    rollbacks = extras["recovery.run"]
    sanitized = extras["sanitize.run"]
    launch_s = time_s["smpi.launch"]
    m: dict[str, tuple[float, str]] = {
        "smpi.launch_s": (per_round(launch_s), "s"),
        "smpi.launches": (per_round(calls["smpi.launch"]), "count"),
        "smpi.p2p_s": (per_round(time_s["smpi.p2p"]), "s"),
        "smpi.p2p_calls": (per_round(calls["smpi.p2p"]), "count"),
        "smpi.coll_s": (per_round(time_s["smpi.coll"]), "s"),
        "smpi.coll_calls": (per_round(calls["smpi.coll"]), "count"),
        "smpi.msgs_per_host_s": (counts["smpi.messages"] / launch_s if launch_s else 0.0, "msg/s"),
    }
    for name in layers.RUNTIME_COUNTERS:
        m[name] = (per_round(counts[name]), "count")
    m.update({
        "spatial.build_s": (per_round(time_s["spatial.build"]), "s"),
        "spatial.builds": (per_round(calls["spatial.build"]), "count"),
        "spatial.query_s": (per_round(time_s["spatial.query"]), "s"),
        "spatial.queries": (per_round(len(queries)), "count"),
        "spatial.nodes_visited": (per_round(sum(e[0] for e in queries)), "count"),
        "spatial.entries_checked": (per_round(sum(e[1] for e in queries)), "count"),
        "module4.query_redundancy": (
            len(queries) / len(distinct_queries) if distinct_queries else 0.0, "ratio"),
        "data.gen_redundancy": (
            len(gen_calls) / len(set(gen_calls)) if gen_calls else 0.0, "ratio"),
        "data.gen_s": (per_round(time_s["data.gen"]), "s"),
    })
    for _module, attr in layers.KERNELS:
        m[f"kernels.{attr}_s"] = (per_round(time_s[f"kernels.{attr}"]), "s")
        m[f"kernels.{attr}_calls"] = (per_round(calls[f"kernels.{attr}"]), "count")
    op_time: dict[str, float] = defaultdict(float)
    for key, seconds in log.traced_ops:
        op_time[key] += seconds
    for experiment_id in EXPERIMENTS:
        if experiment_id in workloads.ARTIFACTS_EXCLUDED:
            continue
        m[f"experiments.{experiment_id}_s"] = (
            per_round(op_time[f"artifacts:{experiment_id}"]), "s")
    recover_variants = [len(v) for k, v in log.digests.items() if k.startswith("drills:recover:")]
    m.update({
        "cluster.cachesim_s": (per_round(time_s["cluster.cachesim"]), "s"),
        "cluster.cachesim_lines": (per_round(sum(extras["cluster.cachesim"])), "count"),
        "edu.reconstruct_s": (per_round(time_s["edu.reconstruct"]), "s"),
        "edu.reconstruct_calls": (per_round(calls["edu.reconstruct"]), "count"),
        "obs.trace_events": (per_round(counts["obs.trace_events"]), "count"),
        "obs.analysis_s": (per_round(time_s["obs.analysis"]), "s"),
        "faults.run_s": (per_round(time_s["faults.run"]), "s"),
        "faults.events": (per_round(sum(extras["faults.run"])), "count"),
        "recovery.run_s": (per_round(time_s["recovery.run"]), "s"),
        "recovery.rollbacks": (per_round(sum(e[0] for e in rollbacks)), "count"),
        "recovery.checkpoints": (per_round(sum(e[1] for e in rollbacks)), "count"),
        "recovery.digest_variants": (max(recover_variants, default=0), "count"),
        "sanitize.run_s": (per_round(time_s["sanitize.run"]), "s"),
        "sanitize.findings": (per_round(sum(e[0] for e in sanitized)), "count"),
        "sanitize.replays": (per_round(sum(e[1] for e in sanitized)), "count"),
    })
    traced_wall = round_wall(log.traced_rounds)
    untraced_wall = round_wall(log.rounds)
    m.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return m


def record_digests() -> int:
    """Rewrite digests.json from the default seed's first rounds."""
    recorded: dict[str, str] = {}
    for workload, rounds in workloads.ROUNDS.items():
        stream = rounds(DEFAULT_SEED)
        for _ in range(RECORD_ROUNDS[workload]):
            clear_caches()
            for op in next(stream):
                result = op.run()
                op.check(result)
                if not op.pinned:
                    continue
                digest = op.digest(result)
                if recorded.setdefault(op.key, digest) != digest:
                    raise SystemExit(f"error: {op.key} gave two digests in one recording")
        print(f"recorded {workload}: {len(recorded)} digests so far", flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def report(args, log: RunLog, metrics: dict[str, tuple[float, str]], setup_times, recorder) -> None:
    """Human-readable lines (everything but the last line of output)."""
    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} ({mode}): "
          f"{log.attempted} operations attempted, "
          f"{len(log.failures)} failed")
    print(f"  rounds: {len(log.rounds)} untraced, {len(log.traced_rounds)} traced; "
          f"set-up runs: {', '.join(f'{t:.3f}' for t in setup_times)} s")
    n = len(log.op_times)
    beyond = n - math.ceil(0.99 * n)
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_p99_s":
            note = f"  (n={n}, {beyond} samples beyond{'' if beyond >= 10 else '; too few'})"
        print(f"  {name:32s} {value:14.6g} {unit}{note}")
    if args.trace:
        layer_self: dict[str, float] = defaultdict(float)
        for name, seconds in layers.self_times(recorder.spans).items():
            layer_self[name.split(".")[0]] += seconds
        rounds = len(log.traced_rounds)
        print("  self time per traced round, by layer (summed over threads):")
        for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"    {layer:12s} {seconds / rounds:12.6f} s")
    for key, variants in sorted(log.digests.items()):
        if len(variants) > 1:
            print(f"  {key}: {len(variants)} distinct digests in this run")
    for key, message in log.failures[:10]:
        print(f"  FAILED {key}: {message}")


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    use_source_tree()
    if args.setup_only:
        prepare(args.workload, args.seed)
        return 0
    if args.record_digests:
        return record_digests()
    setup_times = measure_setup(args.workload, args.seed)
    stream, first, digests = prepare(args.workload, args.seed)
    log, observer, recorder = run_loop(stream, first, digests, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(log, recorder)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        metrics = end_to_end(log, observer, setup_times)
    report(args, log, metrics, setup_times, recorder)
    if not args.trace:
        metrics = {name: metrics[name] for name in RESULT_METRICS}
    print(json.dumps({
        "correct": not log.failures,
        "attempted": log.attempted,
        "failed": len(log.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
