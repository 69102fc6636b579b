"""The benchmark's four workloads: operations, output checks and digests.

Each workload turns a benchmark seed into an endless stream of *rounds*.
A round is the workload's fixed list of operations; the benchmark issues
them one at a time (a closed loop with one client) and checks each
result before issuing the next.  Every operation carries:

* ``key`` -- names the operation's inputs.  Digests are pinned by key,
  so any operation whose inputs match a recorded one is checked.
* ``run`` -- the call into the program, the only part that is timed.
* ``check`` -- raises :class:`CheckFailed` when the output is wrong; it
  derives the right answer from the inputs, never from a stored value.
* ``digest`` -- a virtual-time digest of the output, compared against
  ``digests.json`` when the key was recorded there.

The program receives only the generated inputs: seeds, sizes and fault
plans.  Nothing here reads a wall clock.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Module 4 run shape: 16 ranks on one node, as in E4 and the quiz bank.
RQ_RANKS = 16
RQ_POINTS = 20_000
RQ_QUERIES = 32

#: Experiments left to ``rangequery``: E4 alone takes about 34 s, and E5
#: depends on the cache E4 fills (see README.md).
ARTIFACTS_EXCLUDED = ("E4", "E5")

#: The fault plans used by the CI drill jobs and docs/module8_faults.md.
DOCS_DRILL_PLAN = {"seed": 5, "drop": [{"src": 2, "dst": 0}], "crash": [{"rank": 3, "at_time": 0.0}]}
KMEANS_CRASH_PLAN = {"seed": 7, "crash": [{"rank": 3, "at_time": 2.5e-5}]}

#: Operations whose virtual-time digest varies from run to run, so no
#: digest is pinned for them; their outputs are still checked and their
#: distinct digests are counted.  The obs ``sort`` workload's makespan
#: takes one of a few values, depending on the thread schedule, and its
#: wait-state analysis follows.  The sort recovery drill under its CI
#: crash plan is left out of ``drills`` altogether: it ends ``aborted``
#: in some runs, and a benchmark operation must not fail (see README.md).
UNPINNED = ("drills:obs:sort",)


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    """One operation of a round."""

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], str]
    pinned: bool = True


def sha(obj: Any) -> str:
    """Digest of an object's repr (exact for ints, floats and strings)."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ----------------------------------------------------------- rangequery --


def rangequery_rounds(seed: int) -> Iterator[list[Op]]:
    """One operation per round: the Module 4 comparison on a fresh seed.

    The operation launches the R-tree activity, then the brute-force
    activity, on the same seed; it is checked as a pair, so each pair
    is one operation.  A fresh seed per pair means every operation pays
    the cold cost a student's fresh run pays.
    """
    from repro import smpi
    from repro.cluster import ClusterSpec, Placement
    from repro.data import asteroid_catalog, asteroid_query_boxes
    from repro.modules.module4_range import range_query_activity
    from repro.spatial import Rect

    spec = ClusterSpec.monsoon_like(num_nodes=1)
    placement = Placement.block(spec, RQ_RANKS)

    def make(s: int) -> Op:
        def run():
            return [
                smpi.launch(
                    RQ_RANKS, range_query_activity, n=RQ_POINTS, q=RQ_QUERIES,
                    algorithm=algorithm, seed=s, cluster=spec, placement=placement,
                )
                for algorithm in ("rtree", "brute")
            ]

        def check(outs) -> None:
            points = asteroid_catalog(RQ_POINTS, seed=s).points
            boxes = asteroid_query_boxes(RQ_QUERIES, seed=s)
            want = sum(int(Rect.from_intervals(b).contains_points(points).sum()) for b in boxes)
            got = [out.results[0].global_matches for out in outs]
            expect(got == [want, want], f"global_matches {got}, expected {want} for both")

        return Op(
            key=f"rangequery:n={RQ_POINTS}:q={RQ_QUERIES}:seed={s}",
            run=run,
            check=check,
            digest=lambda outs: sha([(out.elapsed, out.results) for out in outs]),
        )

    rng = random.Random(seed)
    while True:
        yield [make(rng.randrange(2**31))]


# ------------------------------------------------------------ artifacts --


def artifacts_rounds(seed: int) -> Iterator[list[Op]]:
    """Each round is ``repro all`` without E4 and E5, in registry order.

    Experiments take no inputs, so the seed does not change the round.
    """
    from repro.harness import EXPERIMENTS, run_experiment

    def make(experiment_id: str) -> Op:
        def check(report) -> None:
            failed = [k for k, v in report.checks.items() if not v]
            expect(report.passed, f"{experiment_id} failed checks {failed}")

        return Op(
            key=f"artifacts:{experiment_id}",
            run=lambda: run_experiment(experiment_id),
            check=check,
            digest=lambda report: sha(report.text),
        )

    ids = [i for i in EXPERIMENTS if i not in ARTIFACTS_EXCLUDED]
    while True:
        yield [make(i) for i in ids]


# ------------------------------------------------------------- msgstorm --


def mixed_reference(size: int, *, rounds: int, seed: int, reps: int) -> list[int]:
    """Per-rank checksums of :func:`repro.harness.stress.mixed_workload`,
    computed sequentially from its documented schedule."""
    from repro.util.rng import spawn_rng

    rng = spawn_rng(seed, "stress-mix")
    patterns = ("shift", "fanin", "pair", "allreduce", "bcast", "probe")
    sums = [0] * size
    int_nbytes = 8  # payload_nbytes of a Python int
    for rnd in range(rounds):
        pattern = patterns[int(rng.integers(0, len(patterns)))]
        distance = 1 + int(rng.integers(0, max(size - 1, 1)))
        root = int(rng.integers(0, size))
        if size == 1 and pattern not in ("allreduce", "bcast"):
            continue
        for rep in range(reps):
            token = rnd * 1000 + rep * 10
            for rank in range(size):
                if pattern == "shift":
                    sums[rank] += ((rank - distance) % size) * 7 + token
                elif pattern == "fanin" and rank == root:
                    sums[rank] += sum(r * 3 + token for r in range(size) if r != root)
                elif pattern == "pair" and (rank ^ 1) < size:
                    sums[rank] += (rank ^ 1) + token
                elif pattern == "allreduce":
                    sums[rank] += sum(r + token for r in range(size))
                elif pattern == "bcast":
                    sums[rank] += token
                elif pattern == "probe":
                    sums[rank] += (rank - 1) % size + token + int_nbytes
    return sums


def msgstorm_rounds(seed: int) -> Iterator[list[Op]]:
    """Runtime-bound storms at 8, 64 and 32 ranks; only ``mixed`` is seeded."""
    from repro import smpi
    from repro.harness.stress import fanin_storm, mixed_workload, p2p_storm, stress_digest

    def ring(ranks: int, messages: int) -> Op:
        def check(out) -> None:
            expect(out.results == [2 * messages] * ranks, "p2p_storm message counts")

        return Op(
            key=f"msgstorm:p2p_storm:ranks={ranks}:messages={messages}",
            run=lambda: smpi.launch(ranks, p2p_storm, messages=messages),
            check=check,
            digest=stress_digest,
        )

    def fanin(ranks: int, messages: int) -> Op:
        def check(out) -> None:
            want = [(ranks - 1) * messages] + [messages] * (ranks - 1)
            expect(out.results == want, "fanin_storm message counts")

        return Op(
            key=f"msgstorm:fanin_storm:ranks={ranks}:messages={messages}",
            run=lambda: smpi.launch(ranks, fanin_storm, messages=messages),
            check=check,
            digest=stress_digest,
        )

    def mixed(ranks: int, s: int) -> Op:
        params = dict(rounds=20, reps=20, seed=s)

        def check(out) -> None:
            expect(out.results == mixed_reference(ranks, **params), "mixed_workload checksums")

        return Op(
            key=f"msgstorm:mixed_workload:ranks={ranks}:rounds=20:reps=20:seed={s}",
            run=lambda: smpi.launch(ranks, mixed_workload, **params),
            check=check,
            digest=stress_digest,
        )

    rng = random.Random(seed)
    while True:
        yield [ring(8, 800), ring(64, 100), fanin(32, 100), mixed(32, rng.randrange(2**31))]


# --------------------------------------------------------------- drills --


def drills_rounds(seed: int) -> Iterator[list[Op]]:
    """Short public-API runs with the tracer, faults, recovery and sanitizer.

    Every input is a documented plan or a workload default, so the seed
    does not change the round.  Layer entry points are looked up on
    their package at call time, which lets the traced run wrap them.
    """
    from repro import faults, obs, recovery, sanitize
    from repro.faults import FaultPlan
    from repro.harness.stress import stress_digest

    docs_plan = FaultPlan.from_spec(DOCS_DRILL_PLAN)
    kmeans_plan = FaultPlan.from_spec(KMEANS_CRASH_PLAN)

    def outcome_is(want: str) -> Callable[[Any], None]:
        def check(report) -> None:
            expect(report.outcome == want, f"outcome {report.outcome}, expected {want}")

        return check

    def corpus_check(entries) -> None:
        bad = [e.name for e in entries if not e.ok]
        expect(bool(entries) and not bad, f"corpus entries not diagnosed: {bad}")

    def clean_check(report) -> None:
        expect(report.exit_code == 0, f"sanitize exit code {report.exit_code}")

    def recover_op(name: str, plan) -> Op:
        return Op(
            key=f"drills:recover:{name}",
            run=lambda: recovery.run_recoverable(name, plan).report,
            check=outcome_is("recovered"),
            digest=lambda report: sha((report.digest, report.lineage)),
        )

    def obs_op(name: str) -> Op:
        def run():
            out = obs.run_workload(name)
            return out, (
                obs.analyze_wait_states(out.tracer),
                obs.critical_path(out.tracer),
                obs.load_imbalance(out.tracer),
            )

        def check(result) -> None:
            out, (waits, path, imbalance) = result
            expect(out.error is None, f"{name} raised {out.error!r}")
            expect(
                math.isclose(path.length, path.makespan, rel_tol=1e-9, abs_tol=1e-15),
                f"critical path {path.length} does not telescope to makespan {path.makespan}",
            )
            expect(waits.total_wait >= 0 and imbalance.imbalance >= 0, "negative wait or imbalance")

        def digest(result) -> str:
            out, (waits, path, imbalance) = result
            analysis = (sorted(waits.by_kind().items()), path.length, imbalance.imbalance)
            return sha((stress_digest(out), analysis))

        return Op(key=f"drills:obs:{name}", run=run, check=check, digest=digest)

    round_ops = [
        Op(
            key="drills:faults:ring",
            run=lambda: faults.run_under_faults("ring", FaultPlan()),
            check=outcome_is("survived"),
            digest=lambda report: report.digest,
        ),
        Op(
            key="drills:faults:resilient",
            run=lambda: faults.run_under_faults("resilient", docs_plan),
            check=outcome_is("degraded"),
            digest=lambda report: report.digest,
        ),
        recover_op("kmeans", kmeans_plan),
        Op(
            key="drills:sanitize:corpus",
            run=lambda: sanitize.sanitize_corpus(),
            check=corpus_check,
            digest=lambda entries: sha([(e.name, e.report.digest) for e in entries]),
        ),
        Op(
            key="drills:sanitize:sort:n_per_rank=500",
            run=lambda: sanitize.sanitize_workload("sort", n_per_rank=500),
            check=clean_check,
            digest=lambda report: report.digest,
        ),
    ]
    round_ops.extend(obs_op(name) for name in obs.WORKLOADS)
    for op in round_ops:
        op.pinned = op.key not in UNPINNED
    while True:
        yield list(round_ops)


#: each workload's endless stream of rounds, by name and made from a seed.
ROUNDS: dict[str, Callable[[int], Iterator[list[Op]]]] = {
    "rangequery": rangequery_rounds,
    "artifacts": artifacts_rounds,
    "msgstorm": msgstorm_rounds,
    "drills": drills_rounds,
}
