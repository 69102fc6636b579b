"""Golden R-tree work counters.

Module 4 charges virtual time from each range query's ``nodes_visited``
and ``entries_checked``, so any change to the R-tree's layout or
traversal must leave those counters, the matched indices and the k-NN
answers exactly as they were.  ``data/rtree_golden.json`` holds them for
bulk-loaded and dynamically inserted trees, fan-outs 4, 8 and 16 and
three seeds.  Re-record (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/spatial/test_rtree_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import uniform_points
from repro.spatial import QueryStats, Rect, RTree

GOLDEN = Path(__file__).parent / "data" / "rtree_golden.json"
N_POINTS = 500
N_BOXES = 64
N_KNN = 16
SEEDS = (3, 17, 29)
FANOUTS = (4, 8, 16)
BUILDS = ("bulk", "insert")


def _digest(indices: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(indices, dtype=np.int64).tobytes()).hexdigest()


def _tree(build: str, points: np.ndarray, max_entries: int) -> RTree:
    if build == "bulk":
        return RTree.bulk_load(points, max_entries=max_entries)
    tree = RTree(dims=points.shape[1], max_entries=max_entries)
    for i, p in enumerate(points):
        tree.insert(p, i)
    return tree


def _case(build: str, max_entries: int, seed: int) -> dict:
    """Per-query (digest, nodes_visited, entries_checked) for one tree."""
    points = uniform_points(N_POINTS, 2, seed=seed)
    tree = _tree(build, points, max_entries)
    rng = np.random.default_rng(seed + 1000)
    lo = rng.uniform(-0.1, 0.9, size=(N_BOXES, 2))
    hi = lo + rng.uniform(0.0, 0.4, size=(N_BOXES, 2))
    ranges = []
    for box_lo, box_hi in zip(lo, hi):
        stats = QueryStats()
        found = tree.query_range(Rect(box_lo, box_hi), stats)
        ranges.append([_digest(found), stats.nodes_visited, stats.entries_checked])
    knn = []
    for point, k in zip(rng.random((N_KNN, 2)), rng.integers(1, 24, size=N_KNN)):
        stats = QueryStats()
        found = tree.query_knn(point, int(k), stats)
        knn.append([_digest(found), stats.nodes_visited, stats.entries_checked])
    return {"height": tree.height, "range": ranges, "knn": knn}


def _key(build: str, max_entries: int, seed: int) -> str:
    return f"{build}:M={max_entries}:seed={seed}"


CASES = [(b, m, s) for b in BUILDS for m in FANOUTS for s in SEEDS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("build,max_entries,seed", CASES)
def test_rtree_counters_match_golden(golden, build, max_entries, seed):
    want = golden[_key(build, max_entries, seed)]
    got = _case(build, max_entries, seed)
    assert got["height"] == want["height"]
    assert got["range"] == want["range"]
    assert got["knn"] == want["knn"]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*c) for c in CASES)
    assert all(len(v["range"]) == N_BOXES for v in golden.values())


def _dump(record: dict) -> str:
    """One case per line, so a re-recording diffs case by case."""
    lines = [f"{json.dumps(k)}: {json.dumps(record[k], sort_keys=True)}" for k in sorted(record)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    record = {_key(*c): _case(*c) for c in CASES}
    GOLDEN.write_text(_dump(record))
    print(f"wrote {len(record)} cases to {GOLDEN}")
