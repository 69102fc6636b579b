"""Guttman R-tree with quadratic split, plus STR bulk loading.

This is the data structure Module 4 hands students (citing Guttman 1984).
It supports dynamic insertion (ChooseLeaf by least enlargement, quadratic
node split) and Sort-Tile-Recursive bulk loading, and its range queries
count the node/entry work used by the performance model.

Every node keeps its entries' boxes as two ``(count, d)`` arrays, so a
query tests a whole node with one vectorized comparison.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

import numpy as np

from repro.errors import ValidationError
from repro.spatial.geometry import QueryStats, Rect
from repro.util.validation import check_points, check_positive, require


class _Node:
    """Entry ``i`` is the box ``lo[i]..hi[i]``.

    At a leaf the entries are points, so ``lo is hi``, and ``indices``
    holds their dataset indices; an internal node's box ``i`` bounds
    ``children[i]``.
    """

    __slots__ = ("lo", "hi", "children", "indices")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, children=None, indices=None):
        self.lo = lo
        self.hi = hi
        self.children: Optional[list["_Node"]] = children  # internal nodes only
        self.indices: Optional[np.ndarray] = indices  # leaf nodes only

    @classmethod
    def leaf_of(cls, points: np.ndarray, indices: np.ndarray) -> "_Node":
        return cls(points, points, indices=indices)

    @property
    def leaf(self) -> bool:
        return self.children is None

    @property
    def count(self) -> int:
        return len(self.lo)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The node's minimum bounding box as ``(mins, maxs)``."""
        return self.lo.min(axis=0), self.hi.max(axis=0)


def _area(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Hyper-volume of each box (of the last axis), as :attr:`Rect.area`."""
    return np.prod(hi - lo, axis=-1)


def _row_dot(delta: np.ndarray) -> np.ndarray:
    """``np.dot(row, row)`` for every row, with the same rounding."""
    return np.matmul(delta[:, None, :], delta[:, :, None]).reshape(-1)


class RTree:
    """An R-tree over points (degenerate rectangles at the leaves).

    Args:
        dims: dimensionality of indexed points.
        max_entries: node fan-out M (Guttman's ``M``).
        min_entries: minimum fill m (defaults to ``ceil(0.4 * M)``).
    """

    def __init__(self, dims: int, max_entries: int = 16, min_entries: Optional[int] = None):
        check_positive("dims", dims)
        require(max_entries >= 2, f"max_entries must be >= 2, got {max_entries}")
        self.dims = dims
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(1, math.ceil(0.4 * max_entries))
        )
        require(
            1 <= self.min_entries <= max_entries // 2,
            f"min_entries must be in [1, {max_entries // 2}]",
        )
        self.root = _Node.leaf_of(np.empty((0, dims)), np.empty(0, dtype=np.int64))
        self._size = 0
        # STR packing legally leaves one trailing underfull node per level,
        # so the Guttman min-fill invariant is only checked for trees built
        # by dynamic insertion.
        self._bulk_loaded = False

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf root)."""
        h, node = 1, self.root
        while not node.leaf:
            h += 1
            node = node.children[0]
        return h

    # -- construction -------------------------------------------------------

    def insert(self, point, index: int) -> None:
        """Insert one point with its dataset index (Guttman's Insert)."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dims,):
            raise ValidationError(f"point must have shape ({self.dims},), got {p.shape}")
        split = self._insert(self.root, p, index)
        if split is not None:
            old_root = self.root
            (lo_a, hi_a), (lo_b, hi_b) = old_root.bounds(), split.bounds()
            self.root = _Node(
                np.stack([lo_a, lo_b]), np.stack([hi_a, hi_b]), children=[old_root, split]
            )
        self._size += 1

    @classmethod
    def bulk_load(
        cls, points: np.ndarray, max_entries: int = 16, min_entries: Optional[int] = None
    ) -> "RTree":
        """Sort-Tile-Recursive bulk load (the handout's build path)."""
        pts = check_points("points", points)
        tree = cls(pts.shape[1], max_entries, min_entries)
        groups = tree._str_tile(pts, np.arange(len(pts)), axis=0, capacity=max_entries)
        order = np.concatenate(groups).astype(np.int64)
        packed = pts[order]
        sizes = [len(g) for g in groups]
        starts = np.cumsum([0] + sizes[:-1])
        leaves = [
            _Node.leaf_of(packed[s : s + k], order[s : s + k])
            for s, k in zip(starts.tolist(), sizes)
        ]
        tree.root = tree._build_upward(
            leaves,
            np.minimum.reduceat(packed, starts, axis=0),
            np.maximum.reduceat(packed, starts, axis=0),
        )
        tree._size = len(pts)
        tree._bulk_loaded = True
        return tree

    def _str_tile(
        self, pts: np.ndarray, order: np.ndarray, axis: int, capacity: int
    ) -> list[np.ndarray]:
        """Split ``order`` into runs of ≤ capacity, tiling axis by axis."""
        n = len(order)
        if n <= capacity:
            return [order]
        order = order[np.argsort(pts[order, axis], kind="stable")]
        if axis == pts.shape[1] - 1:
            return [order[i : i + capacity] for i in range(0, n, capacity)]
        pages = math.ceil(n / capacity)
        slabs = math.ceil(pages ** (1.0 / (pts.shape[1] - axis)))
        slab_size = math.ceil(n / slabs)
        out: list[np.ndarray] = []
        for i in range(0, n, slab_size):
            out.extend(self._str_tile(pts, order[i : i + slab_size], axis + 1, capacity))
        return out

    def _build_upward(self, nodes: list[_Node], lo: np.ndarray, hi: np.ndarray) -> _Node:
        """Pack runs of M nodes under parents, level by level; ``lo``/``hi``
        are the bounding boxes of ``nodes``."""
        m = self.max_entries
        while len(nodes) > 1:
            starts = np.arange(0, len(nodes), m)
            nodes = [
                _Node(lo[s : s + m], hi[s : s + m], children=nodes[s : s + m])
                for s in starts.tolist()
            ]
            lo = np.minimum.reduceat(lo, starts, axis=0)
            hi = np.maximum.reduceat(hi, starts, axis=0)
        return nodes[0]

    # -- Guttman insertion internals ----------------------------------------

    def _insert(self, node: _Node, point: np.ndarray, index: int) -> Optional[_Node]:
        """Insert into the subtree; returns a split sibling if it overflowed."""
        if node.leaf:
            node.lo = node.hi = np.vstack([node.lo, point])
            node.indices = np.append(node.indices, np.int64(index))
        else:
            pos = self._choose_subtree(node, point)
            child = node.children[pos]
            split = self._insert(child, point, index)
            node.lo[pos], node.hi[pos] = child.bounds()
            if split is None:
                return None
            lo, hi = split.bounds()
            node.lo = np.vstack([node.lo, lo])
            node.hi = np.vstack([node.hi, hi])
            node.children.append(split)
        return self._split(node) if node.count > self.max_entries else None

    @staticmethod
    def _choose_subtree(node: _Node, point: np.ndarray) -> int:
        """Least-enlargement child (ties broken by smaller area, then position)."""
        area = _area(node.lo, node.hi)
        grown = _area(np.minimum(node.lo, point), np.maximum(node.hi, point))
        return int(np.lexsort((area, grown - area))[0])

    def _split(self, node: _Node) -> _Node:
        """Quadratic split: move some entries into a returned sibling."""
        lo, hi = node.lo, node.hi
        seed_a, seed_b = self._pick_seeds(lo, hi)
        groups: tuple[list[int], list[int]] = ([seed_a], [seed_b])
        box = [(lo[seed_a], hi[seed_a]), (lo[seed_b], hi[seed_b])]
        remaining = np.array([i for i in range(node.count) if i not in (seed_a, seed_b)])
        while len(remaining):
            # If one group must take everything left to reach min fill, do so.
            short = [g for g in (0, 1) if len(groups[g]) + len(remaining) == self.min_entries]
            if short:
                groups[short[0]].extend(remaining.tolist())
                break
            # PickNext: entry with the greatest preference difference.
            rest_lo, rest_hi = lo[remaining], hi[remaining]
            d0, d1 = (
                _area(np.minimum(rest_lo, b_lo), np.maximum(rest_hi, b_hi)) - _area(b_lo, b_hi)
                for b_lo, b_hi in box
            )
            pos = int(np.argmax(np.abs(d0 - d1)))
            i = int(remaining[pos])
            remaining = np.delete(remaining, pos)
            g = 0 if d0[pos] < d1[pos] or (
                d0[pos] == d1[pos] and _area(*box[0]) <= _area(*box[1])
            ) else 1
            groups[g].append(i)
            box[g] = (np.minimum(box[g][0], lo[i]), np.maximum(box[g][1], hi[i]))
        keep, move = groups
        if node.leaf:
            sibling = _Node.leaf_of(lo[move], node.indices[move])
            node.lo = node.hi = lo[keep]
            node.indices = node.indices[keep]
        else:
            sibling = _Node(lo[move], hi[move], children=[node.children[i] for i in move])
            node.lo, node.hi = lo[keep], hi[keep]
            node.children = [node.children[i] for i in keep]
        return sibling

    @staticmethod
    def _pick_seeds(lo: np.ndarray, hi: np.ndarray) -> tuple[int, int]:
        """The pair wasting the most area if grouped together (first pair
        in row-major order on ties)."""
        area = _area(lo, hi)
        grown = _area(np.minimum(lo[:, None], lo[None]), np.maximum(hi[:, None], hi[None]))
        waste = grown - area[:, None] - area[None, :]
        waste[np.tril_indices(len(lo))] = -np.inf
        i, j = np.unravel_index(int(np.argmax(waste)), waste.shape)
        return int(i), int(j)

    # -- queries ---------------------------------------------------------------

    def query_range(self, rect: Rect, stats: Optional[QueryStats] = None) -> np.ndarray:
        """Indices of all points inside ``rect`` (inclusive bounds)."""
        if rect.dims != self.dims:
            raise ValidationError(f"query rect has {rect.dims} dims, index has {self.dims}")
        q_lo, q_hi = rect.mins, rect.maxs
        hits: list[np.ndarray] = []
        local = stats if stats is not None else QueryStats()
        if self._size:
            stack = [self.root]
            while stack:
                node = stack.pop()
                local.nodes_visited += 1
                local.entries_checked += node.count
                if node.leaf:
                    inside = ((node.lo >= q_lo) & (node.lo <= q_hi)).all(axis=1)
                    hits.append(node.indices[inside])
                else:
                    overlap = ((node.lo <= q_hi) & (node.hi >= q_lo)).all(axis=1)
                    children = node.children
                    stack.extend([children[i] for i in np.flatnonzero(overlap).tolist()])
        found = np.sort(np.concatenate(hits)) if hits else np.empty(0, dtype=np.int64)
        local.results += len(found)
        return found

    def query_knn(
        self, point, k: int, stats: Optional[QueryStats] = None
    ) -> np.ndarray:
        """Indices of the ``k`` nearest points (best-first branch and
        bound with the MINDIST bound — Roussopoulos et al. 1995, the
        k-NN search the paper cites as a Module 2 application)."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dims,):
            raise ValidationError(f"query point must have {self.dims} dims")
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        if self._size == 0:
            return np.empty(0, dtype=np.int64)
        k = min(k, self._size)
        local = stats if stats is not None else QueryStats()
        # Priority queue of (bound, tiebreak, is_leaf_entry, payload).
        counter = 0
        heap: list[tuple[float, int, bool, object]] = [(0.0, counter, False, self.root)]
        best: list[tuple[float, int]] = []  # (dist2, index), ascending
        while heap:
            bound, _, is_entry, payload = heapq.heappop(heap)
            if len(best) == k and bound > best[-1][0]:
                break
            if is_entry:
                best.append(payload)  # type: ignore[arg-type]
                best.sort()
                if len(best) > k:
                    best.pop()
                continue
            node = payload
            local.nodes_visited += 1
            local.entries_checked += node.count
            if node.leaf:
                # Squared distance to each point (MINDIST of a point box).
                dist2 = _row_dot(node.lo - p).tolist()
                entries = [(True, (d, idx)) for d, idx in zip(dist2, node.indices.tolist())]
            else:
                delta = np.maximum(node.lo - p, 0.0) + np.maximum(p - node.hi, 0.0)
                dist2 = _row_dot(delta).tolist()
                entries = [(False, child) for child in node.children]
            for d, (is_point, item) in zip(dist2, entries):
                counter += 1
                heapq.heappush(heap, (d, counter, is_point, item))
        local.results += len(best)
        # Ascending distance, ties by index (match the brute-force order).
        best.sort(key=lambda t: (t[0], t[1]))
        return np.array([idx for _, idx in best], dtype=np.int64)

    # -- invariants (used by tests) -----------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        if self._size == 0:
            return
        depths: set[int] = set()

        def walk(node: _Node, depth: int) -> int:
            assert node.count <= self.max_entries, "node overflow"
            if node is not self.root and not self._bulk_loaded:
                assert node.count >= self.min_entries, "node underflow"
            if node is not self.root:
                assert node.count >= 1, "empty node"
            assert node.hi.shape == node.lo.shape == (node.count, self.dims)
            if node.leaf:
                depths.add(depth)
                assert node.lo is node.hi, "leaf entries must be points"
                assert node.indices.shape == (node.count,)
                return node.count
            assert len(node.children) == node.count
            count = 0
            for lo, hi, child in zip(node.lo, node.hi, node.children):
                child_lo, child_hi = child.bounds()
                assert np.all(child_lo >= lo) and np.all(child_hi <= hi), "stale entry rect"
                count += walk(child, depth + 1)
            return count

        total = walk(self.root, 0)
        assert total == self._size, f"size mismatch: {total} != {self._size}"
        assert len(depths) == 1, "leaves at different depths"
