"""Coverage-aware UAV tour planning over a field of IoT nodes.

A UAV hovering at height H with powering range d_EH covers a ground disk of
radius R = sqrt(d_EH^2 - H^2). Greedy maximum coverage puts the nodes into
node-anchored disks: a grid hash finds the pairs within R, at the
``np.hypot`` distance of every path but the exact tour, as compressed sparse
rows in one int32 array, and a lazy greedy heap picks each disk. The UAV
flies a closed tour over the anchors, either heuristic or, for up to 12
points, exact by Held-Karp dynamic programming over Python lists, at the
``math.sqrt(dx * dx + dy * dy)`` distance. The heuristic tour gives each
point its TOUR_NEIGHBOURS nearest points from the same pair search, in
O(n k) memory, starts from a greedy-edge tour over those candidate edges,
whose paths join while their ends differ, and improves it by 2-opt and
Or-opt moves over the candidates, driven by don't-look bits (Bentley 1992;
Johnson & McGeoch 1997), until no candidate move shortens it. Both
tolerances are fixed fractions of a power of two set by the largest length,
so scaling every length by 2^k changes no group and no tour.
"""
from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, permutations

import numpy as np

from .errors import ConfigurationError, InfeasibilityError, check_integer, check_values, is_integer

# Grid cells are this much (relative) wider than the search reach, and at
# least this fraction of the points' extent; see _near_pairs.
CELL_MARGIN = 2.0**-20

# Largest node field the CLI accepts. Grouping and tours take linear memory,
# tens of MB here.
MAX_FIELD_NODES = 100_000

# Largest length the planner takes: node coordinates, coverage radii and d_EH.
# Its square, in coverage_radius_m and the exact solver, stays finite.
MAX_COORDINATE_M = 1e150

EXACT_SOLVER_MAX_POINTS = 12
# Candidate neighbours per point in the heuristic tour search.
TOUR_NEIGHBOURS = 10
# The tour search stops after this many moves per point: a time bound only, as
# every move it makes shortens the tour (see move_threshold_m).
TOUR_MOVES_PER_POINT = 100
# Up to this many points, candidate lists come from one n x n table.
DENSE_NEIGHBOURS_MAX = 64
# Candidate pairs priced per numpy call by the grid searches.
GRID_CHUNK = 1 << 15

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # numpy's PCG64 (O'Neill 2014)
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _unit(length: float) -> float:
    """The power of two at or above ``length`` >= 0, and 1.0 at 0."""
    mantissa, exponent = math.frexp(length)
    return math.ldexp(1.0, exponent - (mantissa == 0.5))


def membership_slack_m(radius_m: float, largest_m: float) -> float:
    """How far past the disk edge a node still counts as covered, given the largest
    coordinate: 2^-37 of the larger length's unit, far above a distance's rounding."""
    return math.ldexp(_unit(max(radius_m, largest_m)), -37)


def move_threshold_m(largest_m: float) -> float:
    """The tour search's move threshold, given the largest |coordinate|: -2^-44 of
    its unit, which exceeds every price's rounding error (see _local_search)."""
    return -math.ldexp(_unit(largest_m), -44)


def coverage_radius_m(uav_height_m: float, eh_distance_m: float) -> float:
    """Ground coverage radius R = sqrt(d_EH^2 - H^2) at hover height H."""
    check_values(">= 0", uav_height_m=uav_height_m)
    check_values("finite", eh_distance_m=eh_distance_m)
    if uav_height_m > eh_distance_m:
        raise InfeasibilityError(
            f"hover height {uav_height_m} m exceeds powering range {eh_distance_m} m"
        )
    return math.sqrt(eh_distance_m**2 - uav_height_m**2)


@dataclass(frozen=True)
class NodeField:
    """Node positions on a rectangular ground area."""

    width_m: float
    height_m: float
    positions: np.ndarray  # shape (n, 2)

    def __post_init__(self) -> None:
        pts = np.asarray(self.positions, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigurationError("positions must have shape (n, 2)")
        if not np.isfinite(pts).all():
            raise ConfigurationError("node positions must be finite")
        if pts.size and (
            pts[:, 0].min() < 0
            or pts[:, 1].min() < 0
            or pts[:, 0].max() > self.width_m
            or pts[:, 1].max() > self.height_m
        ):
            raise ConfigurationError("node positions must lie inside the field")
        pts.flags.writeable = False
        object.__setattr__(self, "positions", pts)

    @property
    def node_count(self) -> int:
        return len(self.positions)


def density_node_count(width_m: float, height_m: float, density_per_cell: float) -> int:
    """Nodes on a width x height field at ``density_per_cell`` per 10 m x 10 m cell;
    a density that is not > 0, or gives no nodes or no finite count, is rejected."""
    nodes = density_per_cell * width_m * height_m / 100.0
    count = round(nodes) if math.isfinite(nodes) else 0
    if not (density_per_cell > 0 and count >= 1):
        raise ConfigurationError(
            f"density_per_cell = {density_per_cell:g} gives {nodes:g} nodes on a {width_m:g} m x "
            f"{height_m:g} m field; need a finite count of at least 1", "density_per_cell"
        )
    return count


def _hasher(const: int, multiplier: int):
    """numpy SeedSequence's 32-bit hash; each call steps its constant."""
    def hash32(word: int) -> int:
        nonlocal const
        word ^= const
        const = const * multiplier & _M32
        word = word * const & _M32
        return word ^ word >> 16
    return hash32


def pcg64_start(seed: int) -> tuple[int, int]:
    """The (state, increment) of numpy's ``PCG64(seed)`` for an integer ``seed`` >= 0
    (as ``operator.index`` reads it), seeded by its ``SeedSequence(seed)``."""
    value = check_integer("seed", seed, 0)
    # 32-bit words, least significant first, mixed into a pool of four.
    words = [value >> s & _M32 for s in range(0, max(value.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    def mix(x: int, y: int) -> int:
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return x ^ x >> 16
    pool = [hashmix(word) for word in (words + [0, 0, 0])[:4]]
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))  # generate_state(4, uint64)
    w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]  # little-endian uint64
    inc = (w[2] << 65 | w[3] << 1 | 1) & _M128
    # From state 0: one step (to inc), add the initial state, one more step.
    return ((inc + (w[0] << 64 | w[1])) * PCG64_MULTIPLIER + inc) & _M128, inc


def generate_nodes(
    width_m: float,
    height_m: float,
    density_per_cell: float,
    seed: int,
    count: int | None = None,
) -> NodeField:
    """Seeded uniform node placement.

    ``density_per_cell`` counts nodes per 10 m x 10 m cell, so 0.25 on a
    100 m x 100 m field yields 25 nodes. An explicit ``count`` overrides
    the density. Same seed, same field, bit for bit, on any numpy version: the
    field of ``np.random.default_rng(seed).uniform``, its PCG64 stream drawn in-repo.
    """
    check_values("> 0", width_m=width_m, height_m=height_m)
    count = (density_node_count(width_m, height_m, density_per_cell) if count is None
             else check_integer("count", count, 1))
    state, inc = pcg64_start(seed)
    # Step the 128-bit state in Python; the XSL-RR output and scaling run in numpy.
    xored, rotation = array("Q"), array("B")
    for _ in range(2 * count):
        state = (state * PCG64_MULTIPLIER + inc) & _M128
        high = state >> 64
        xored.append(high ^ state & _M64)
        rotation.append(high >> 58)
    x = np.frombuffer(xored, dtype=np.uint64)
    r = np.frombuffer(rotation, dtype=np.uint8).astype(np.uint64)
    x = x >> r | x << ((np.uint64(64) - r) & np.uint64(63))
    unit = (x >> np.uint64(11)).astype(float).reshape(count, 2) * 2.0**-53
    return NodeField(width_m, height_m, unit * [width_m, height_m])


@dataclass(frozen=True)
class Groups:
    """Hover-stop groups in O(n) ints: group g, the g-th pick, hovers over node
    ``traversal[g]``, and node i is in group ``group_of[i]``. Each node is in
    one group, and each group holds its own traversal node."""

    traversal: np.ndarray
    group_of: np.ndarray

    def __post_init__(self) -> None:
        ids = {name: np.asarray(getattr(self, name)) for name in ("traversal", "group_of")}
        for name, given in ids.items():
            if given.size and given.dtype.kind not in "iu":  # no float, str or object ids
                raise ConfigurationError(f"{name} must hold integer ids, got {given.dtype}", name)
        traversal, group_of = (np.array(a, np.intp) for a in ids.values())
        if not (traversal.ndim == group_of.ndim == 1
                and ((0 <= traversal) & (traversal < group_of.size)).all()
                and ((0 <= group_of) & (group_of < traversal.size)).all()
                and (group_of[traversal] == np.arange(traversal.size)).all()):
            raise ConfigurationError("each node needs one group; each group, its traversal node")
        traversal.flags.writeable = group_of.flags.writeable = False
        vars(self).update(traversal=traversal, group_of=group_of)  # past the frozen setattr

    def __len__(self) -> int:
        return len(self.traversal)


def _near_pairs(pts: np.ndarray, reach: float, query: np.ndarray):
    """Yield (rows, cols, d): every pair of a ``query`` point, ``query[rows]``,
    and a point ``cols`` (itself included) whose distance ``d``, as
    ``np.hypot(dx, dy)``, is within ``reach``. This is the planner's one pair
    search, a fixed-radius grid hash (Bentley, Stanat & Williams 1977): only
    the 3 x 3 cells around each query point are priced, about GRID_CHUNK
    candidates at a time, and each chunk holds whole rows, in order.

    Cells are square from the lowest corner, and CELL_MARGIN wider than
    ``reach``: at exactly the reach, rounding in the floor division can put a
    pair within reach two cells apart. They are at least the points' extent
    times CELL_MARGIN, which keeps the cell index and its rounding error small.
    A key is ``column * stride + row``, and the stride leaves one empty row
    above the last: the rows next to a point's row, in any one column, are
    one range of the sorted keys that no other column's points fall in.
    """
    corner = pts.min(axis=0)
    cell = max(reach * (1.0 + CELL_MARGIN), float((pts.max(axis=0) - corner).max()) * CELL_MARGIN)
    cells = np.floor((pts - corner) / cell).astype(np.int64)
    stride = int(cells[:, 1].max()) + 2
    key = cells[:, 0] * stride + cells[:, 1]
    by_key = np.argsort(key)
    sorted_key = key[by_key]
    centre = key[query, None] + np.array([-stride, 0, stride])
    first = np.searchsorted(sorted_key, centre - 1)
    counts = np.searchsorted(sorted_key, centre + 1, "right") - first
    per_query = counts.sum(axis=1)
    ends = np.cumsum(per_query)
    cuts = np.searchsorted(ends, np.arange(GRID_CHUNK, ends[-1], GRID_CHUNK), "right").tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(query)]):
        if lo < hi:
            c, f = counts[lo:hi].ravel(), first[lo:hi].ravel()
            # Position t of range s is f[s] + (t - where range s starts in the output).
            skip = np.repeat(f - (np.cumsum(c) - c), c)
            rows = np.repeat(np.arange(lo, hi), per_query[lo:hi])
            cols = by_key[skip + np.arange(len(skip))]
            at = query[rows]
            d = np.hypot(pts[at, 0] - pts[cols, 0], pts[at, 1] - pts[cols, 1])
            keep = d <= reach
            yield rows[keep], cols[keep], d[keep]


def _pairs_within(pts: np.ndarray, reach: float) -> tuple[list[int], np.ndarray]:
    """CSR of every pair within ``reach``, each point with itself: row i,
    ``neighbours[start[i]:start[i + 1]]``, holds every j that ``_near_pairs``
    finds for i, and ``neighbours`` is one int32 array, 4 bytes a pair.
    """
    n = len(pts)
    start = np.zeros(n + 1, dtype=np.int64)
    kept = []
    for rows, cols, _ in _near_pairs(pts, reach, np.arange(n)):
        start[1:] += np.bincount(rows, minlength=n)
        kept.append(cols.astype(np.int32))
    np.cumsum(start, out=start)
    return start.tolist(), np.concatenate(kept)


def form_wpc_groups(node_field: NodeField, radius_m: float) -> Groups:
    """Greedy maximum-coverage grouping of the field's nodes.

    Repeatedly picks the uncovered node whose disk of ``radius_m`` covers the most
    still-uncovered nodes (ties broken by lowest node index), makes it a traversal
    point, and puts the covered nodes in its group; groups are numbered in pick order.
    The radius and the node coordinates must lie in [0, MAX_COORDINATE_M].

    The pairs within reach, at ``np.hypot`` distance as in the tours, come
    from ``_near_pairs`` as an int32 CSR, in O(n + pairs) memory.
    Picks follow Minoux's lazy greedy (1978): gains only fall, so a heap
    entry (-gain, index) that is still current when popped is the argmax,
    lowest index first. A pick decrements gains only over the rows of the
    nodes it newly covers.
    """
    pts = node_field.positions
    largest = float(pts.max(initial=0.0))
    if not 0 <= radius_m <= MAX_COORDINATE_M or largest > MAX_COORDINATE_M:
        raise ConfigurationError(f"coverage radius and node coordinates must be in "
                                 f"[0, {MAX_COORDINATE_M:g}] m, got radius {radius_m:g}")
    n = len(pts)
    if not n:
        return Groups([], [])
    start, neighbours = _pairs_within(pts, radius_m + membership_slack_m(radius_m, largest))
    gains = [start[i + 1] - start[i] for i in range(n)]  # uncovered nodes in each disk
    heap = [(-gain, i) for i, gain in enumerate(gains)]
    heapq.heapify(heap)
    group_of = [-1] * n  # -1: not yet covered
    traversal: list[int] = []
    left = n
    while left:
        stored, best = heapq.heappop(heap)
        if group_of[best] >= 0:
            continue
        if -stored != gains[best]:
            heapq.heappush(heap, (-gains[best], best))
            continue
        for j in neighbours[start[best] : start[best + 1]].tolist():
            if group_of[j] < 0:
                group_of[j] = len(traversal)
                left -= 1
                for k in neighbours[start[j] : start[j + 1]].tolist():
                    gains[k] -= 1
        traversal.append(best)
    return Groups(traversal, group_of)


@dataclass(frozen=True)
class TourPlan:
    """A closed tour: ``visit_order`` maps each stop to the caller's point index."""

    visit_order: tuple[int, ...]
    length_m: float

    def __post_init__(self) -> None:
        if not (all(map(is_integer, self.visit_order))
                and sorted(self.visit_order) == list(range(len(self.visit_order)))):
            raise ConfigurationError("visit_order must be a permutation of the point indices",
                                     "visit_order")

    @property
    def point_count(self) -> int:
        return len(self.visit_order)


def _neighbour_lists(pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's ``min(k, n - 1)`` nearest other points, nearest first.

    Returns the neighbour indices and their distances ``np.hypot(dx, dy)``,
    both of shape (n, k); equal distances rank by index. Up to
    DENSE_NEIGHBOURS_MAX points, one n x n table is ranked. Larger sets take
    each point's pairs within a reach rho from ``_near_pairs``. A point
    with at least k of them is final, as every other point is farther; rho
    doubles for the rest. It starts where cells hold about k/2 points each,
    at sqrt(k A / 2n), A the points' bounding-box area (extent**2 on a line
    along an axis). Memory is O(n k) plus GRID_CHUNK candidates at a time.
    """
    n = len(pts)
    k = min(k, n - 1)
    if n <= DENSE_NEIGHBOURS_MAX or k < 1:
        dist = np.hypot(pts[:, None, 0] - pts[:, 0], pts[:, None, 1] - pts[:, 1])
        dist.flat[:: n + 1] = -1.0  # each point first, ahead of its duplicates
        order = np.argsort(dist, axis=1, kind="stable")[:, 1 : k + 1]
        return order, dist[np.arange(n)[:, None], order]
    neighbours = np.zeros((n, k), dtype=np.int64)
    dist = np.zeros((n, k))
    span = pts.max(axis=0) - pts.min(axis=0)
    extent = float(span.max())
    # Root by root, as A can overflow; at least _near_pairs' smallest cell; 1.0 if all coincide.
    root_area = math.sqrt(extent) * math.sqrt(span.min() or extent)
    reach = max(math.sqrt(k / (2 * n)) * root_area, extent * CELL_MARGIN) or 1.0
    todo = np.arange(n)
    while todo.size:
        done = np.zeros(len(todo), dtype=bool)
        for rows, cols, d in _near_pairs(pts, reach, todo):
            keep = cols != todo[rows]
            rows, cols, d = rows[keep], cols[keep], d[keep]
            # Sort by (row, distance, index), the distance as its dense rank.
            by_d = np.argsort(d)
            rank = np.empty(len(d), dtype=np.int64)
            rank[by_d] = np.cumsum(np.diff(d[by_d], prepend=d[by_d[:1]]) != 0)
            key = rows * len(d) + rank
            order = np.argsort(key)
            if np.any(np.diff(key[order]) == 0):
                order = np.lexsort((cols, key))
            rows, cols, d = rows[order], cols[order], d[order]
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            first = first[np.diff(first, append=len(rows)) >= k]
            take = first[:, None] + np.arange(k)
            neighbours[todo[rows[first]]] = cols[take]
            dist[todo[rows[first]]] = d[take]
            done[rows[first]] = True
        todo = todo[~done]
        reach *= 2
    return neighbours, dist


def _greedy_edge_order(pts: np.ndarray, neighbours: np.ndarray, dist: np.ndarray) -> list[int]:
    """Greedy-edge start tour over the candidate edges.

    Edges are taken shortest first (equal lengths in candidate-list order)
    while both ends have degree below 2, so the edges form paths, and the
    two paths they join differ: ``end[v]`` is the other end of the path
    that ends at v, so an edge (a, b) closes a cycle iff ``end[a] == b``.
    The paths, each walked from its lower-index end, are then chained end to
    end: from the tail of the tour so far, to the nearest free end of
    another path.
    """
    n, k = neighbours.shape
    by_length = np.argsort(dist.ravel(), kind="stable")
    end = list(range(n))
    links: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip((by_length // k).tolist(), neighbours.ravel()[by_length].tolist()):
        if len(links[a]) < 2 and len(links[b]) < 2 and end[a] != b:
            ea, eb = end[a], end[b]
            end[ea], end[eb] = eb, ea
            links[a].append(b)
            links[b].append(a)
    paths = []
    for s in range(n):
        if len(links[s]) < 2 and end[s] >= s:
            path = [s]
            if links[s]:
                prev, cur = s, links[s][0]
                path.append(cur)
                while len(links[cur]) == 2:
                    prev, cur = cur, links[cur][links[cur][0] == prev]
                    path.append(cur)
            paths.append(path)
    tour = paths[0]
    if len(paths) > 1:
        z = pts[:, 0] + 1j * pts[:, 1]
        free_ends = z[[v for path in paths for v in (path[0], path[-1])]]
        free_ends[:2] = np.inf  # path 0 starts the tour
        for _ in range(len(paths) - 1):
            gap = free_ends - z[tour[-1]]
            e = int(np.argmin(np.hypot(gap.real, gap.imag)))
            free_ends[e - e % 2 : e - e % 2 + 2] = np.inf
            tour.extend(paths[e // 2] if e % 2 == 0 else paths[e // 2][::-1])
    return tour


def _local_search(pts: np.ndarray, neighbours: np.ndarray, tour: list[int],
                  threshold: float) -> list[int]:
    """2-opt and Or-opt over the candidate lists, first improvement.

    For each point a and each tour neighbour x of a, a candidate move
    replaces the edge (a, x) by an edge (a, c) to a candidate c of a that
    is nearer than x:
      - 2-opt: also replace (c, d) by (x, d), d being c's tour neighbour
        on the side x is of a;
      - Or-opt: move the segment of 1-3 points that starts at a and leads
        away from x next to c, between c and either of c's tour neighbours.
    A move is made when its delta is below ``threshold``, by 1-3 reversals of the
    tour's shorter side, each one list slice that may wrap past the end. The
    first pass tries 2-opt moves only, the second both kinds. Points wait in a
    queue (Bentley's don't-look bits) and the ends of every changed edge rejoin
    it. A point's search reads only the tour links of the point, of the next two
    points on either side and of the candidates it tried, and those candidates'
    direction. When the second pass's queue runs dry, every point for which one
    of these changed since its last search is queued again, so the search ends
    only when no candidate move improves the tour. Each length is computed where
    it is read, as ``abs`` of a complex difference (``np.hypot``, as in the
    candidate lists), and not kept.

    The threshold, move_threshold_m's -2^-44 units (the unit is the power of two
    at or above the largest |coordinate|), must exceed the rounding error of the
    longest price, Or-opt's six distances and five sums. With u = 2^-53, each
    distance is below 4 units and off by at most 3u of itself (``abs`` is within
    an ulp, 2u, and each coordinate difference within u), and each sum adds at
    most u of a partial result below 24 units: 6 * 3u * 4 + 5 * 24u = 192u =
    1.5 * 2^-46 units in all, 2.7 times below the threshold. So every move made
    shortens the exact tour, no run of moves can cycle, and TOUR_MOVES_PER_POINT
    moves per point only bound the time.
    """
    n = len(tour)
    z = np.ascontiguousarray(pts).view(np.complex128).ravel().tolist()
    near = neighbours.tolist()
    pos = [0] * n
    for i, c in enumerate(tour):
        pos[c] = i
    # Moves made so far; when each point's links or direction last changed;
    # when each point's last search failed (per pass), and the points it read.
    moves = 0
    changed = [0] * n
    read: list[list[int]] = [[]] * n
    segs = min(3, n - 3)

    def reverse(b: int, c: int) -> None:
        """Reverse the tour from b forward to c, or the rest of it if shorter, as one slice
        that may wrap past the list end; then one pass over it sets ``pos`` and ``changed``."""
        i, j = pos[b], pos[c]
        length = (j - i) % n + 1
        if 2 * length > n:
            i, length = (j + 1) % n, n - length
        if length < 2:
            return
        wrap = max(i + length - n, 0)
        stretch = (tour[i : i + length] + tour[:wrap])[::-1]
        tour[i : i + length], tour[:wrap] = stretch[: length - wrap], stretch[length - wrap :]
        now = changed[tour[i - 1]] = changed[tour[i + length - n]] = moves + 1  # points beside it
        for p, v in zip(chain(range(i, i + length - wrap), range(wrap)), stretch):
            pos[v] = p
            changed[v] = now

    def flip(a: int, b: int, c: int) -> None:
        """Swap tour edges (a, b) and (c, c's far neighbour) for (a, c) and (b, that neighbour)."""
        if tour[pos[a] + 1 - n] == b:
            reverse(b, c)
        else:
            reverse(c, b)

    # Per side of a: the offset from a position to its neighbour on x's side
    # and to the other neighbour (as list indices, which may run negative).
    sides = ((-1, 1 - n), (1 - n, -1))

    def find_move(a: int, or_opt: bool) -> tuple[int, ...]:
        """Make the first improving move at a; return the changed edges' ends."""
        pa, za = pos[a], z[a]
        seen = [a]
        for toward, away in sides:
            x = tour[pa + toward]
            zx = z[x]
            dax = abs(za - zx)
            chain = None
            for c in near[a]:
                zc = z[c]
                dac = abs(za - zc)
                if dac >= dax:
                    break
                seen.append(c)
                pc = pos[c]
                d = tour[pc + toward]
                if d != a and dac + abs(zx - z[d]) - dax - abs(zc - z[d]) < threshold:
                    flip(x, a, d)
                    return a, x, c, d
                if not or_opt:
                    continue
                if chain is None:  # a, then the next three points away from x
                    q1 = tour[pa + away]
                    q2 = tour[pos[q1] + away]
                    q3 = tour[pos[q2] + away]
                    chain = (a, q1, q2, q3)
                    zs = (za, z[q1], z[q2], z[q3])
                    gains = (
                        dax + abs(zs[0] - zs[1]) - abs(zx - zs[1]),
                        dax + abs(zs[1] - zs[2]) - abs(zx - zs[2]),
                        dax + abs(zs[2] - zs[3]) - abs(zx - zs[3]),
                    )
                    most = max(gains[:segs])
                    seen += chain
                # Segment m is chain[:m + 1]; it moves between c and e next to q = chain[m + 1].
                top = min(chain.index(c), segs) if c in chain else segs
                for e in (tour[pc - 1], tour[pc + 1 - n]):
                    ze = z[e]
                    dce = abs(zc - ze)
                    if dac - dce - most >= threshold:
                        continue  # no segment gains: dac + |sm e| - dce - gain is larger
                    for m in range(min(top, chain.index(e)) if e in chain else top):
                        if dac + abs(zs[m] - ze) - dce - gains[m] < threshold:
                            # u -> v runs the way a -> sm does: cut (x, a) and (u, v),
                            # turn the segment round next to v, then round again if c is u.
                            sm, q = chain[m], chain[m + 1]
                            u, v = (c, e) if tour[pc + away] == e else (e, c)
                            flip(x, a, u)
                            if u != q:
                                flip(x, u, q)
                            if c == u and sm != a:
                                flip(u, sm, a)
                            return a, x, sm, q, c, e
        searched[a] = moves
        read[a] = seen
        return ()

    cap = TOUR_MOVES_PER_POINT * n
    for or_opt in (False, True):
        searched = [-1] * n
        queue = deque(tour)
        queued = [True] * n
        while queue:
            while queue and moves < cap:
                a = queue.popleft()
                queued[a] = False
                touched = find_move(a, or_opt)
                moves += bool(touched)
                for c in touched:
                    if not queued[c]:
                        queued[c] = True
                        queue.append(c)
            if moves == cap or not or_opt:
                break
            for a in range(n):
                if searched[a] < moves and max(map(changed.__getitem__, read[a])) > searched[a]:
                    queued[a] = True
                    queue.append(a)
    return tour


def _heuristic_order(pts: np.ndarray, threshold: float) -> list[int]:
    """Greedy-edge start, then 2-opt and Or-opt at ``threshold``; the tour starts at 0."""
    if len(pts) < 4:
        return list(range(len(pts)))
    neighbours, dist = _neighbour_lists(pts, TOUR_NEIGHBOURS)
    tour = _local_search(pts, neighbours, _greedy_edge_order(pts, neighbours, dist), threshold)
    start = tour.index(0)
    return tour[start:] + tour[:start]


def _held_karp_order(points: np.ndarray) -> list[int]:
    """Exact closed-tour order by dynamic programming, start fixed at 0: ``best[mask, k]``
    is the length of the shortest path from 0 through the points in ``mask`` (bit k for
    point k) that ends at k, and the point before k; equal lengths keep the lowest."""
    n = len(points)
    if n <= 2:
        return list(range(n))
    xy = points.tolist()
    dist = [[math.sqrt(dx * dx + dy * dy) for dx, dy in ((xa - xb, ya - yb) for xb, yb in xy)]
            for xa, ya in xy]
    best = {(1 << k, k): (dist[0][k], 0) for k in range(1, n)}
    for mask in range(2, 1 << n, 2):  # sets of the points 1..n-1
        for k in range(1, n):
            rest = mask ^ (1 << k)
            if 0 < rest < mask:  # k in mask, and not alone
                best[mask, k] = min((best[rest, j][0] + dist[j][k], j)
                                    for j in range(1, n) if rest >> j & 1)
    full = (1 << n) - 2
    order, mask, k = [0], full, min(range(1, n), key=lambda j: best[full, j][0] + dist[j][0])
    while k:
        order.insert(1, k)
        mask, k = mask ^ (1 << k), best[mask, k][1]
    return order


def plan_tour(points, mode: str = "heuristic") -> TourPlan:
    """Closed tour over the given points, starting from the first point.

    ``heuristic`` builds a greedy-edge tour over each point's
    TOUR_NEIGHBOURS nearest points and improves it by 2-opt and Or-opt
    moves until no candidate move shortens it, in O(n k) memory;
    ``exact`` solves optimally by dynamic programming and is limited to 12
    points. Coordinates must be finite and within +-MAX_COORDINATE_M.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 1:
        raise ConfigurationError("a tour needs at least one point")
    largest = float(np.abs(pts).max())
    if not largest <= MAX_COORDINATE_M:
        raise ConfigurationError(f"tour points must be finite and within +-{MAX_COORDINATE_M:g} m")
    if mode == "exact":
        if len(pts) > EXACT_SOLVER_MAX_POINTS:
            raise ConfigurationError(
                f"exact solver limited to {EXACT_SOLVER_MAX_POINTS} points, got {len(pts)}"
            )
        order = _held_karp_order(pts)
    elif mode == "heuristic":
        order = _heuristic_order(pts, move_threshold_m(largest))
    else:
        raise ConfigurationError(f"unknown tour mode {mode!r}")
    ordered = pts[order]
    legs = np.diff(ordered, axis=0, append=ordered[:1])  # and back to the start
    return TourPlan(tuple(order), float(np.hypot(legs[:, 0], legs[:, 1]).sum()))


@dataclass(frozen=True)
class StrategyResult:
    """Planning outcome for one trajectory strategy."""

    name: str
    height_m: float | None  # None for the one-by-one baseline
    radius_m: float
    groups: Groups
    plan: TourPlan

    @property
    def length_m(self) -> float:
        return self.plan.length_m


def plan_strategy(
    node_field: NodeField, eh_distance_m: float, height_m: float, mode: str = "heuristic"
) -> StrategyResult:
    """The grouped strategy at one hover height: coverage groups at
    R(height) and a tour over their traversal points."""
    radius = coverage_radius_m(height_m, eh_distance_m)
    groups = form_wpc_groups(node_field, radius)
    return StrategyResult(f"H={height_m:g}", height_m, radius, groups,
                          plan_tour(node_field.positions[groups.traversal], mode=mode))


def compare_strategies(
    node_field: NodeField,
    eh_distance_m: float,
    heights_m: list[float],
    mode: str = "heuristic",
) -> tuple[StrategyResult, ...]:
    """The one-by-one baseline, then ``plan_strategy`` at each hover height
    in ``heights_m`` order; two heights may share a name, so a strategy is
    known by its position. The baseline visits every node (coverage radius
    0). All strategies use the same tour solver.
    """
    every = np.arange(node_field.node_count)
    return (StrategyResult("one-by-one", None, 0.0, Groups(every, every),
                           plan_tour(node_field.positions, mode=mode)),
            *(plan_strategy(node_field, eh_distance_m, height, mode) for height in heights_m))
