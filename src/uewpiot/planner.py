"""Coverage-aware UAV tour planning over a field of IoT nodes.

A UAV hovering at height H with powering range d_EH covers a ground disk of
radius R = sqrt(d_EH^2 - H^2). Greedy maximum coverage puts the nodes into
node-anchored disks: a grid hash finds the pairs within R as compressed
sparse rows, in O(n + pairs) memory, and a lazy greedy heap picks each
disk. The UAV flies a closed tour over the anchors: nearest-neighbor plus
first-improvement 2-opt, or exact dynamic programming for up to 12
points. The 2-opt search prices a block of candidate moves in one numpy
call and makes the first improving one in lexicographic order. Tour
positions change only when a move is made, so that is the move a loop
trying one candidate at a time would make next, with bit-identical
deltas, and the tours are the same.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ConfigurationError, InfeasibilityError

# Nodes this close beyond the disk edge still count as covered.
MEMBERSHIP_SLACK_M = 1e-9
# Grid cells are this much (relative) wider than the coverage reach, and at
# least this fraction of the field's extent; see form_wpc_groups.
CELL_MARGIN = 2.0**-20

# Largest node field the CLI accepts. Grouping and tours take linear memory,
# tens of MB here; the tours' O(n^2) time is what makes such a field slow.
MAX_FIELD_NODES = 100_000

EXACT_SOLVER_MAX_POINTS = 12
TWO_OPT_MAX_PASSES = 10_000
# Elements (rows x columns) priced by one 2-opt scan: the floor lets a small
# tour search its whole remaining triangle at once, the cap bounds memory.
TWO_OPT_BLOCK_MIN = 2_048
TWO_OPT_BLOCK_MAX = 1 << 16


def coverage_radius_m(uav_height_m: float, eh_distance_m: float) -> float:
    """Ground coverage radius R = sqrt(d_EH^2 - H^2) at hover height H."""
    if uav_height_m < 0:
        raise ConfigurationError("hover height must be >= 0")
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
    seed: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.positions, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ConfigurationError("positions must have shape (n, 2)")
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
    """Nodes on a width x height field at ``density_per_cell`` per 10 m x 10 m cell."""
    return round(density_per_cell * width_m * height_m / 100.0)


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
    the density. Same seed, same field, bit for bit.
    """
    if width_m <= 0 or height_m <= 0:
        raise ConfigurationError("field area must be positive")
    if count is None:
        if density_per_cell <= 0:
            raise ConfigurationError("node density must be positive")
        count = density_node_count(width_m, height_m, density_per_cell)
    if count < 1:
        raise ConfigurationError(f"field would contain {count} nodes; need at least 1")
    rng = np.random.default_rng(seed)
    positions = rng.uniform([0.0, 0.0], [width_m, height_m], size=(count, 2))
    return NodeField(width_m, height_m, positions, seed)


@dataclass(frozen=True)
class WpcGroup:
    """One hover stop: the traversal node and every node its disk covers."""

    traversal_index: int
    member_indices: frozenset[int]

    def __post_init__(self) -> None:
        if self.traversal_index not in self.member_indices:
            raise ConfigurationError("traversal point must belong to its own group")


def _pairs_within(pts: np.ndarray, reach: float) -> tuple[list[int], list[int]]:
    """CSR lists of every pair within ``reach``, each point with itself.

    Row i, ``neighbours[start[i]:start[i + 1]]``, holds every j that passes
    the dense test ``(d**2).sum(-1) <= reach**2``; only the 3 x 3 grid cells
    around each point are priced. A key is ``column * (rows + 1) + row``,
    so each neighbourhood column is one range of the sorted keys, and the
    unused row ``rows`` keeps an edge range out of the next column.
    """
    n = len(pts)
    origin = pts.min(axis=0)
    extent = float((pts.max(axis=0) - origin).max())
    cell = max(reach * (1.0 + CELL_MARGIN), extent * CELL_MARGIN)
    cells = np.floor((pts - origin) / cell).astype(np.int64)
    stride = int(cells[:, 1].max()) + 2
    key = cells[:, 0] * stride + cells[:, 1]
    by_key = np.argsort(key)
    sorted_key = key[by_key]
    centre = key[:, None] + np.array([-stride, 0, stride])  # the three columns
    first = np.searchsorted(sorted_key, centre - 1, side="left").ravel()
    counts = np.searchsorted(sorted_key, centre + 1, side="right").ravel() - first
    rows = np.repeat(np.arange(n), counts.reshape(n, 3).sum(axis=1))
    # Position k of range r is first[r] + (k - where range r starts in the output).
    skip = np.repeat(first - (np.cumsum(counts) - counts), counts)
    cols = by_key[skip + np.arange(len(skip))]
    d = pts[rows] - pts[cols]
    keep = (d**2).sum(axis=-1) <= reach**2
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=start[1:])
    return start.tolist(), cols[keep].tolist()


def form_wpc_groups(node_field: NodeField, radius_m: float) -> list[WpcGroup]:
    """Greedy maximum-coverage grouping of the field's nodes.

    Repeatedly picks the uncovered node whose disk of ``radius_m`` covers
    the most still-uncovered nodes (ties broken by lowest node index),
    makes it a traversal point, and removes the covered nodes. The
    resulting groups partition the field.

    The pairs within reach come from a fixed-radius grid hash (Bentley,
    Stanat & Williams 1977), in O(n + pairs) memory. Cells are
    ``CELL_MARGIN`` wider than the reach: at exactly the reach, rounding in
    the floor division can put a pair within reach two cells apart. Cells
    are also at least the field's extent times ``CELL_MARGIN``, which keeps
    the cell index and its rounding error small. Picks follow Minoux's lazy
    greedy (1978): gains only fall, so a heap entry (-gain, index) that is
    still current when popped is the argmax, lowest index first. A pick
    decrements gains only over the rows of the nodes it newly covers.
    """
    if not radius_m >= 0:
        raise ConfigurationError("coverage radius must be >= 0")
    pts = node_field.positions
    n = len(pts)
    if not n:
        return []
    start, neighbours = _pairs_within(pts, radius_m + MEMBERSHIP_SLACK_M)
    gains = [start[i + 1] - start[i] for i in range(n)]  # uncovered nodes in each disk
    heap = [(-gain, i) for i, gain in enumerate(gains)]
    heapq.heapify(heap)
    uncovered = [True] * n
    left = n
    groups: list[WpcGroup] = []
    while left:
        stored, best = heapq.heappop(heap)
        if not uncovered[best]:
            continue
        if -stored != gains[best]:
            heapq.heappush(heap, (-gains[best], best))
            continue
        members = [j for j in neighbours[start[best] : start[best + 1]] if uncovered[j]]
        for j in members:
            uncovered[j] = False
        for j in members:
            for k in neighbours[start[j] : start[j + 1]]:
                gains[k] -= 1
        left -= len(members)
        groups.append(WpcGroup(best, frozenset(members)))
    return groups


@dataclass(frozen=True)
class TourPlan:
    """An ordered visit sequence; ``closed`` adds the return leg.

    ``visit_order`` maps each stop back to the caller's point indices.
    """

    ordered_points: np.ndarray  # shape (k, 2)
    closed: bool
    length_m: float
    visit_order: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        pts = np.asarray(self.ordered_points, dtype=float)
        if pts.ndim != 2 or (pts.size and pts.shape[1] != 2):
            raise ConfigurationError("ordered_points must have shape (k, 2)")
        pts.flags.writeable = False
        object.__setattr__(self, "ordered_points", pts)
        if not self.visit_order:
            object.__setattr__(self, "visit_order", tuple(range(len(pts))))
        elif sorted(self.visit_order) != list(range(len(pts))):
            raise ConfigurationError("visit_order must be a permutation of the points")

    @property
    def point_count(self) -> int:
        return len(self.ordered_points)


def _path_length(points: np.ndarray, closed: bool) -> float:
    if len(points) < 2:
        return 0.0
    legs = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = float(legs.sum())
    if closed:
        total += float(np.linalg.norm(points[-1] - points[0]))
    return total


def tour_length_m(plan: TourPlan) -> float:
    """Euclidean length of the plan's legs, plus the return leg when closed."""
    return _path_length(plan.ordered_points, plan.closed)


def _nearest_neighbor_order(points: np.ndarray) -> list[int]:
    n = len(points)
    x, y = points[:, 0], points[:, 1]
    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    order = [0]
    for _ in range(n - 1):
        dx, dy = x - x[order[-1]], y - y[order[-1]]
        dists = np.sqrt(dx * dx + dy * dy)
        dists[visited] = np.inf
        pick = int(np.argmin(dists))  # lowest index wins ties
        visited[pick] = True
        order.append(pick)
    return order


def _two_opt(points: np.ndarray, order: list[int]) -> list[int]:
    """First-improvement 2-opt on a closed tour; position 0 stays fixed.

    Move (i, j) reverses positions i..j; moves are tried in lexicographic
    order and the first with delta < -1e-12 is made. No position changes
    between two moves, so all moves from (i, j0) up to the next one can be
    priced at once: each scan takes a block of rows i.. against every
    column j, and its first hit in row-major order is that next move. The
    block grows after each scan without a hit and shrinks back after a
    move, between TWO_OPT_BLOCK_MIN and TWO_OPT_BLOCK_MAX elements.
    """
    n = len(order)
    if n < 4:
        return list(order)
    order = np.array(order)
    P = points[np.append(order, order[0])]  # row n closes the tour at the fixed start
    x, y = P[:, 0], P[:, 1]  # column views: they follow the reversals of P below
    index = np.arange(n)
    for _ in range(TWO_OPT_MAX_PASSES):
        improved = False
        i, j0, size = 1, 2, TWO_OPT_BLOCK_MIN
        while i < n - 1:
            rows = min(max(size // (n - i), 1), n - 1 - i)
            lo = j0 if rows == 1 else i + 1  # first column
            width = n - lo
            # Edges (a, b) = (row-1, row) and (c, d) = (j, j+1). |c - a| and |d - b|
            # are one table of tour points i-1.. against lo.., shifted by a row and
            # a column; seg[k] is the edge from point i-1+k to i+k.
            ax, ay = x[i - 1 : i + rows, None], y[i - 1 : i + rows, None]
            table = np.hypot(x[lo:] - ax, y[lo:] - ay)
            seg = np.hypot(x[i:] - x[i - 1 : -1], y[i:] - y[i - 1 : -1])
            delta = table[:-1, :-1] + table[1:, 1:] - seg[:rows, None] - seg[lo - i + 1 :]
            hit = delta < -1e-12
            if rows > 1:
                hit &= index[:width] >= index[:rows, None]  # j > row
                hit[0, : j0 - lo] = False  # j >= j0 on the first row
            first = int(hit.argmax())
            if not hit.flat[first]:
                i, j0, size = i + rows, i + rows + 1, min(2 * size, TWO_OPT_BLOCK_MAX)
                continue
            row, j = i + first // width, lo + first % width
            P[row : j + 1] = P[row : j + 1][::-1]
            order[row : j + 1] = order[row : j + 1][::-1]
            improved = True
            # Reversing row..j leaves later positions alone, so the search resumes at j + 1.
            i, j0, size = row, j + 1, TWO_OPT_BLOCK_MIN
            if j0 == n:
                i, j0 = row + 1, row + 2
        if not improved:
            break
    return order.tolist()


def _held_karp_order(points: np.ndarray) -> list[int]:
    """Exact closed-tour order by dynamic programming, start fixed at 0."""
    n = len(points)
    if n <= 2:
        return list(range(n))
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    size = 1 << (n - 1)  # subsets of nodes 1..n-1
    cost = np.full((size, n - 1), math.inf)
    parent = np.full((size, n - 1), -1, dtype=int)
    for j in range(n - 1):
        cost[1 << j, j] = dist[0, j + 1]
    for mask in range(size):
        for j in range(n - 1):
            c = cost[mask, j]
            if not math.isfinite(c):
                continue
            for k in range(n - 1):
                if mask & (1 << k):
                    continue
                nmask = mask | (1 << k)
                nc = c + dist[j + 1, k + 1]
                if nc < cost[nmask, k]:
                    cost[nmask, k] = nc
                    parent[nmask, k] = j
    full = size - 1
    totals = cost[full] + dist[1:, 0]
    j = int(np.argmin(totals))
    order_rev = []
    mask = full
    while j >= 0:
        order_rev.append(j + 1)
        pj = parent[mask, j]
        mask ^= 1 << j
        j = pj
    return [0] + order_rev[::-1]


def plan_tour(points, mode: str = "heuristic") -> TourPlan:
    """Closed tour over the given points, starting from the first point.

    ``heuristic`` runs nearest-neighbor construction with 2-opt
    improvement; ``exact`` solves optimally by dynamic programming and is
    limited to 12 points.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 1:
        raise ConfigurationError("a tour needs at least one point")
    if mode == "exact":
        if len(pts) > EXACT_SOLVER_MAX_POINTS:
            raise CapabilityError(
                f"exact solver limited to {EXACT_SOLVER_MAX_POINTS} points, got {len(pts)}"
            )
        order = _held_karp_order(pts)
    elif mode == "heuristic":
        order = _two_opt(pts, _nearest_neighbor_order(pts))
    else:
        raise ConfigurationError(f"unknown tour mode {mode!r}")
    ordered = pts[order]
    return TourPlan(
        ordered,
        closed=True,
        length_m=_path_length(ordered, True),
        visit_order=tuple(order),
    )


@dataclass(frozen=True)
class StrategyResult:
    """Planning outcome for one trajectory strategy."""

    name: str
    height_m: float | None  # None for the one-by-one baseline
    radius_m: float
    groups: tuple[WpcGroup, ...]
    plan: TourPlan

    @property
    def group_count(self) -> int:
        return len(self.groups)

    @property
    def length_m(self) -> float:
        return self.plan.length_m


@dataclass(frozen=True)
class StrategyComparison:
    """Per-strategy tours over one node field at a common powering range."""

    eh_distance_m: float
    results: tuple[StrategyResult, ...]

    def by_name(self, name: str) -> StrategyResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    def saving_fraction(self, name: str) -> float:
        """Relative length saving of a strategy vs the one-by-one baseline."""
        baseline = self.results[0].length_m
        return 1.0 - self.by_name(name).length_m / baseline


def compare_strategies(
    node_field: NodeField,
    eh_distance_m: float,
    heights_m: list[float],
    mode: str = "heuristic",
) -> StrategyComparison:
    """One-by-one baseline plus one grouped strategy per hover height.

    The baseline visits every node (coverage radius 0); each grouped
    strategy forms coverage groups at R(height) and tours the traversal
    points. All strategies use the same tour solver.
    """
    results = []
    baseline_groups = tuple(
        WpcGroup(i, frozenset({i})) for i in range(node_field.node_count)
    )
    results.append(
        StrategyResult(
            name="one-by-one",
            height_m=None,
            radius_m=0.0,
            groups=baseline_groups,
            plan=plan_tour(node_field.positions, mode=mode),
        )
    )
    for height in heights_m:
        radius = coverage_radius_m(height, eh_distance_m)
        groups = tuple(form_wpc_groups(node_field, radius))
        traversal_points = node_field.positions[[g.traversal_index for g in groups]]
        results.append(
            StrategyResult(
                name=f"H={height:g}",
                height_m=height,
                radius_m=radius,
                groups=groups,
                plan=plan_tour(traversal_points, mode=mode),
            )
        )
    return StrategyComparison(eh_distance_m=eh_distance_m, results=tuple(results))
