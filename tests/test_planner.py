"""Planner unit tests.

Tour lengths are checked against an exhaustive-permutation oracle and
grouping against a brute-force minimum disk cover, both implemented here
independently of the planner; exact orders against the numpy-table
Held-Karp kept below, and greedy-edge start tours against the union-find
version kept below. The grid-hash, lazy-greedy grouping is
checked group for group against two dense n x n greedy coverings kept
below as reference oracles (one recounting every gain each round, one
keeping the gains current), and its two arrays against the per-group
records of reference_form_wpc_groups. Heuristic tours are checked by
properties: a permutation starting at point 0, a length equal to the
recomputed one, and no improving candidate 2-opt or Or-opt move left,
found by an enumerator written here from the move definitions and dense
candidate lists, and at 5,000 points by numpy 2-opt and Or-opt certificates.
Groups and tours are also checked by metamorphic relations: axis swap and
power-of-two scaling leave both unchanged, and negation or an x-mirror the
tours. Greedy grouping is pinned against the exact minimum disk cover, an
integer program solved by scipy, on the 100 fields that ``reproduce`` plans.
"""
import heapq
import itertools
import math
import signal
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uewpiot import linkbudget, missionsim, planner
from uewpiot import (
    ConfigurationError,
    InfeasibilityError,
    NodeField,
    TourPlan,
    compare_strategies,
    coverage_radius_m,
    form_wpc_groups,
    generate_nodes,
    plan_tour,
)


def closed_length(points, order):
    pts = np.asarray(points, dtype=float)
    total = 0.0
    for a, b in zip(order, order[1:] + order[:1]):
        total += math.dist(pts[a], pts[b])
    return total


def brute_force_tour_length(points):
    """Optimal closed-tour length by exhaustive permutation (start fixed)."""
    n = len(points)
    best = math.inf
    for perm in itertools.permutations(range(1, n)):
        best = min(best, closed_length(points, [0, *perm]))
    return best


def brute_force_min_cover(points, radius):
    """Smallest number of node-anchored disks of ``radius`` covering all nodes."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    covers = [
        {j for j in range(n) if math.dist(pts[i], pts[j]) <= radius + 1e-9}
        for i in range(n)
    ]
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if set().union(*(covers[c] for c in centers)) == set(range(n)):
                return k
    return n


def candidate_lists(points, k=planner.TOUR_NEIGHBOURS):
    """Each point's min(k, n - 1) nearest others by (distance, index), from all pairs."""
    z = [complex(x, y) for x, y in np.asarray(points, dtype=float).tolist()]
    n = len(z)
    return [
        [j for _, j in sorted((abs(z[i] - z[j]), j) for j in range(n) if j != i)[:k]]
        for i in range(n)
    ]


def improving_candidate_moves(points, order, k=planner.TOUR_NEIGHBOURS):
    """Every candidate 2-opt or Or-opt move on the closed tour ``order`` whose
    delta is below -1e-12, as (kind, a, x, c, ...) tuples.

    For each point a and tour neighbour x of a, a candidate move replaces
    the edge (a, x) by (a, c) for a candidate c of a nearer than x (the
    candidate list read in order, up to the first one that is not). A 2-opt
    move then replaces (c, d) by (x, d), d being c's tour neighbour on the
    side x is of a. An Or-opt move takes the 1-3 points from a away from x
    and puts them between c and either tour neighbour e of c, a next to c.
    Distances are abs of complex differences, as in the planner.
    """
    n = len(order)
    if n < 4:
        return []
    z = [complex(x, y) for x, y in np.asarray(points, dtype=float).tolist()]
    pos = {c: i for i, c in enumerate(order)}

    def dist(i, j):
        return abs(z[i] - z[j])

    def step_from(c, step):
        return order[(pos[c] + step) % n]

    found = []
    for a, near in enumerate(candidate_lists(points, k)):
        for step in (-1, 1):
            x = step_from(a, step)
            dax = dist(a, x)
            for c in near:
                dac = dist(a, c)
                if dac >= dax:
                    break
                d = step_from(c, step)
                if d != a and dac + dist(x, d) - dax - dist(c, d) < -1e-12:
                    found.append(("2-opt", a, x, c, d))
                segment = [a]
                for _ in range(min(3, n - 3)):
                    end, q = segment[-1], step_from(segment[-1], -step)
                    gain = dax + dist(end, q) - dist(x, q)
                    for e in (step_from(c, -1), step_from(c, 1)):
                        if c not in segment and e not in segment:
                            if dac + dist(end, e) - dist(c, e) - gain < -1e-12:
                                found.append(("or-opt", a, x, c, e, len(segment)))
                    segment.append(q)
    return found


def assert_tour_properties(points):
    """The heuristic tour is a permutation from point 0 with its recomputed
    length, and no improving candidate move is left."""
    pts = np.asarray(points, dtype=float)
    plan = plan_tour(pts)
    order = list(plan.visit_order)
    assert sorted(order) == list(range(len(pts)))
    assert order[0] == 0
    assert plan.length_m == pytest.approx(closed_length(pts, order), rel=1e-12, abs=1e-9)
    assert improving_candidate_moves(pts, order) == []
    neighbours, dist = planner._neighbour_lists(pts, planner.TOUR_NEIGHBOURS)
    assert neighbours.tolist() == candidate_lists(pts)


def reference_groups(points, radius):
    """Greedy max coverage that recounts every gain from scratch each round."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    covered = (diff**2).sum(axis=-1) <= (radius + planner.MEMBERSHIP_SLACK_M) ** 2
    uncovered = np.ones(n, dtype=bool)
    groups = []
    while uncovered.any():
        gains = (covered & uncovered[None, :]).sum(axis=1)
        gains[~uncovered] = -1
        best = int(np.argmax(gains))
        members = np.flatnonzero(covered[best] & uncovered)
        groups.append((best, members.tolist()))
        uncovered[members] = False
    return groups


def dense_groups(points, radius):
    """Greedy max coverage over a dense n x n table, gains kept current per pick."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    covered = (diff**2).sum(axis=-1) <= (radius + planner.MEMBERSHIP_SLACK_M) ** 2
    uncovered = np.ones(n, dtype=bool)
    gains = covered.sum(axis=1)
    groups = []
    while uncovered.any():
        best = int(np.argmax(np.where(uncovered, gains, -1)))  # lowest index wins ties
        members = np.flatnonzero(covered[best] & uncovered)
        groups.append((best, members.tolist()))
        uncovered[members] = False
        gains -= covered[:, members].sum(axis=1)
    return groups


def group_lists(groups):
    """(traversal node, members in ascending order) per group, in group order."""
    members = [[] for _ in range(len(groups))]
    for node, group in enumerate(groups.group_of.tolist()):
        members[group].append(node)
    return list(zip(groups.traversal.tolist(), members))


def assert_groups_match_oracles(field, radius):
    groups = form_wpc_groups(field, radius)
    got = group_lists(groups)
    assert got == dense_groups(field.positions, radius)
    assert got == reference_groups(field.positions, radius)
    return groups


def assert_matches_references(field, radius):
    groups = assert_groups_match_oracles(field, radius)
    for pts in (field.positions, field.positions[groups.traversal]):
        assert_tour_properties(pts)


# --- coverage radius ---------------------------------------------------------

def test_coverage_radius_reference_values():
    assert coverage_radius_m(10.0, 13.0) == pytest.approx(math.sqrt(69.0))
    assert coverage_radius_m(10.0, 13.0) == pytest.approx(8.3066, abs=1e-4)
    assert coverage_radius_m(5.0, 13.0) == pytest.approx(12.0)
    assert coverage_radius_m(13.0, 13.0) == 0.0


def test_coverage_radius_triangle_identity():
    for h in (0.0, 3.0, 7.5, 12.9):
        r = coverage_radius_m(h, 13.0)
        assert r * r + h * h == pytest.approx(13.0**2, abs=1e-9)


def test_coverage_radius_monotone_in_height():
    radii = [coverage_radius_m(h, 13.0) for h in np.linspace(0.0, 13.0, 27)]
    assert all(b < a for a, b in zip(radii, radii[1:]))


def test_coverage_radius_infeasible_height():
    with pytest.raises(InfeasibilityError):
        coverage_radius_m(14.0, 13.0)
    with pytest.raises(ConfigurationError):
        coverage_radius_m(-1.0, 13.0)


# --- node generation -----------------------------------------------------------

def test_generate_nodes_count_and_bounds():
    field = generate_nodes(100.0, 100.0, 0.25, seed=3)
    assert field.node_count == 25
    assert field.positions[:, 0].min() >= 0.0
    assert field.positions[:, 0].max() <= 100.0
    assert field.positions[:, 1].min() >= 0.0
    assert field.positions[:, 1].max() <= 100.0


def test_generate_nodes_deterministic():
    a = generate_nodes(100.0, 100.0, 0.25, seed=42)
    b = generate_nodes(100.0, 100.0, 0.25, seed=42)
    assert np.array_equal(a.positions, b.positions)
    c = generate_nodes(100.0, 100.0, 0.25, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def test_generate_nodes_count_override():
    field = generate_nodes(50.0, 50.0, 0.25, seed=1, count=7)
    assert field.node_count == 7


def test_generate_nodes_invalid():
    with pytest.raises(ConfigurationError):
        generate_nodes(100.0, 100.0, 0.0, seed=1)
    with pytest.raises(ConfigurationError):
        generate_nodes(0.0, 100.0, 0.25, seed=1)
    with pytest.raises(ConfigurationError):
        generate_nodes(10.0, 10.0, 0.1, seed=1)  # rounds to zero nodes


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**256),
    count=st.integers(1, 2000),
    width=st.floats(1e-3, 1e300),
    height=st.floats(1e-3, 1e300),
)
@example(seed=0, count=25, width=100.0, height=100.0)
@example(seed=2**32 - 1, count=1, width=1e-3, height=1e300)
@example(seed=2**32, count=2000, width=400.0, height=400.0)
@example(seed=2**53 + 1, count=7, width=1e300, height=1e-3)
@example(seed=2**128, count=3, width=1.0, height=1.0)
def test_generate_nodes_matches_numpy_default_rng(seed, count, width, height):
    # The in-repo PCG64 stream is numpy's, through Generator.uniform, bit for bit.
    expected = np.random.default_rng(seed).uniform([0.0, 0.0], [width, height], (count, 2))
    field = generate_nodes(width, height, 0.0, seed, count=count)
    assert field.positions.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, math.nan, "3", None])
def test_generate_nodes_rejects_bad_seed(seed):
    # Splitting a negative seed into words by `while seed:` would never end.
    def hang(*_):
        raise AssertionError(f"seed {seed!r} still running after 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(ConfigurationError) as raised:
            generate_nodes(10.0, 10.0, 0.0, seed, count=1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert raised.value.field == "seed"


def test_generate_nodes_reads_seed_as_operator_index():
    expected = generate_nodes(10.0, 10.0, 0.0, 7, count=3).positions.tobytes()
    for seed in (np.int64(7), np.uint8(7)):
        assert generate_nodes(10.0, 10.0, 0.0, seed, count=3).positions.tobytes() == expected


@pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, math.nan, "3"])
def test_generate_nodes_rejects_a_count_that_is_not_a_positive_integer(count):
    # 2.5 raised TypeError from range(); a count is read as the seed is.
    with pytest.raises(ConfigurationError,
                       match=r"^count must be an integer >= 1, got ") as raised:
        generate_nodes(100.0, 100.0, 0.25, 1, count=count)
    assert raised.value.field == "count"


def test_generate_nodes_reads_count_as_operator_index():
    expected = generate_nodes(10.0, 10.0, 0.0, 7, count=3).positions.tobytes()
    for count in (np.int64(3), np.uint8(3)):
        assert generate_nodes(10.0, 10.0, 0.0, 7, count=count).positions.tobytes() == expected


def test_node_field_bounds_enforced():
    with pytest.raises(ConfigurationError):
        NodeField(10.0, 10.0, np.array([[11.0, 5.0]]))
    with pytest.raises(ConfigurationError, match=r"^positions must have shape \(n, 2\)$"):
        NodeField(1.0, 1.0, np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected(bad):
    # A NaN position used to pass the bounds check (every comparison with NaN
    # is false) and fail later, in grouping, with a misleading message.
    with pytest.raises(ConfigurationError, match="finite"):
        NodeField(10.0, 10.0, np.array([[1.0, 1.0], [bad, 2.0]]))
    for mode in ("heuristic", "exact"):
        with pytest.raises(ConfigurationError, match="finite"):
            plan_tour([(1.0, 1.0), (2.0, bad), (3.0, 1.0)], mode=mode)


@pytest.mark.parametrize("n", [30, 100])
def test_plan_tour_rejects_points_past_its_range(n):
    # Uniform over [-1e308, 1e308]^2, 30 points raised OverflowError from complex abs,
    # and 100 points numpy's ValueError from a grid whose extent overflowed. The same
    # points scaled to the edge of the range plan a finite tour.
    edge = planner.MAX_COORDINATE_M
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(n, 2))
    pts[:2] = [[1.0, -1.0], [-1.0, 1.0]]
    with pytest.raises(ConfigurationError, match="within"):
        plan_tour(pts * 1e308)
    assert math.isfinite(plan_tour(pts * edge).length_m)


def test_grouping_rejects_a_radius_or_nodes_past_its_range():
    # A radius of 1.4e154 raised OverflowError when squared.
    with pytest.raises(ConfigurationError, match="coverage radius"):
        form_wpc_groups(generate_nodes(100.0, 100.0, 0.25, seed=5), 1.4e154)
    with pytest.raises(ConfigurationError, match="node coordinates"):
        form_wpc_groups(NodeField(1e200, 1.0, np.array([[0.0, 0.0], [1e200, 0.0]])), 1.0)
    # At the edge of the range, no square overflows: (edge, 0) covers the other two.
    edge = planner.MAX_COORDINATE_M
    field = NodeField(edge, edge, np.array([[0.0, 0.0], [edge, edge], [edge, 0.0]]))
    assert group_lists(form_wpc_groups(field, edge)) == [(2, [0, 1, 2])]


def test_node_count_past_the_float_range_rejected():
    # density x area overflows to inf, which round() turned into OverflowError.
    with pytest.raises(ConfigurationError):
        planner.density_node_count(1e200, 1e200, 1.0)
    with pytest.raises(ConfigurationError):
        generate_nodes(1e200, 1e200, 1.0, 0)


# --- grouping -------------------------------------------------------------------

def test_groups_zero_radius_are_singletons():
    field = generate_nodes(100.0, 100.0, 0.25, seed=5)
    groups = form_wpc_groups(field, 0.0)
    assert len(groups) == field.node_count
    assert all(members == [traversal] for traversal, members in group_lists(groups))


def test_groups_single_cluster():
    pts = np.array([[50.0, 50.0], [51.0, 50.0], [50.0, 51.5], [49.0, 49.5]])
    field = NodeField(100.0, 100.0, pts)
    groups = form_wpc_groups(field, 3.0)
    assert [members for _, members in group_lists(groups)] == [[0, 1, 2, 3]]


def test_groups_partition_and_membership():
    field = generate_nodes(100.0, 100.0, 0.25, seed=11)
    radius = 8.3066
    groups = form_wpc_groups(field, radius)
    seen = set()
    for traversal, members in group_lists(groups):
        assert traversal in members
        assert not (seen & set(members))
        seen |= set(members)
        anchor = field.positions[traversal]
        for member in members:
            assert math.dist(anchor, field.positions[member]) <= radius + 1e-9
    assert seen == set(range(field.node_count))
    assert len(groups) <= field.node_count


def test_greedy_vs_exhaustive_cover_oracle():
    pts = np.array(
        [[10.0, 10.0], [12.0, 11.0], [14.0, 9.0], [40.0, 40.0], [42.0, 41.0], [80.0, 15.0]]
    )
    field = NodeField(100.0, 100.0, pts)
    radius = 5.0
    groups = form_wpc_groups(field, radius)
    minimum = brute_force_min_cover(pts, radius)
    assert minimum == 3
    assert len(groups) >= minimum
    covered = {node for _, members in group_lists(groups) for node in members}
    assert covered == set(range(len(pts)))


def minimum_disk_cover(pts, radius):
    """The fewest node-anchored disks of ``radius`` that cover every node: an integer
    program with one 0/1 variable per disk and each node covered at least once, over
    grouping's own pairs. Row j of that CSR lists the disks that cover node j, since
    np.hypot distances are symmetric."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    start, neighbours = planner._pairs_within(pts, radius + planner.MEMBERSHIP_SLACK_M)
    n = len(pts)
    covers = sparse.csr_array((np.ones(len(neighbours)), neighbours, start), shape=(n, n))
    result = optimize.milp(np.ones(n), integrality=np.ones(n), bounds=optimize.Bounds(0, 1),
                           constraints=optimize.LinearConstraint(covers, lb=1))
    assert result.status == 0, result.message
    return round(result.fun)


@pytest.mark.parametrize(("height", "optimal"), [(10.0, 99), (5.0, 94)])
def test_greedy_groups_are_within_one_of_the_minimum_cover(height, optimal):
    # The 100 fields that reproduce plans, at its auto d_EH: greedy is optimal on 99
    # at H = 10 m (R = 8.31 m) and 94 at H = 5 m (R = 12.0 m), one group over on the rest.
    reproduce_fields = [generate_nodes(100.0, 100.0, 0.25, seed) for seed in range(1, 101)]
    d_eh = missionsim.resolve_eh_distance_m(missionsim.MissionScenario(
        field=reproduce_fields[0], env=linkbudget.RadioEnvironment(400e6),
        array=linkbudget.AntennaArray(32), circuit=linkbudget.EhCircuit.for_band(400e6)))
    assert d_eh == pytest.approx(13.0013, abs=1e-4)
    radius = coverage_radius_m(height, d_eh)
    gaps = [len(form_wpc_groups(field, radius)) - minimum_disk_cover(field.positions, radius)
            for field in reproduce_fields]
    assert min(gaps) == 0 and max(gaps) <= 1
    assert gaps.count(0) == optimal


def test_groups_reject_bad_radius_and_accept_empty_field():
    field = generate_nodes(100.0, 100.0, 0.25, seed=5)
    for radius in (-1.0, math.nan):
        with pytest.raises(ConfigurationError):
            form_wpc_groups(field, radius)
    empty = form_wpc_groups(NodeField(10.0, 10.0, np.empty((0, 2))), 3.0)
    assert len(empty) == len(empty.group_of) == 0


def test_greedy_tie_break_lowest_index():
    # Two disjoint pairs, all gains equal: the lowest index anchors first.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
    field = NodeField(20.0, 20.0, pts)
    groups = form_wpc_groups(field, 1.5)
    assert groups.traversal.tolist() == [0, 2]


# --- equivalence with the scalar references ------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    radius=st.sampled_from([0.0, 3.0, 8.3066, 12.0, 25.0]),
)
def test_vectorized_planner_matches_scalar_references(n, seed, radius):
    side = 20.0 * math.sqrt(n)  # the default density of 0.25 nodes per 10 m x 10 m
    assert_matches_references(generate_nodes(side, side, 0.0, seed, count=n), radius)


@pytest.mark.parametrize("spacing", [5.0, 8.3066])
def test_vectorized_planner_matches_references_on_lattice(spacing):
    # Spacing = R gives every interior node the same gain and many zero-delta
    # 2-opt moves, so the lowest-index tie-break decides almost every pick.
    k = 9
    grid = np.array([(x, y) for y in range(k) for x in range(k)], dtype=float) * spacing
    side = spacing * (k - 1)
    assert_matches_references(NodeField(side, side, grid), spacing)
    shuffled = grid[np.random.default_rng(3).permutation(len(grid))]
    assert_matches_references(NodeField(side, side, shuffled), spacing)
    # Node 10 at (1, 1) is the first of the 49 interior nodes, which all tie on gain 5.
    assert form_wpc_groups(NodeField(side, side, grid), spacing).traversal[0] == 10


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    radius=st.sampled_from([0.0, 1e-300, 3.0, 8.3066, 12.0, 1e9]),
    offset=st.sampled_from([0.0, 0.1, 1.0 / 3.0, 1e3, 1e6]),
    copies=st.integers(min_value=1, max_value=3),
)
def test_grid_grouping_matches_dense_oracles(n, seed, radius, offset, copies):
    # Area-scaled fields offset from the origin; with copies > 1 every point
    # appears up to that many times, in a shuffled order.
    side = 20.0 * math.sqrt(n)
    rng = np.random.default_rng(seed)
    distinct = rng.uniform(0.0, side, size=(-(-n // copies), 2))
    pts = rng.permutation(np.repeat(distinct, copies, axis=0)[:n]) + offset
    assert_groups_match_oracles(NodeField(side + offset, side + offset, pts), radius)


@pytest.mark.parametrize("below", [0.0, 1e-9])
@pytest.mark.parametrize("offset", [0.0, 0.1, 1.0 / 3.0])
@pytest.mark.parametrize("spacing", [5.0, 8.3066])
def test_grid_grouping_matches_dense_oracles_on_lattice(spacing, offset, below):
    # Neighbours sit right at the reach, so cell edges fall on or next to
    # nodes. The lattice is shifted by ``offset`` spacings. At spacing 5,
    # offset 1/3 and R = spacing - 1e-9, grid cells exactly as wide as the
    # reach put 18 pairs within reach two cells apart, and the groups differ.
    k = 9
    grid = np.array([(x, y) for y in range(k) for x in range(k)], dtype=float)
    side = spacing * (k - 1 + offset)
    field = NodeField(side, side, (grid + offset) * spacing)
    assert_groups_match_oracles(field, spacing - below)


@pytest.mark.parametrize(
    ("side", "radius"),
    [
        (20.0 * math.sqrt(2000), 12.0),  # area-scaled, the default density
        # Cells the width of the 1e-9 m reach would number ~1e21 per side, past
        # int64; the cell floor of extent / 2**20 keeps them apart anyway.
        (1e12, 0.0),
    ],
)
def test_form_wpc_groups_memory_stays_linear(side, radius):
    # 2,000 nodes: the dense n x n x 2 difference table alone is 64 MB; the
    # grid hash keeps the peak near 1 MB.
    n = 2000
    field = generate_nodes(side, side, 0.0, seed=1, count=n)
    tracemalloc.start()
    try:
        groups = form_wpc_groups(field, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(groups.group_of) == n
    assert peak < 8e6


def test_pairs_within_memory_stays_near_the_pair_count():
    # 5,000 nodes on a 100 m x 100 m field at R = 12: about 1.1 million pairs
    # within reach, of 3.3 million candidates from the 3 x 3 cells. Pricing
    # all candidates at once peaked at 172 MB, and one Python int per pair at
    # 41 bytes a pair. The int32 CSR, priced GRID_CHUNK candidates at a time,
    # peaks near 8 bytes a pair: its chunks and their concatenation.
    pts = np.random.default_rng(1).uniform(0.0, 100.0, size=(5000, 2))
    tracemalloc.start()
    try:
        start, neighbours = planner._pairs_within(pts, 12.0 + planner.MEMBERSHIP_SLACK_M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(neighbours) == start[-1] > 1_000_000
    assert peak < 12 * len(neighbours)


def reference_form_wpc_groups(field, radius):
    """form_wpc_groups as it was at 841640b, when it returned one record per
    group with a frozenset of members, kept as the oracle of the two arrays:
    (traversal node, members in ascending order) per group, in pick order."""
    pts = field.positions
    n = len(pts)
    if not n:
        return []
    start, neighbours = planner._pairs_within(pts, radius + planner.MEMBERSHIP_SLACK_M)
    gains = [start[i + 1] - start[i] for i in range(n)]
    heap = [(-gain, i) for i, gain in enumerate(gains)]
    heapq.heapify(heap)
    uncovered = [True] * n
    left = n
    groups = []
    while left:
        stored, best = heapq.heappop(heap)
        if not uncovered[best]:
            continue
        if -stored != gains[best]:
            heapq.heappush(heap, (-gains[best], best))
            continue
        members = [j for j in neighbours[start[best] : start[best + 1]].tolist() if uncovered[j]]
        for j in members:
            uncovered[j] = False
        for j in members:
            for k in neighbours[start[j] : start[j + 1]].tolist():
                gains[k] -= 1
        left -= len(members)
        groups.append((best, sorted(frozenset(members))))
    return groups


def grouping_field(kind, n, side, seed):
    """n nodes on a side x side field: uniform, a normal cluster, or an integer
    lattice with duplicates, scaled to the side."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pts = rng.uniform(0.0, side, size=(n, 2))
    elif kind == "cluster":
        pts = np.clip(rng.normal(side / 2, side / 10, size=(n, 2)), 0.0, side)
    else:
        k = math.isqrt(n)
        pts = rng.integers(0, k + 1, size=(n, 2)) * (side / k)
    return NodeField(side, side, pts)


@pytest.mark.parametrize(("kind", "n", "side"), [
    ("uniform", 2000, 20.0 * math.sqrt(2000)),  # the default density
    ("cluster", 2000, 20.0 * math.sqrt(2000)),
    ("lattice", 2000, 20.0 * math.sqrt(2000)),
    ("uniform", 5000, 100.0),  # dense: about 100 nodes in each disk
])
def test_group_arrays_match_the_record_oracle(kind, n, side):
    field = grouping_field(kind, n, side, seed=n)
    for radius in (coverage_radius_m(10.0, 13.0), coverage_radius_m(5.0, 13.0)):
        assert group_lists(form_wpc_groups(field, radius)) == reference_form_wpc_groups(
            field, radius)


@pytest.mark.parametrize(("traversal", "group_of", "name"), [
    ([0.5], [0], "traversal"),  # was read as [0]
    (["0"], ["0"], "traversal"),  # was read as [0]
    ([0], [0.0], "group_of"),
    ([2**70], [0], "traversal"),  # raised OverflowError
    ([0], [True], "group_of"),
])
def test_groups_take_only_integer_ids(traversal, group_of, name):
    with pytest.raises(ConfigurationError,
                       match=rf"^{name} must hold integer ids, got ") as raised:
        planner.Groups(traversal, group_of)
    assert raised.value.field == name


def test_groups_accept_the_planners_own_ids():
    every = np.arange(3)
    for ids in (every, every.astype(np.intp), every.astype(np.int32), every.astype(np.uint8),
                every.tolist()):
        groups = planner.Groups(ids, ids)
        assert groups.traversal.dtype == groups.group_of.dtype == np.intp
        assert groups.traversal.tolist() == groups.group_of.tolist() == [0, 1, 2]
    assert len(planner.Groups([], [])) == 0
    # An id past the int range is no group of any field.
    with pytest.raises(ConfigurationError, match="each group, its traversal node"):
        planner.Groups([0], np.array([2**64 - 1], dtype=np.uint64))


def test_grouping_result_holds_a_few_ints_a_node():
    # 19,994 nodes at the default density, R(10 m) = 8.31 m: 15,151 groups. The
    # two int arrays hold 8 bytes a node and 8 a group.
    field = generate_nodes(2828.0, 2828.0, 0.25, seed=1)
    tracemalloc.start()
    try:
        groups = form_wpc_groups(field, coverage_radius_m(10.0, 13.0))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(groups) == 15151
    assert retained <= 24 * field.node_count


@pytest.mark.parametrize(
    ("points", "expected"),
    [
        # A crossed square: the improving move replaces the closing edge.
        ([[0, 0], [1, 0], [0, 1], [1, 1]], [0, 1, 3, 2]),
        # From the input order, two of the old 2-opt's three moves ended at
        # the last position, next to the closing edge.
        ([[3, 2], [3, 1], [1, 2], [1, 3], [0, 2]], [0, 1, 2, 4, 3]),
    ],
)
def test_block_search_moves_ending_at_last_position(points, expected):
    # The search has no fixed first position, so moves across the tour's
    # closing edge are found like any other: the optimal cycle, either way.
    pts = np.array(points, dtype=float)
    plan = plan_tour(pts)
    assert list(plan.visit_order) in (expected, [expected[0], *expected[:0:-1]])
    assert plan.length_m == pytest.approx(brute_force_tour_length(pts), abs=1e-9)
    assert_tour_properties(pts)


@pytest.mark.parametrize("n", [4, 5])
def test_block_search_matches_references_on_tiny_tours(n):
    # Small integer grids, so duplicates and zero-gain moves are common.
    # Every 4-point tour is one 2-opt move from the optimum, so a tour with
    # no improving move left is optimal there.
    rng = np.random.default_rng(n)
    for _ in range(200):
        pts = rng.integers(0, 4, size=(n, 2)).astype(float)
        assert_tour_properties(pts)
        if n == 4:
            length = plan_tour(pts).length_m
            assert length == pytest.approx(brute_force_tour_length(pts), abs=1e-9)


def degenerate_point_sets():
    rng = np.random.default_rng(11)
    line = np.linspace(0.0, 30.0, 31)
    lattice = np.array([(x, y) for y in range(10) for x in range(10)], dtype=float)
    yield pytest.param(np.repeat(rng.uniform(0.0, 50.0, size=(12, 2)), 3, axis=0), id="duplicates")
    yield pytest.param(np.full((20, 2), 7.5), id="identical")
    yield pytest.param(np.c_[line, 2.0 * line], id="collinear")
    yield pytest.param(np.c_[rng.permutation(line), np.zeros(31)], id="collinear-shuffled")
    # Spacing 0.1 is inexact in binary, so many zero-gain moves price at a
    # few ulp either side of 0 and must stay above the -1e-12 threshold.
    for spacing in (1.0, 0.1):
        yield pytest.param(lattice * spacing, id=f"lattice-{spacing}")
        shuffled = lattice[rng.permutation(100)] * spacing
        yield pytest.param(shuffled, id=f"lattice-{spacing}-shuffled")


@pytest.mark.parametrize("points", degenerate_point_sets())
def test_tour_is_locally_optimal_on_degenerate_points(points):
    assert_tour_properties(points)


def tour_points(kind, n, seed):
    """n points of one shape: uniform at the default density, repeated,
    all equal, on a line, or on a unit lattice, in a shuffled order."""
    rng = np.random.default_rng(seed)
    side = 20.0 * math.sqrt(n)
    if kind == "uniform":
        pts = rng.uniform(0.0, side, size=(n, 2))
    elif kind == "duplicates":
        pts = np.repeat(rng.uniform(0.0, side, size=(-(-n // 3), 2)), 3, axis=0)[:n]
    elif kind == "identical":
        pts = np.full((n, 2), 7.5)
    elif kind == "collinear":
        t = rng.uniform(0.0, side, size=n)
        pts = np.c_[t, 0.5 * t]
    else:
        k = math.ceil(math.sqrt(n))
        pts = np.array([(x, y) for y in range(k) for x in range(k)], dtype=float)[:n]
    return rng.permutation(pts)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["uniform", "duplicates", "identical", "collinear", "lattice"]),
    offset=st.sampled_from([0.0, 1e6]),
)
def test_heuristic_tour_properties(n, seed, kind, offset):
    # Permutation from 0, recomputed length, no improving candidate move;
    # with 1e6 m offsets too. Reaching the end of plan_tour shows the search
    # terminates.
    assert_tour_properties(tour_points(kind, n, seed) + offset)


@pytest.mark.parametrize("k", [1, 3, planner.TOUR_NEIGHBOURS])
def test_grid_neighbour_lists_match_all_pairs(monkeypatch, k):
    # The grid path for every size, down to n = 1, and ties at equal distance.
    monkeypatch.setattr(planner, "DENSE_NEIGHBOURS_MAX", 0)
    rng = np.random.default_rng(k)
    kinds = ("uniform", "duplicates", "identical", "collinear", "lattice")
    sets = [tour_points(kind, n, n) for kind in kinds for n in (1, 2, 5, 40, 150)]
    sets.append(np.r_[rng.normal(0.0, 1.0, size=(60, 2)), rng.uniform(1e3, 2e3, size=(3, 2))])
    # Points whose search reach doubles two or more times: a 2,000 m x 1 m strip,
    # and a cluster with three far outliers. Then sets whose bounding-box area
    # overflows: a 1e200 m line along an axis, and a 1e200 m square.
    far = [rng.uniform(0.0, 1.0, size=(1000, 2)) * [2000.0, 1.0],
           np.r_[rng.normal(0.0, 1.0, size=(1000, 2)), rng.uniform(1e3, 2e3, size=(3, 2))],
           np.c_[rng.uniform(0.0, 1e200, size=100), np.zeros(100)],
           rng.uniform(0.0, 1e200, size=(300, 2))]
    for pts in sets + [pts + 1e6 for pts in sets] + far:
        neighbours, dist = planner._neighbour_lists(pts, k)
        assert neighbours.tolist() == candidate_lists(pts, k)
        z = [complex(x, y) for x, y in pts.tolist()]
        rows = enumerate(neighbours.tolist())
        assert dist.tolist() == [[abs(z[i] - z[j]) for j in row] for i, row in rows]


@pytest.mark.parametrize(
    ("k", "points"),
    [
        (1, [[3, 8], [17, 19], [14, 13], [4, 10], [7, 13], [14, 3], [0, 18], [4, 8], [17, 9],
             [18, 15], [17, 12], [6, 16]]),
        (2, [[5, 16], [10, 10], [15, 9], [8, 6], [15, 3], [7, 12], [11, 10], [17, 19], [5, 13],
             [18, 4], [18, 3], [11, 4], [14, 14]]),
    ],
)
def test_tour_search_rereads_points_whose_or_opt_segment_changed(monkeypatch, k, points):
    # With one or two candidates per point, the points of an Or-opt segment
    # leading away from a are mostly not among a's candidates. A failed search
    # at a must still record them as read: on these point sets, a later move
    # changes a segment's links and opens an Or-opt move at a, which is found
    # only if a is searched again.
    monkeypatch.setattr(planner, "TOUR_NEIGHBOURS", k)
    pts = np.asarray(points, dtype=float)
    order = list(plan_tour(pts).visit_order)
    assert sorted(order) == list(range(len(pts)))
    assert improving_candidate_moves(pts, order, k) == []


@pytest.mark.parametrize("cap", [0, 1])
def test_tour_search_stops_at_the_move_cap(monkeypatch, cap):
    monkeypatch.setattr(planner, "TOUR_MOVES_PER_POINT", cap)
    pts = np.random.default_rng(cap).uniform(0.0, 300.0, size=(200, 2))
    plan = plan_tour(pts)
    assert sorted(plan.visit_order) == list(range(200))
    assert plan.visit_order[0] == 0
    assert plan.length_m == pytest.approx(closed_length(pts, list(plan.visit_order)), rel=1e-12)
    if cap == 0:  # no move at all: the greedy-edge start
        neighbours, dist = planner._neighbour_lists(pts, planner.TOUR_NEIGHBOURS)
        start = planner._greedy_edge_order(pts, neighbours, dist)
        i = start.index(0)
        assert list(plan.visit_order) == start[i:] + start[:i]


def test_tour_search_terminates_when_rounding_passes_the_threshold():
    # Near 1e15 m one ulp of a distance is about 0.1 m, far above the -1e-12
    # move threshold, so rounding alone can price a move as improving. The
    # move cap still ends the search with a valid tour.
    pts = np.random.default_rng(3).uniform(0.0, 1e15, size=(300, 2))
    plan = plan_tour(pts)
    assert sorted(plan.visit_order) == list(range(300))
    assert plan.visit_order[0] == 0


def reference_local_search(pts, neighbours, dist, tour):
    """The tour search as it was with its length caches, kept as the oracle:
    ``el[i]`` holds the length of the edge from tour position i to i + 1, and
    each candidate's distance comes from ``dist``. Returns the tour and the
    number of reversals whose stretch wraps past the end of the list."""
    n = len(tour)
    z = np.ascontiguousarray(pts).view(np.complex128).ravel().tolist()
    near, near_d = neighbours.tolist(), dist.tolist()
    pos = [0] * n
    for i, c in enumerate(tour):
        pos[c] = i
    el = [abs(z[tour[i - 1]] - z[tour[i]]) for i in range(1 - n, 1)]
    moves = wraps = 0
    changed = [0] * n
    searched = [-1] * n
    read = [[]] * n
    segs = min(3, n - 3)

    def reverse(b, c):
        nonlocal wraps
        i, j = pos[b], pos[c]
        length = (j - i) % n + 1
        if 2 * length > n:
            i, j, length = (j + 1) % n, (i - 1) % n, n - length
        if length < 2:
            return
        if i < j:
            tour[i : j + 1] = tour[i : j + 1][::-1]
            el[i:j] = el[i:j][::-1]
            for p in range(i, j + 1):
                pos[tour[p]] = p
            ends = (i - 1, j)
        else:
            wraps += 1
            for p, q in zip(range(i, i + length // 2), range(j, j - length // 2, -1)):
                p, q = p % n, q % n
                tour[p], tour[q] = tour[q], tour[p]
                pos[tour[p]], pos[tour[q]] = p, q
            ends = range(i - 1, i + length)
        for p in ends:
            p %= n
            el[p] = abs(z[tour[p]] - z[tour[(p + 1) % n]])
        for p in range(i - 1, i + length + 1):
            changed[tour[p % n]] = moves + 1

    def flip(a, b, c):
        if tour[pos[a] + 1 - n] == b:
            reverse(b, c)
        else:
            reverse(c, b)

    sides = ((-1, 1 - n, -1, 0), (1 - n, -1, 0, -1))

    def find_move(a, or_opt):
        pa, za = pos[a], z[a]
        seen = [a]
        for toward, away, back, ahead in sides:
            x = tour[pa + toward]
            zx = z[x]
            dax = el[pa + back]
            chain = None
            for c, dac in zip(near[a], near_d[a]):
                if dac >= dax:
                    break
                seen.append(c)
                pc = pos[c]
                d = tour[pc + toward]
                if d != a and dac + abs(zx - z[d]) - dax - el[pc + back] < -1e-12:
                    flip(x, a, d)
                    return a, x, c, d
                if not or_opt:
                    continue
                if chain is None:
                    q1 = tour[pa + away]
                    p1 = pos[q1]
                    q2 = tour[p1 + away]
                    p2 = pos[q2]
                    q3 = tour[p2 + away]
                    chain = (a, q1, q2, q3)
                    zs = (za, z[q1], z[q2], z[q3])
                    gains = (
                        dax + el[pa + ahead] - abs(zx - zs[1]),
                        dax + el[p1 + ahead] - abs(zx - zs[2]),
                        dax + el[p2 + ahead] - abs(zx - zs[3]),
                    )
                    most = max(gains[:segs])
                    seen += chain
                top = min(chain.index(c), segs) if c in chain else segs
                for e, dce in ((tour[pc - 1], el[pc - 1]), (tour[pc + 1 - n], el[pc])):
                    if dac - dce - most >= -1e-12:
                        continue
                    ze = z[e]
                    for m in range(min(top, chain.index(e)) if e in chain else top):
                        if dac + abs(zs[m] - ze) - dce - gains[m] < -1e-12:
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

    cap = planner.TOUR_MOVES_PER_POINT * n
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
    return tour, wraps


def oracle_points(kind, n, seed):
    """n points for the tour-search oracle: uniform, an integer lattice with
    duplicates (many equal lengths), a 100:1 strip, or a cluster with three
    far outliers."""
    rng = np.random.default_rng(seed)
    side = 20.0 * math.sqrt(n)
    if kind == "uniform":
        return rng.uniform(0.0, side, size=(n, 2))
    if kind == "lattice":
        return rng.integers(0, math.isqrt(n) + 1, size=(n, 2)).astype(float)
    if kind == "strip":
        return rng.uniform(0.0, 1.0, size=(n, 2)) * [side * 10.0, side / 10.0]
    return np.r_[rng.normal(0.0, 1.0, size=(n - 3, 2)), rng.uniform(1e3, 2e3, size=(3, 2))]


def assert_search_matches_reference(pts):
    neighbours, dist = planner._neighbour_lists(pts, planner.TOUR_NEIGHBOURS)
    start = planner._greedy_edge_order(pts, neighbours, dist)
    expected, wraps = reference_local_search(pts, neighbours, dist, list(start))
    assert planner._local_search(pts, neighbours, list(start)) == expected
    return wraps


ORACLE_KINDS = ["uniform", "lattice", "strip", "cluster"]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(ORACLE_KINDS),
)
def test_tour_search_matches_the_cached_length_oracle(n, seed, kind):
    # Lengths computed where they are read are the floats the caches held,
    # so every comparison, and so the tour, is the same.
    assert_search_matches_reference(oracle_points(kind, n, seed))


@pytest.mark.parametrize("kind", ORACLE_KINDS)
def test_tour_search_matches_the_oracle_through_wrapping_reversals(kind):
    assert assert_search_matches_reference(oracle_points(kind, 2000, 2)) >= 1


def reference_greedy_edge_order(pts, neighbours, dist):
    """The greedy-edge start as it was with a union-find forest, kept as the
    oracle: an edge joins two points of degree below 2 whose roots differ,
    found with path halving, and each walked path marks its far end done."""
    n, k = neighbours.shape
    by_length = np.argsort(dist.ravel(), kind="stable")
    root = list(range(n))
    links = [[] for _ in range(n)]
    added = 0
    for a, b in zip((by_length // k).tolist(), neighbours.ravel()[by_length].tolist()):
        if len(links[a]) < 2 and len(links[b]) < 2:
            ra, rb = a, b
            while root[ra] != ra:
                root[ra] = ra = root[root[ra]]
            while root[rb] != rb:
                root[rb] = rb = root[root[rb]]
            if ra != rb:
                root[ra] = rb
                links[a].append(b)
                links[b].append(a)
                added += 1
                if added == n - 1:
                    break
    paths = []
    done = [False] * n  # path ends already walked from the other end
    for s in range(n):
        if len(links[s]) < 2 and not done[s]:
            path = [s]
            if links[s]:
                prev, cur = s, links[s][0]
                path.append(cur)
                while len(links[cur]) == 2:
                    prev, cur = cur, links[cur][links[cur][0] == prev]
                    path.append(cur)
                done[cur] = True
            paths.append(path)
    tour = paths[0]
    if len(paths) > 1:
        z = pts[:, 0] + 1j * pts[:, 1]
        free_ends = z[[end for path in paths for end in (path[0], path[-1])]]
        free_ends[:2] = np.inf  # path 0 starts the tour
        for _ in range(len(paths) - 1):
            gap = free_ends - z[tour[-1]]
            e = int(np.argmin(np.hypot(gap.real, gap.imag)))
            free_ends[e - e % 2 : e - e % 2 + 2] = np.inf
            tour.extend(paths[e // 2] if e % 2 == 0 else paths[e // 2][::-1])
    return tour


def start_points(kind, n, seed):
    """The tour-search oracle's shapes, or n points drawn from the 9 sites of
    a 3 x 3 lattice (coincident points, nearly every length tied)."""
    if kind != "coincident":
        return oracle_points(kind, n, seed)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(n, 2)).astype(float)


def assert_start_matches_reference(pts):
    neighbours, dist = planner._neighbour_lists(pts, planner.TOUR_NEIGHBOURS)
    expected = reference_greedy_edge_order(pts, neighbours, dist)
    assert planner._greedy_edge_order(pts, neighbours, dist) == expected


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(ORACLE_KINDS + ["coincident"]),
)
def test_greedy_edge_start_matches_the_union_find_oracle(n, seed, kind):
    # A path grows only at its ends, so "the roots differ" is "b is not the
    # other end of a's path", and the first end met is each path's start.
    assert_start_matches_reference(start_points(kind, n, seed))


@pytest.mark.parametrize(("kind", "n"), [("uniform", 5000), ("lattice", 2000)])
def test_greedy_edge_start_matches_the_oracle_on_large_sets(kind, n):
    assert_start_matches_reference(start_points(kind, n, 3))


def test_plan_tour_memory_stays_linear():
    # 2,000 points in convex (circle) order: one 2-opt pass, no move. A dense
    # n x n float64 table would be 32 MB; the block cap keeps far below that.
    n = 2000
    angles = 2.0 * math.pi * np.arange(n) / n
    pts = np.c_[np.cos(angles), np.sin(angles)] * 100.0
    tracemalloc.start()
    try:
        plan = plan_tour(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(plan.visit_order) == list(range(n))
    assert peak < n * n * 8 / 4


# Beardwood-Halton-Hammersley: an optimal tour of n uniform points on area A is
# about 0.7124 * sqrt(n * A) long for large n (the constant of Percus & Martin, 1996).
BHH_CONSTANT = 0.7124


def test_tour_quality_at_scale():
    # 1.0431 at 5,000 points, near the ~5% above Held-Karp that Johnson & McGeoch
    # (1997) report for neighbour-list 2-opt; a binding move cap would show here.
    n, side = 5000, 100.0
    plan = plan_tour(generate_nodes(side, side, 0.0, seed=1, count=n).positions)
    assert plan.length_m / (BHH_CONSTANT * math.sqrt(n * side * side)) <= 1.044


def improving_two_opt_count(pts, tour, neighbours):
    """Candidate 2-opt moves on the closed ``tour`` whose delta is below -1e-12,
    over all n k (point, candidate) pairs and both sides, priced in numpy with
    find_move's ``np.hypot`` lengths and operand order: for a point a, its tour
    neighbour x on one side and a candidate c nearer than x, replace (a, x) and
    (c, d), d being c's neighbour on that side, by (a, c) and (x, d)."""
    n, k = neighbours.shape
    tour = np.asarray(tour)
    pos = np.empty(n, dtype=np.int64)
    pos[tour] = np.arange(n)

    def dist(i, j):
        return np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])

    a, c = np.repeat(np.arange(n), k), neighbours.ravel()
    dac = dist(a, c)
    found = 0
    for toward in (-1, 1):
        x, d = tour[(pos[a] + toward) % n], tour[(pos[c] + toward) % n]
        dax = dist(a, x)
        delta = dac + dist(x, d) - dax - dist(c, d)
        found += int(np.count_nonzero((dac < dax) & (d != a) & (delta < -1e-12)))
    return found


def improving_or_opt_count(pts, tour, neighbours):
    """Candidate Or-opt moves on the closed ``tour`` whose delta is below -1e-12,
    over all n k (point, candidate) pairs, both sides and both of the candidate's
    tour neighbours, priced in numpy as find_move prices them. For a point a, its
    tour neighbour x on one side and a candidate c nearer than x: the chain is a
    and the next three points away from x, segment m is the chain's first m + 1
    points, and it moves between c and a tour neighbour e of c. A segment may not
    reach c or e in the chain, and holds at most min(3, n - 3) points."""
    n, k = neighbours.shape
    tour = np.asarray(tour)
    pos = np.empty(n, dtype=np.int64)
    pos[tour] = np.arange(n)
    segs = min(3, n - 3)

    def dist(i, j):
        return np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])

    def first_in_chain(chain, v, absent):
        """The first index of v in the chain, or ``absent``."""
        index = np.broadcast_to(absent, v.shape)
        for i in range(len(chain) - 1, -1, -1):
            index = np.where(chain[i] == v, i, index)
        return index

    a, c = np.repeat(np.arange(n), k), neighbours.ravel()
    dac = dist(a, c)
    found = 0
    for toward in (-1, 1):
        x = tour[(pos[a] + toward) % n]
        dax = dist(a, x)
        chain = [tour[(pos[a] - toward * m) % n] for m in range(4)]
        gains = [dax + dist(chain[m], chain[m + 1]) - dist(x, chain[m + 1]) for m in range(3)]
        top = np.minimum(first_in_chain(chain, c, segs), segs)
        for side in (-1, 1):
            e = tour[(pos[c] + side) % n]
            dce = dist(c, e)
            # Segments 0..limit - 1 move: none for a candidate as far as x.
            limit = np.where(dac < dax, np.minimum(first_in_chain(chain, e, top), top), 0)
            for m in range(segs):
                delta = dac + dist(chain[m], e) - dce - gains[m]
                found += int(np.count_nonzero((m < limit) & (delta < -1e-12)))
    return found


def test_tour_is_a_two_opt_local_optimum_over_every_candidate():
    # No reference search runs at this size; the certificates need none. The
    # greedy-edge start fails both, so they would see a search that stopped early.
    pts = generate_nodes(100.0, 100.0, 0.0, seed=1, count=5000).positions
    neighbours, dist = planner._neighbour_lists(pts, planner.TOUR_NEIGHBOURS)
    start = planner._greedy_edge_order(pts, neighbours, dist)
    assert improving_two_opt_count(pts, start, neighbours) > 0
    assert improving_or_opt_count(pts, start, neighbours) > 0
    tour = plan_tour(pts).visit_order
    assert improving_two_opt_count(pts, tour, neighbours) == 0
    assert improving_or_opt_count(pts, tour, neighbours) == 0


def traced_peak(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def layer_peaks(n):
    """The tracemalloc peak of each layer on n nodes at the default density."""
    side = 20.0 * math.sqrt(n)  # 0.25 nodes per 10 m x 10 m cell
    field, generate = traced_peak(lambda: generate_nodes(side, side, 0.25, seed=1))
    scenario = missionsim.MissionScenario(
        field=field, env=linkbudget.RadioEnvironment(400e6), array=linkbudget.AntennaArray(32),
        circuit=linkbudget.EhCircuit.for_band(400e6),
    )
    d_eh = missionsim.resolve_eh_distance_m(scenario)
    radius = coverage_radius_m(scenario.height_m, d_eh)
    # The mission flies a strategy planned untraced: its own planning is the two layers
    # above, and a traced tour search runs 20-30x slower.
    planned = planner.plan_strategy(field, d_eh, scenario.height_m)
    return {
        "generate_nodes": generate,
        "form_wpc_groups": traced_peak(lambda: form_wpc_groups(field, radius))[1],
        "plan_tour": traced_peak(lambda: plan_tour(field.positions))[1],
        "simulate_mission": traced_peak(lambda: missionsim.simulate_mission(scenario, planned))[1],
    }


def test_each_layer_peak_memory_grows_at_most_linearly():
    # 4x the nodes: the peaks grew 3.63x, 4.15x, 3.20x and 3.93x, in the order
    # above; a quadratic table would grow 16x.
    small, large = layer_peaks(2000), layer_peaks(8000)
    growth = {layer: large[layer] / small[layer] for layer in small}
    assert max(growth.values()) <= 5.0, growth


# --- metamorphic relations ---------------------------------------------------------
# The planner reads only np.hypot distances and point indices. Swapping the axes,
# negating one or both, and scaling by a power of two are exact in floats, so groups and
# tours must not change (Chen, Cheung & Yiu 1998), while the grid's corner and
# cells do. MEMBERSHIP_SLACK_M and the -1e-12 move threshold are absolute
# lengths, so scales stay within 2^-4..2^4 of metre-scale fields.

def metamorphic_field(kind, n, seed):
    """n nodes: uniform at the default density, an integer lattice with
    duplicates, a 1000 m x 3 m strip, or a normal cluster."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        side = 20.0 * math.sqrt(n)
        return NodeField(side, side, rng.uniform(0.0, side, size=(n, 2)))
    if kind == "lattice":
        k = math.isqrt(n) + 1
        return NodeField(k, k, rng.integers(0, k, size=(n, 2)).astype(float))
    if kind == "strip":
        return NodeField(1000.0, 3.0, rng.uniform(0.0, 1.0, size=(n, 2)) * [1000.0, 3.0])
    return NodeField(200.0, 200.0, rng.normal(100.0, 10.0, size=(n, 2)))


@pytest.mark.parametrize("power", range(-4, 5))
def test_groups_and_tours_are_unchanged_by_axis_swap_scale_and_negation(power):
    scale, radius = 2.0**power, coverage_radius_m(10.0, 13.0)
    for i, kind in enumerate(["uniform", "lattice", "strip", "cluster"]):
        field = metamorphic_field(kind, (30, 150, 600, 1500)[(power + i) % 4], seed=power + 4)
        pts, width, height = field.positions, field.width_m, field.height_m
        scaled = NodeField(width * scale, height * scale, pts * scale)
        swapped = NodeField(height * scale, width * scale, pts[:, ::-1] * scale)
        groups = group_lists(form_wpc_groups(field, radius))
        for other in (scaled, swapped):
            assert group_lists(form_wpc_groups(other, radius * scale)) == groups, kind
        tour = plan_tour(pts).visit_order
        for other in (scaled.positions, swapped.positions, -pts, pts * [-1.0, 1.0]):
            assert plan_tour(other).visit_order == tour, kind


# --- tours -----------------------------------------------------------------------

def test_single_point_tour():
    plan = plan_tour([(5.0, 5.0)])
    assert plan.length_m == 0.0
    assert plan.point_count == 1


def test_unit_square_exact_perimeter():
    corners = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    plan = plan_tour(corners, mode="exact")
    assert plan.length_m == pytest.approx(4.0)


def test_exact_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        pts = rng.uniform(0.0, 100.0, size=(7, 2))
        exact = plan_tour(pts, mode="exact")
        assert exact.length_m == pytest.approx(brute_force_tour_length(pts), abs=1e-9)


def reference_held_karp(points):
    """The exact solver as it was over numpy tables, kept as the oracle: the
    ``np.linalg.norm`` distances, and ``cost``/``parent`` arrays filled mask by
    mask with a strict ``<``, so equal lengths keep the lowest predecessor."""
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


def held_karp_points(kind, n, seed):
    """n points for the exact-solver oracle: uniform, a small integer lattice
    (many equal lengths), points on one line, or every point twice."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(-1e3, 1e3, size=(n, 2))
    if kind == "lattice":
        return rng.integers(0, 3, size=(n, 2)).astype(float)
    if kind == "collinear":
        return rng.integers(0, n + 1, size=(n, 1)) * [3.0, 4.0]
    return np.repeat(rng.uniform(0.0, 10.0, size=((n + 1) // 2, 2)), 2, axis=0)[:n]


HELD_KARP_KINDS = ["uniform", "lattice", "collinear", "duplicated"]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(HELD_KARP_KINDS),
)
def test_exact_order_matches_the_numpy_table_oracle(n, seed, kind):
    # math.sqrt(dx * dx + dy * dy) is np.linalg.norm's float, and min over
    # (length, previous) tuples keeps the lowest of equal predecessors.
    pts = held_karp_points(kind, n, seed)
    assert planner._held_karp_order(pts) == reference_held_karp(pts)


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("kind", HELD_KARP_KINDS)
def test_exact_order_matches_the_oracle_at_the_size_limit(n, kind):
    pts = held_karp_points(kind, n, 7)
    assert plan_tour(pts, mode="exact").visit_order == tuple(reference_held_karp(pts))


def test_solver_ordering_exact_le_2opt_le_nn():
    rng = np.random.default_rng(9)
    for _ in range(10):
        pts = rng.uniform(0.0, 100.0, size=(8, 2))
        # independent nearest-neighbor baseline
        order = [0]
        remaining = set(range(1, len(pts)))
        while remaining:
            cur = pts[order[-1]]
            nxt = min(remaining, key=lambda i: (math.dist(pts[i], cur), i))
            order.append(nxt)
            remaining.remove(nxt)
        nn_length = closed_length(pts, order)
        heuristic = plan_tour(pts, mode="heuristic")
        exact = plan_tour(pts, mode="exact")
        assert exact.length_m <= heuristic.length_m + 1e-9
        assert heuristic.length_m <= nn_length + 1e-9


def test_two_opt_local_optimum():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 100.0, size=(15, 2))
    plan = plan_tour(pts, mode="heuristic")
    ordered = pts[list(plan.visit_order)]
    n = len(ordered)
    base = plan.length_m
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            candidate = np.concatenate(
                [ordered[:i], ordered[i : j + 1][::-1], ordered[j + 1 :]]
            )
            assert closed_length(candidate, list(range(n))) >= base - 1e-9


def test_tour_is_permutation_of_input():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.0, 100.0, size=(12, 2))
    plan = plan_tour(pts, mode="heuristic")
    assert sorted(plan.visit_order) == list(range(12))


def test_exact_capability_limit():
    pts = np.random.default_rng(0).uniform(0.0, 10.0, size=(13, 2))
    with pytest.raises(ConfigurationError, match="exact solver limited to 12 points, got 13"):
        plan_tour(pts, mode="exact")


def test_tour_input_validation():
    with pytest.raises(ConfigurationError):
        plan_tour(np.empty((0, 2)))
    with pytest.raises(ConfigurationError):
        plan_tour([(0.0, 0.0)], mode="annealing")


def test_subset_dominance_sample():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0.0, 100.0, size=(9, 2))
    full = plan_tour(pts, mode="exact").length_m
    subset = plan_tour(pts[[0, 2, 5, 7]], mode="exact").length_m
    assert subset <= full + 1e-9


def test_plan_tour_deterministic():
    rng = np.random.default_rng(21)
    pts = rng.uniform(0.0, 100.0, size=(20, 2))
    a = plan_tour(pts, mode="heuristic")
    b = plan_tour(pts, mode="heuristic")
    assert a.visit_order == b.visit_order
    assert a.length_m == b.length_m


# --- tour length -----------------------------------------------------------------

def test_plan_length_field_matches_recomputation():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0.0, 100.0, size=(10, 2))
    plan = plan_tour(pts)
    assert plan.length_m == pytest.approx(closed_length(pts, list(plan.visit_order)), abs=1e-12)


@pytest.mark.parametrize(
    "order", [(0, 1, 1), (0, 2, 3), (0, 1, 3), (0, 1, -1), (0.0, 1.0, 2.0), (0, "1", 2)],
    ids=["duplicated", "missing", "out-of-range", "negative", "float", "str"])
def test_tour_plan_rejects_a_visit_order_that_is_not_a_permutation(order):
    # A tour built by a caller reaches simulate_mission; only a permutation is flown.
    # Its stops are integers: (0.0, 1.0, 2.0) sorts equal to range(3).
    with pytest.raises(ConfigurationError, match="^visit_order must be a permutation") as raised:
        TourPlan(order, 0.0)
    assert raised.value.field == "visit_order"
    assert TourPlan((np.int64(0), np.intp(2), 1), 0.0).point_count == 3


# --- strategy comparison ----------------------------------------------------------

def test_height_equal_to_range_reduces_to_one_by_one():
    field = generate_nodes(100.0, 100.0, 0.25, seed=8)
    baseline, degenerate = compare_strategies(field, 13.0, [13.0])
    assert (baseline.name, degenerate.name) == ("one-by-one", "H=13")
    assert degenerate.radius_m == 0.0
    assert len(degenerate.groups) == len(baseline.groups) == field.node_count
    assert degenerate.length_m == pytest.approx(baseline.length_m)


def test_compare_strategies_structure():
    field = generate_nodes(100.0, 100.0, 0.25, seed=12)
    baseline, h10, h5 = compare_strategies(field, 13.0, [10.0, 5.0])
    assert [r.name for r in (baseline, h10, h5)] == ["one-by-one", "H=10", "H=5"]
    assert [r.height_m for r in (baseline, h10, h5)] == [None, 10.0, 5.0]
    assert h10.radius_m == pytest.approx(8.3066, abs=1e-4)
    assert h5.radius_m == pytest.approx(12.0)
    assert 0.0 < h10.length_m <= baseline.length_m


def test_compare_strategies_infeasible_height():
    field = generate_nodes(100.0, 100.0, 0.25, seed=12)
    with pytest.raises(InfeasibilityError):
        compare_strategies(field, 13.0, [14.0])


def test_compare_strategies_deterministic():
    field = generate_nodes(100.0, 100.0, 0.25, seed=30)
    a = compare_strategies(field, 13.0, [10.0, 5.0])
    b = compare_strategies(field, 13.0, [10.0, 5.0])
    assert len(a) == len(b) == 3
    for ra, rb in zip(a, b):
        assert ra.length_m == rb.length_m
        assert ra.plan.visit_order == rb.plan.visit_order
        assert group_lists(ra.groups) == group_lists(rb.groups)
