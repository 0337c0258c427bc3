"""Coverage grouping and tour planning over a random node field.

Lowering the hover height widens the ground coverage disk
R = sqrt(d_EH^2 - H^2), which merges more nodes per hover stop and
shortens the tour. Compares the one-by-one baseline with grouped tours
at 10 m and 5 m for a single field, then over 100 seeded fields.
"""
import numpy as np

from uewpiot import compare_strategies, coverage_radius_m, generate_nodes

D_EH_M = 13.0
HEIGHTS_M = [10.0, 5.0]

print("coverage disks for a 13 m powering range:")
for h in HEIGHTS_M:
    print(f"  hover at {h:4.1f} m -> ground radius {coverage_radius_m(h, D_EH_M):7.4f} m")

field = generate_nodes(100.0, 100.0, 0.25, seed=1)
print(f"\nfield: {field.node_count} nodes on 100 m x 100 m (seed 1)")

# The one-by-one baseline first, then one grouped strategy per height.
baseline, h10, h5 = compare_strategies(field, D_EH_M, HEIGHTS_M)
print(f"\n{'strategy':>10} {'R [m]':>7} {'groups':>7} {'tour [m]':>9} {'saving':>7}")
for result in (baseline, h10, h5):
    saving = 100.0 * (1.0 - result.length_m / baseline.length_m)
    print(f"{result.name:>10} {result.radius_m:7.2f} {len(result.groups):7d} "
          f"{result.length_m:9.2f} {saving:6.1f}%")

print("\nlargest groups at H=5 m:")
traversal, group_of = h5.groups.traversal, h5.groups.group_of
for group in np.argsort(-np.bincount(group_of), kind="stable")[:3]:
    print(f"  traversal node {traversal[group]:2d} covers "
          f"{np.flatnonzero(group_of == group).tolist()}")

print("\naveraging over 100 seeded fields:")
sums = {}
savings = {}
for seed in range(100):
    strategies = compare_strategies(generate_nodes(100.0, 100.0, 0.25, seed=seed),
                                    D_EH_M, HEIGHTS_M)
    for result in strategies:
        saving = 1.0 - result.length_m / strategies[0].length_m
        sums[result.name] = sums.get(result.name, 0.0) + result.length_m
        savings[result.name] = savings.get(result.name, 0.0) + saving
for name in ("one-by-one", "H=10", "H=5"):
    print(f"  {name:>10}: mean tour {sums[name] / 100:7.2f} m, "
          f"mean saving {100 * savings[name] / 100:5.1f}%")
