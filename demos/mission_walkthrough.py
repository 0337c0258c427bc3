"""Simulate one full wake/power/transmit mission and narrate the result.

The UAV derives its powering range from the link budget, groups the
field, tours the traversal points, and at each hover stop wakes the
group, beams power just long enough for the slowest node, then collects
every payload in back-to-back TDMA slots.
"""
from uewpiot import (
    AntennaArray,
    EhCircuit,
    MissionScenario,
    RadioEnvironment,
    generate_nodes,
    simulate_mission,
)

scenario = MissionScenario(
    field=generate_nodes(100.0, 100.0, 0.25, seed=1),
    env=RadioEnvironment(400e6),
    array=AntennaArray(32),
    circuit=EhCircuit.for_band(400e6),
    payload_bits=10e6,
    height_m=10.0,
)

report = simulate_mission(scenario)

print(f"powering range {report.eh_distance_m:.2f} m -> "
      f"coverage radius {report.coverage_radius_m:.2f} m at "
      f"{scenario.height_m:.0f} m hover")
print(f"{len(report.groups)} hover stops over {scenario.field.node_count} nodes, "
      f"tour {report.tour.length_m:.1f} m\n")

print(f"{'stop':>4} {'group':>5} {'nodes':>5} {'powering':>9} {'data':>8} {'cost':>8}")
for stop, group in enumerate(report.groups):
    print(f"{stop:4d} {group.group_id:5d} {group.activated_count:5d} "
          f"{group.powering_s:8.3f}s {group.data_s:7.3f}s {group.cost:8.3f}")

slowest = max(report.nodes, key=lambda n: n.tx_time_s)
print(f"\nslowest node: #{slowest.node_index} at {slowest.slant_m:.1f} m slant, "
      f"slot {slowest.tx_time_s * 1e3:.1f} ms")

print(f"\nflight {report.flight_time_s:6.1f} s   service {report.service_time_s:6.1f} s"
      f"   total {report.mission_time_s:6.1f} s")
print(f"energy: powering {report.wpt_energy_j:7.1f} J   wake {report.wur_energy_j:5.1f} J"
      f"   hover {report.hover_energy_j:7.1f} J   cruise {report.cruise_energy_j:7.1f} J")
print(f"UAV total {report.uav_energy_j:.1f} J for "
      f"{report.total_bits_delivered / 1e6:.0f} Mbit collected "
      f"({report.uav_energy_j / (report.total_bits_delivered / 1e6):.2f} J/Mbit)")
