"""Walk through the wireless-power link budget, band by band.

Covers wavelengths and array apertures, beamforming gain, harvested
power versus distance, and the achievable energy-harvesting range of
each carrier band at a 10 m hover height.
"""
from uewpiot import (
    AntennaArray,
    EhCircuit,
    RadioEnvironment,
    achievable_eh_distance_m,
    array_gain_db,
    link_budget,
    upa_physical_size_m,
    wavelength_m,
)

BANDS_HZ = (400e6, 900e6, 2.4e9)
WPT_POWER_W = 10.0

print("=== array geometry ===")
for freq in BANDS_HZ:
    env = RadioEnvironment(freq)
    size = upa_physical_size_m(env, 4, 8)
    print(f"{freq / 1e6:7.0f} MHz: wavelength {wavelength_m(env):6.4f} m, "
          f"4x8 aperture {size[0]:.4f} x {size[1]:.4f} m")

print("\n=== beamforming gain ===")
for n in (1, 16, 32):
    print(f"{n:3d} elements -> {array_gain_db(AntennaArray.with_elements(n)):6.2f} dB")

print("\n=== harvested power vs distance (400 MHz, node overhead) ===")
env = RadioEnvironment(400e6)
circuit = EhCircuit.for_band(400e6)
print(f"{'d [m]':>6} " + " ".join(f"N={n:<10}" for n in (1, 16, 32)))
for d in (1, 5, 10, 13, 20, 40):
    row = []
    for n in (1, 16, 32):
        dbm = link_budget(
            env, d, d, WPT_POWER_W, AntennaArray.with_elements(n), circuit
        ).harvested_dbm
        row.append(f"{dbm:8.2f} dBm")
    print(f"{d:6d} " + " ".join(row))
print(f"harvester input threshold: {circuit.input_threshold_dbm} dBm")

print("\n=== achievable EH range at 10 m hover, 32 elements ===")
array = AntennaArray.with_elements(32)
for freq in BANDS_HZ:
    env = RadioEnvironment(freq)
    circuit = EhCircuit.for_band(freq)
    d_eh = achievable_eh_distance_m(WPT_POWER_W, array, circuit, env, 10.0)
    label = f"{d_eh:.2f} m" if d_eh is not None else "unreachable"
    print(f"{freq / 1e6:7.0f} MHz (threshold {circuit.input_threshold_dbm:6.1f} dBm): {label}")

print("\n=== uplink data rate at 10 m, 32 elements, 15 MHz ===")
for freq in BANDS_HZ:
    rate = link_budget(
        RadioEnvironment(freq), 10.0, 10.0, WPT_POWER_W, array, EhCircuit.for_band(freq),
        15e6, 5.0,
    ).rate_bps
    print(f"{freq / 1e6:7.0f} MHz: {rate / 1e6:7.2f} Mbps")

print("\nnote: received power exceeds harvested power by 10*log10(0.3) = -5.23 dB")
budget = link_budget(
    RadioEnvironment(400e6), 10.0, 10.0, WPT_POWER_W, array, EhCircuit.for_band(400e6)
)
received, harvested = budget.received_dbm, budget.harvested_dbm
print(f"at 10 m, 400 MHz: received {received:.2f} dBm, harvested {harvested:.2f} dBm")
