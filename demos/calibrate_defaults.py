"""How the shipped channel defaults were derived.

``RadioEnvironment``'s defaults are a calibrated preset whose excess
losses and companion noise figure are tuned to two reference operating
points of the 32-element array:

* the 400 MHz downlink at 10 m hover height reaches its -20 dBm
  harvester threshold at a 13 m slant range, and
* the 900 MHz harvest-then-transmit uplink at 10 m delivers 65 Mbps in
  a 15 MHz channel.

At the relevant geometry (elevation angles of 50 degrees and up) the
LoS probability sigmoid sits at ~1, so the NLoS excess has no leverage
there; the tuning therefore lands on the LoS excess, which lumps
clutter and harvester front-end insertion loss into a single figure.
This script re-derives both numbers and checks them against the
constants the package ships.
"""
import math

from uewpiot import (
    AntennaArray,
    EhCircuit,
    RadioEnvironment,
    achievable_eh_distance_m,
    free_space_path_loss_db,
    link_budget,
)
from uewpiot.linkbudget import (
    CALIBRATED_EXCESS_LOS_DB,
    CALIBRATED_EXCESS_NLOS_DB,
    CALIBRATED_NOISE_FIGURE_DB,
)

TARGET_EH_RANGE_M = 13.0
TARGET_RATE_BPS = 65e6
WPT_POWER_W = 10.0
HOVER_HEIGHT_M = 10.0
BANDWIDTH_HZ = 15e6

array = AntennaArray(32)

# --- Step 1: LoS excess loss from the EH-range target -------------------------
# At the target range the blend is pure LoS, so the budget closes in
# closed form:  P_tx + G + 10log10(eta) - FSPL(d*) - excess = threshold.
budget_dbm = (
    10.0 * math.log10(WPT_POWER_W * 1e3)
    + 10.0 * math.log10(32)
    + 10.0 * math.log10(0.3)
)
excess_los_db = budget_dbm - free_space_path_loss_db(TARGET_EH_RANGE_M, 400e6) - (-20.0)
print(f"solved LoS excess loss: {excess_los_db:.4f} dB "
      f"(shipped: {CALIBRATED_EXCESS_LOS_DB})")

# The NLoS excess only matters at grazing angles; any value comfortably
# above the LoS figure keeps the range solver monotone. The shipped 34 dB
# is a conventional heavy-clutter number.
print(f"shipped NLoS excess loss: {CALIBRATED_EXCESS_NLOS_DB} dB")

# --- Step 2: noise figure from the uplink-rate target --------------------------
# rate = B log2(1 + SNR) inverts to the required SNR, and the noise
# figure is whatever closes the uplink budget at 900 MHz, 10 m overhead.
snr_required_db = 10.0 * math.log10(2.0 ** (TARGET_RATE_BPS / BANDWIDTH_HZ) - 1.0)
pl_900 = free_space_path_loss_db(10.0, 900e6) + excess_los_db
harvested_dbm = budget_dbm - pl_900
uplink_rx_dbm = harvested_dbm + 10.0 * math.log10(32) - pl_900
noise_figure_db = uplink_rx_dbm - snr_required_db - (-174.0 + 10.0 * math.log10(BANDWIDTH_HZ))
print(f"solved noise figure: {noise_figure_db:.4f} dB "
      f"(shipped: {CALIBRATED_NOISE_FIGURE_DB})")

# --- Step 3: verify the shipped constants hit both targets ----------------------
env400 = RadioEnvironment(400e6)
eh_range = achievable_eh_distance_m(
    WPT_POWER_W, array, EhCircuit.for_band(400e6), env400, HOVER_HEIGHT_M
)
rate = link_budget(
    RadioEnvironment(900e6), HOVER_HEIGHT_M, HOVER_HEIGHT_M, WPT_POWER_W, array,
    EhCircuit.for_band(900e6), BANDWIDTH_HZ, CALIBRATED_NOISE_FIGURE_DB,
).rate_bps
print()
print(f"with shipped defaults: EH range at 400 MHz, H=10 m -> {eh_range:.3f} m "
      f"(target {TARGET_EH_RANGE_M} m, accepted band 10..16 m)")
print(f"with shipped defaults: rate at 900 MHz, 10 m -> {rate / 1e6:.2f} Mbps "
      f"(target {TARGET_RATE_BPS / 1e6:.0f} Mbps, accepted band 50..100 Mbps)")

assert abs(round(excess_los_db, 2) - CALIBRATED_EXCESS_LOS_DB) < 0.005
assert 10.0 <= eh_range <= 16.0
assert 50e6 <= rate <= 100e6
print("\nshipped constants reproduce the calibration targets")
