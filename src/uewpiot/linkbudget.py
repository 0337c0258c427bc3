"""Air-to-ground wireless power link budget.

Received and harvested power, achievable energy-harvesting range, and
uplink data rate over a probabilistic LoS/NLoS channel with planar-array
beamforming gain. All powers travel in dBm, distances in meters,
frequencies in Hz.

The channel is expected-value only: free-space path loss plus an excess
loss blended between a LoS and an NLoS figure by an elevation-angle
sigmoid. ``RadioEnvironment(f)`` carries the shipped operating
defaults, tuned (see ``demos/calibrate_defaults.py``) so that a
32-element, 400 MHz, 10 W downlink at 10 m hover height reaches its
-20 dBm harvester threshold at ~13 m slant range, and the matching
900 MHz uplink at 10 m delivers ~65 Mbps in 15 MHz.
``RadioEnvironment.suburban(f)`` is the textbook suburban sigmoid and
excess losses (a=4.88, b=0.43, 0.1/21 dB).

``link_budget``, one numpy kernel, maps arrays of (height, slant) to all
of these, so each formula is written once. For one link, pass scalars
and read a stage: ``link_budget(env, h, d, P, array, circuit).harvested_dbm``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, check_fields, check_integer, check_values

SPEED_OF_LIGHT = 3.0e8  # m/s, kept at the exact round value by convention

THERMAL_NOISE_DBM_PER_HZ = -174.0

# Harvester input-power thresholds per carrier band.
BAND_THRESHOLDS_DBM = {
    400e6: -20.0,
    900e6: -23.0,
    2.4e9: -50.0,
}

DEFAULT_CONVERSION_EFFICIENCY = 0.3

# Textbook suburban A2G sigmoid and excess losses.
SUBURBAN_LOS_A = 4.88
SUBURBAN_LOS_B = 0.43
SUBURBAN_EXCESS_LOS_DB = 0.1
SUBURBAN_EXCESS_NLOS_DB = 21.0

# Shipped operating defaults; values produced by demos/calibrate_defaults.py.
CALIBRATED_EXCESS_LOS_DB = 23.06
CALIBRATED_EXCESS_NLOS_DB = 34.0
CALIBRATED_NOISE_FIGURE_DB = 5.0


def watts_to_dbm(power_w: float) -> float:
    check_values("> 0", power_w=power_w)
    return 10.0 * math.log10(power_w * 1e3)


def dbm_to_watts(power_dbm: float) -> float:
    return 10.0 ** ((power_dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RadioEnvironment:
    """Carrier and A2G channel parameterization.

    ``los_a`` (dimensionless) and ``los_b`` (per degree) shape the
    elevation-angle sigmoid; ``excess_loss_los_db`` and
    ``excess_loss_nlos_db`` are the extra losses on top of free-space
    path loss for the two link states.
    """

    carrier_frequency_hz: float
    los_a: float = SUBURBAN_LOS_A
    los_b: float = SUBURBAN_LOS_B
    excess_loss_los_db: float = CALIBRATED_EXCESS_LOS_DB
    excess_loss_nlos_db: float = CALIBRATED_EXCESS_NLOS_DB

    def __post_init__(self) -> None:
        check_fields(self, "> 0", "carrier_frequency_hz", "los_a", "los_b")
        if not math.isfinite(wavelength_m(self)):
            raise ConfigurationError(f"carrier_frequency_hz = {self.carrier_frequency_hz:g} "
                                     "has no finite wavelength", "carrier_frequency_hz")
        check_fields(self, ">= 0", "excess_loss_los_db")
        if not self.excess_loss_nlos_db >= self.excess_loss_los_db:
            # A lighter NLoS than LoS loss would make range finding non-monotone.
            raise ConfigurationError(
                f"excess_loss_nlos_db must be >= the LoS excess loss, {self.excess_loss_los_db:g}"
                f" dB, got {self.excess_loss_nlos_db:g}", "excess_loss_nlos_db"
            )

    @classmethod
    def suburban(cls, carrier_frequency_hz: float) -> "RadioEnvironment":
        """Textbook suburban channel parameters."""
        return cls(
            carrier_frequency_hz,
            los_a=SUBURBAN_LOS_A,
            los_b=SUBURBAN_LOS_B,
            excess_loss_los_db=SUBURBAN_EXCESS_LOS_DB,
            excess_loss_nlos_db=SUBURBAN_EXCESS_NLOS_DB,
        )


@dataclass(frozen=True)
class AntennaArray:
    """Uniform planar array on the UAV; gain depends only on element count
    (``upa_physical_size_m`` gives a layout's aperture)."""

    elements_n: int

    def __post_init__(self) -> None:
        check_integer("elements_n", self.elements_n, 1)


@dataclass(frozen=True)
class EhCircuit:
    """Energy-harvester front end: input threshold and RF-to-DC efficiency."""

    input_threshold_dbm: float
    conversion_efficiency: float = DEFAULT_CONVERSION_EFFICIENCY

    def __post_init__(self) -> None:
        check_fields(self, "finite", "input_threshold_dbm")
        if not 0 < self.conversion_efficiency <= 1:
            raise ConfigurationError(f"conversion_efficiency must be in (0, 1], got "
                                     f"{self.conversion_efficiency:g}", "conversion_efficiency")

    @classmethod
    def for_band(
        cls,
        band_hz: float,
        conversion_efficiency: float = DEFAULT_CONVERSION_EFFICIENCY,
    ) -> "EhCircuit":
        """Circuit with the configured per-band input threshold."""
        try:
            threshold = BAND_THRESHOLDS_DBM[band_hz]
        except KeyError:
            raise ConfigurationError(
                f"input_threshold_dbm has no default for the {band_hz:g} Hz band; set it",
                "input_threshold_dbm",
            ) from None
        return cls(threshold, conversion_efficiency)


def wavelength_m(env: RadioEnvironment) -> float:
    """Carrier wavelength c/f."""
    return SPEED_OF_LIGHT / env.carrier_frequency_hz


def upa_physical_size_m(env: RadioEnvironment, rows: int, cols: int) -> tuple[float, float]:
    """Physical aperture of a rows x cols planar array.

    Each dimension spans (count - 1) half-wavelength inter-element gaps; a
    single element has zero extent.
    """
    rows, cols = check_integer("rows", rows, 1), check_integer("cols", cols, 1)
    lam = wavelength_m(env)
    return ((rows - 1) * 0.5 * lam, (cols - 1) * 0.5 * lam)


def array_gain_db(array: AntennaArray) -> float:
    """Beamforming gain 10*log10(N) for ideal steering; 0 dB for one element."""
    return 10.0 * math.log10(array.elements_n)


class LinkBudget(NamedTuple):
    """``link_budget`` arrays; a stage whose inputs were not given is None."""

    los_probability: np.ndarray
    path_loss_db: np.ndarray
    received_dbm: np.ndarray | None
    harvested_dbm: np.ndarray | None
    rate_bps: np.ndarray | None


def link_budget(
    env: RadioEnvironment, height_m, slant_m, transmit_power_w: float | None = None,
    array: AntennaArray | None = None, circuit: EhCircuit | None = None,
    bandwidth_hz: float | None = None, noise_figure_db: float = CALIBRATED_NOISE_FIGURE_DB,
) -> LinkBudget:
    """The link budget, elementwise over arrays of hover height and slant range.

    P_LoS = 1 / (1 + a*exp(-b*(theta - a))) at elevation ``theta`` (degrees);
    PL = FSPL(d, f) + P_LoS * eta_LoS + (1 - P_LoS) * eta_NLoS rises strictly
    with d at fixed height. received = P_tx + array gain - PL needs
    ``transmit_power_w`` and ``array``; harvested = received +
    10*log10(efficiency) needs ``circuit``; rate = B*log2(1 + SNR) needs
    ``bandwidth_hz``, with the node sending at its harvested power over the
    same path loss and array gain (energy neutral, reciprocal channel).
    """
    height, slant = np.asarray(height_m, dtype=float), np.asarray(slant_m, dtype=float)
    valid = (height >= 0) & (slant >= height) & (slant != 0) & (slant < np.inf)  # NaN fails each
    if not valid.all():
        heights, slants = np.broadcast_arrays(height, slant)
        h, d = float(heights[~valid][0]), float(slants[~valid][0])
        if not h >= 0:
            raise ConfigurationError(f"hover height must be >= 0, got {h}")
        if not d >= h:
            raise ConfigurationError(f"slant distance {d} m is below hover height {h} m")
        if d:
            raise ConfigurationError(f"slant distance must be finite, got {d} m")
        raise ConfigurationError("zero slant distance: path loss is singular")
    theta = np.degrees(np.arcsin(height / slant))
    with np.errstate(over="ignore"):  # an overflow to inf gives the exact limit P_LoS = 0
        p_los = 1.0 / (1.0 + env.los_a * np.exp(-env.los_b * (theta - env.los_a)))
    fspl = _fspl_db(slant, env.carrier_frequency_hz)  # slant > 0, checked above
    path_loss = fspl + p_los * env.excess_loss_los_db + (1.0 - p_los) * env.excess_loss_nlos_db
    received = harvested = rate = None
    if transmit_power_w is not None and array is not None:
        gain = array_gain_db(array)
        received = watts_to_dbm(transmit_power_w) + gain - path_loss
        if circuit is not None:
            harvested = received + 10.0 * math.log10(circuit.conversion_efficiency)
            if bandwidth_hz is not None:
                noise_dbm = noise_power_dbm(bandwidth_hz, noise_figure_db)
                snr_db = harvested + gain - path_loss - noise_dbm
                # np.power, not **: a 0-d input must take the array loop, not scalar pow.
                rate = bandwidth_hz * np.log2(1.0 + np.power(10.0, snr_db / 10.0))
    return LinkBudget(p_los, path_loss, received, harvested, rate)


def _fspl_db(distance_m, frequency_hz: float):  # a sum of logs: no finite link overflows
    return (20.0 * np.log10(distance_m)
            + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT * frequency_hz))


def free_space_path_loss_db(distance_m, frequency_hz: float):
    """FSPL(dB) = 20*log10(d) + 20*log10(4*pi*f/c), elementwise over an array of distances."""
    if not np.greater(distance_m, 0).all():  # NaN fails it
        raise ConfigurationError(f"distance must be positive, got {np.min(distance_m)} m")
    if not np.less(distance_m, np.inf).all():
        raise ConfigurationError("distance must be finite, got inf m")
    return _fspl_db(distance_m, RadioEnvironment(frequency_hz).carrier_frequency_hz)


def achievable_eh_distance_m(
    transmit_power_w: float,
    array: AntennaArray,
    circuit: EhCircuit,
    env: RadioEnvironment,
    uav_height_m: float,
) -> float | None:
    """Largest slant range at which harvested power still meets the threshold.

    Bisects the strictly decreasing harvested-power curve at fixed hover
    height. Returns None when the threshold is already missed directly
    overhead; a threshold that every finite range meets is refused.
    """
    threshold_dbm = circuit.input_threshold_dbm

    def harvested(d: float) -> float:
        return link_budget(env, uav_height_m, d, transmit_power_w, array, circuit).harvested_dbm

    lo = max(uav_height_m, 1e-3)
    if harvested(lo) < threshold_dbm:
        return None
    hi = max(lo * 2.0, 1.0)
    while harvested(hi) >= threshold_dbm:
        hi *= 2.0
        if hi == math.inf:
            raise ConfigurationError(f"input_threshold_dbm = {threshold_dbm:g} dBm is met at every "
                                     "finite range", "input_threshold_dbm")
    for _ in range(200):
        if hi - lo <= 1e-6:
            break
        mid = 0.5 * (lo + hi)
        if harvested(mid) >= threshold_dbm:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def noise_power_dbm(bandwidth_hz: float,
                    noise_figure_db: float = CALIBRATED_NOISE_FIGURE_DB) -> float:
    """Thermal noise floor -174 dBm/Hz + 10*log10(B) + NF; a receiver adds
    noise, so NF >= 0 dB."""
    check_values("> 0", bandwidth_hz=bandwidth_hz)
    check_values(">= 0", noise_figure_db=noise_figure_db)
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
