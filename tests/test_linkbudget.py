"""Link budget unit tests.

Expected values are computed inside the tests from first principles
(hand link budget, closed-form inversions) rather than copied from the
implementation, so the tests stay independent of the code under test.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uewpiot import (
    AntennaArray,
    ConfigurationError,
    EhCircuit,
    GeometryError,
    RadioEnvironment,
    achievable_eh_distance_m,
    array_gain_db,
    free_space_path_loss_db,
    link_budget,
    noise_power_dbm,
    upa_physical_size_m,
    wavelength_m,
)

C = 3.0e8


def hand_path_loss_db(d, h, f, e_los, e_nlos, a=4.88, b=0.43):
    """Independent hand computation of the blended expected path loss."""
    theta = math.degrees(math.asin(h / d))
    p_los = 1.0 / (1.0 + a * math.exp(-b * (theta - a)))
    fspl = 20.0 * math.log10(4.0 * math.pi * d * f / C)
    return fspl + p_los * e_los + (1.0 - p_los) * e_nlos


def hand_harvested_dbm(p_w, n, d, h, f, eta, e_los, e_nlos):
    return (10.0 * math.log10(p_w * 1e3) + 10.0 * math.log10(n)
            - hand_path_loss_db(d, h, f, e_los, e_nlos) + 10.0 * math.log10(eta))


SUBURBAN_400 = RadioEnvironment.suburban(400e6)
CALIBRATED_400 = RadioEnvironment(400e6)
ARRAY_32 = AntennaArray(32)
CIRCUIT_400 = EhCircuit.for_band(400e6)


# --- wavelength and array geometry ------------------------------------------

def test_wavelength():
    assert wavelength_m(RadioEnvironment.suburban(400e6)) == pytest.approx(0.75)
    assert wavelength_m(RadioEnvironment.suburban(2.4e9)) == pytest.approx(0.125)


def test_nonpositive_frequency_rejected():
    with pytest.raises(ConfigurationError):
        RadioEnvironment.suburban(0.0)
    with pytest.raises(ConfigurationError):
        RadioEnvironment.suburban(-1e9)


@pytest.mark.parametrize(
    "freq,expected",
    [
        (400e6, (1.125, 2.625)),
        (900e6, (0.5, 7.0 / 6.0)),
        (2.4e9, (0.1875, 0.4375)),
    ],
)
def test_upa_size_reference_points(freq, expected):
    env = RadioEnvironment.suburban(freq)
    size = upa_physical_size_m(env, 4, 8)
    assert size[0] == pytest.approx(expected[0], abs=1e-12)
    assert size[1] == pytest.approx(expected[1], abs=1e-12)


def test_upa_size_formula_and_single_element():
    env = RadioEnvironment.suburban(400e6)
    lam = 0.75
    for rows, cols in [(1, 1), (2, 3), (4, 8), (7, 5)]:
        w, l = upa_physical_size_m(env, rows, cols)
        assert w == (rows - 1) * 0.5 * lam
        assert l == (cols - 1) * 0.5 * lam
    assert upa_physical_size_m(env, 1, 1) == (0.0, 0.0)


def test_array_gain():
    assert array_gain_db(AntennaArray(1)) == 0.0
    assert array_gain_db(AntennaArray(16)) == pytest.approx(
        10.0 * math.log10(16.0)
    )
    assert array_gain_db(AntennaArray(32)) == pytest.approx(
        10.0 * math.log10(32.0)
    )


def test_array_layout_validation():
    with pytest.raises(ConfigurationError):
        AntennaArray(0)


# --- geometry ----------------------------------------------------------------

def test_geometry_triangle_identity():
    # A 10 m height over sqrt(69) m of ground is a 13 m slant, and the kernel
    # prices it at the elevation asin(10/13).
    slant = math.hypot(10.0, math.sqrt(13.0**2 - 10.0**2))
    assert slant == pytest.approx(13.0)
    assert link_budget(SUBURBAN_400, 10.0, slant).path_loss_db == pytest.approx(
        hand_path_loss_db(13.0, 10.0, 400e6, 0.1, 21.0), abs=1e-9
    )


def test_geometry_constructors():
    # A node directly below the UAV has slant = height: elevation 90 degrees.
    sigmoid_90 = 1.0 / (1.0 + 4.88 * math.exp(-0.43 * (90.0 - 4.88)))
    assert link_budget(SUBURBAN_400, 5.0, 5.0).los_probability == pytest.approx(
        sigmoid_90, abs=1e-12
    )
    # 3 m up over 4 m of ground is a 5 m slant at elevation asin(3/5).
    assert math.hypot(3.0, 4.0) == pytest.approx(5.0)
    theta = math.degrees(math.asin(0.6))
    assert link_budget(SUBURBAN_400, 3.0, 5.0).los_probability == pytest.approx(
        1.0 / (1.0 + 4.88 * math.exp(-0.43 * (theta - 4.88))), abs=1e-12
    )


def test_geometry_rejects_slant_below_height():
    with pytest.raises(GeometryError):
        link_budget(SUBURBAN_400, 10.0, 9.0)
    with pytest.raises(GeometryError):
        link_budget(SUBURBAN_400, -1.0, 5.0)


# --- LoS probability ----------------------------------------------------------

def test_los_probability_reference_angles():
    # Oracle: direct sigmoid evaluation at a=4.88, b=0.43.
    def sigmoid(theta):
        return 1.0 / (1.0 + 4.88 * math.exp(-0.43 * (theta - 4.88)))

    env = SUBURBAN_400
    assert link_budget(env, 10.0, 10.0).los_probability >= 0.9999
    ten_deg = link_budget(env, 10.0 * math.sin(math.radians(10.0)), 10.0)
    assert ten_deg.los_probability == pytest.approx(sigmoid(10.0), abs=1e-9)
    assert sigmoid(10.0) == pytest.approx(0.6494, abs=5e-4)
    flat = link_budget(env, 0.0, 10.0)
    assert flat.los_probability == pytest.approx(sigmoid(0.0), abs=1e-9)
    assert sigmoid(0.0) == pytest.approx(0.0245, abs=5e-4)


def test_los_probability_bounded_and_nondecreasing():
    env = SUBURBAN_400
    previous = 0.0
    for theta in np.linspace(0.0, 90.0, 91):
        p = link_budget(env, 10.0 * math.sin(math.radians(theta)), 10.0).los_probability
        assert 0.0 < p < 1.0
        assert p >= previous
        previous = p


# --- path loss ----------------------------------------------------------------

def test_expected_path_loss_overhead():
    # At 90 degrees elevation the blend collapses to FSPL + LoS excess.
    env = SUBURBAN_400
    fspl = 20.0 * math.log10(4.0 * math.pi * 10.0 * 400e6 / C)
    assert fspl == pytest.approx(44.48, abs=0.01)
    assert link_budget(env, 10.0, 10.0).path_loss_db == pytest.approx(fspl + 0.1, abs=1e-4)


def test_expected_path_loss_hand_value():
    env = SUBURBAN_400
    assert link_budget(env, 10.0, 25.0).path_loss_db == pytest.approx(
        hand_path_loss_db(25.0, 10.0, 400e6, 0.1, 21.0), abs=1e-12
    )


def test_expected_path_loss_strictly_increasing_in_distance():
    env = SUBURBAN_400
    losses = [
        link_budget(env, 10.0, d).path_loss_db for d in np.linspace(10.0, 200.0, 100)
    ]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_expected_path_loss_floor():
    # Blended loss never drops below FSPL plus the LoS excess.
    env = SUBURBAN_400
    for d in (10.0, 30.0, 120.0):
        fspl = free_space_path_loss_db(d, 400e6)
        assert link_budget(env, 10.0, d).path_loss_db >= fspl + 0.1


def test_path_loss_geometry_errors():
    with pytest.raises(GeometryError):
        link_budget(SUBURBAN_400, 0.0, 0.0)
    with pytest.raises(GeometryError):
        link_budget(SUBURBAN_400, 10.0, 9.0)


# --- received / harvested power ------------------------------------------------

def test_harvested_equals_received_at_unit_efficiency():
    circuit = EhCircuit(400e6, -20.0, conversion_efficiency=1.0)
    budget = link_budget(SUBURBAN_400, 10.0, 20.0, 10.0, ARRAY_32, circuit)
    assert budget.harvested_dbm == budget.received_dbm


def test_harvested_offset_at_efficiency_0p3():
    budget = link_budget(SUBURBAN_400, 10.0, 20.0, 10.0, ARRAY_32, CIRCUIT_400)
    offset = budget.harvested_dbm - budget.received_dbm
    assert offset == pytest.approx(10.0 * math.log10(0.3), abs=1e-12)
    assert 10.0 * math.log10(0.3) == pytest.approx(-5.229, abs=5e-4)


def test_harvested_reference_point_suburban():
    # 10 W, 32 elements, overhead at 10 m, 400 MHz, efficiency 0.3.
    budget = link_budget(SUBURBAN_400, 10.0, 10.0, 10.0, ARRAY_32, CIRCUIT_400)
    received, harvested = budget.received_dbm, budget.harvested_dbm
    assert received == pytest.approx(
        hand_harvested_dbm(10.0, 32, 10.0, 10.0, 400e6, 1.0, 0.1, 21.0), abs=1e-12
    )
    assert received == pytest.approx(10.47, abs=0.01)
    assert harvested == pytest.approx(5.24, abs=0.01)


def test_identity_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(500):
        f = rng.choice([400e6, 900e6, 2.4e9])
        env = RadioEnvironment(f)
        eta = float(rng.uniform(0.05, 1.0))
        circuit = EhCircuit(f, -20.0, conversion_efficiency=eta)
        n = int(rng.integers(1, 65))
        array = AntennaArray(n)
        h = float(rng.uniform(0.0, 50.0))
        d = h + float(rng.uniform(0.01, 150.0))
        p = float(rng.uniform(0.1, 50.0))
        budget = link_budget(env, h, d, p, array, circuit)
        assert budget.harvested_dbm == pytest.approx(
            budget.received_dbm + 10.0 * math.log10(eta), abs=1e-12
        )


def test_array_gain_spacing_exact():
    for n1, n2 in [(1, 16), (16, 32), (1, 32), (8, 64)]:
        h1, h2 = (
            link_budget(CALIBRATED_400, 10.0, 25.0, 10.0, AntennaArray(n),
                        CIRCUIT_400).harvested_dbm
            for n in (n1, n2)
        )
        assert h2 - h1 == pytest.approx(10.0 * math.log10(n2 / n1), abs=1e-9)


def test_frequency_ordering_over_configured_bands():
    # Lower carrier, same geometry and gain: at least as much received power.
    received = [
        link_budget(RadioEnvironment(f), 10.0, 20.0, 10.0, ARRAY_32).received_dbm
        for f in (400e6, 900e6, 2.4e9)
    ]
    assert received[0] >= received[1] >= received[2]


# --- thresholds and EH distance -------------------------------------------------

def test_band_thresholds():
    assert EhCircuit.for_band(400e6).input_threshold_dbm == -20.0
    assert EhCircuit.for_band(900e6).input_threshold_dbm == -23.0
    assert EhCircuit.for_band(2.4e9).input_threshold_dbm == -50.0


def test_unknown_band_rejected():
    with pytest.raises(ConfigurationError):
        EhCircuit.for_band(5.8e9)
    # but an explicit threshold is always accepted
    assert EhCircuit(5.8e9, -40.0).input_threshold_dbm == -40.0


def test_efficiency_bounds():
    with pytest.raises(ConfigurationError):
        EhCircuit(400e6, -20.0, conversion_efficiency=0.0)
    with pytest.raises(ConfigurationError):
        EhCircuit(400e6, -20.0, conversion_efficiency=1.5)


def test_eh_distance_infeasible_at_closest_approach():
    circuit = EhCircuit(400e6, 60.0)  # absurdly high threshold
    assert achievable_eh_distance_m(10.0, ARRAY_32, circuit, CALIBRATED_400, 10.0) is None


def test_eh_distance_free_space_matches_closed_form():
    # Zero excess losses reduce the channel to pure FSPL, which inverts in
    # closed form: d* = (c / (4 pi f)) * 10^((P + G + 10log10(eta) - thr) / 20).
    env = RadioEnvironment(400e6, excess_loss_los_db=0.0, excess_loss_nlos_db=0.0)
    circuit = EhCircuit(400e6, -20.0, conversion_efficiency=0.3)
    budget = (10.0 * math.log10(10.0 * 1e3) + 10.0 * math.log10(32.0)
              + 10.0 * math.log10(0.3) - (-20.0))
    oracle = C / (4.0 * math.pi * 400e6) * 10.0 ** (budget / 20.0)
    assert oracle == pytest.approx(184.9, abs=0.1)
    found = achievable_eh_distance_m(10.0, ARRAY_32, circuit, env, 0.0)
    assert found == pytest.approx(oracle, abs=1e-3)


def test_eh_distance_root_consistency():
    circuit = CIRCUIT_400
    found = achievable_eh_distance_m(10.0, ARRAY_32, circuit, CALIBRATED_400, 10.0)
    assert found is not None
    at_root, beyond = link_budget(
        CALIBRATED_400, 10.0, [found, found + 0.01], 10.0, ARRAY_32, circuit
    ).harvested_dbm
    assert abs(at_root - circuit.input_threshold_dbm) <= 0.01
    assert beyond < circuit.input_threshold_dbm


def test_eh_distance_calibrated_band():
    found = achievable_eh_distance_m(10.0, ARRAY_32, CIRCUIT_400, CALIBRATED_400, 10.0)
    assert 10.0 <= found <= 16.0


def test_non_monotone_channel_rejected():
    with pytest.raises(ConfigurationError):
        RadioEnvironment(400e6, excess_loss_los_db=5.0, excess_loss_nlos_db=2.0)


# --- noise and data rate ---------------------------------------------------------

def test_noise_power():
    assert noise_power_dbm(1.0, 0.0) == -174.0
    assert noise_power_dbm(15e6, 9.0) == pytest.approx(
        -174.0 + 10.0 * math.log10(15e6) + 9.0
    )
    assert noise_power_dbm(15e6, 9.0) == pytest.approx(-93.24, abs=0.01)
    with pytest.raises(ConfigurationError):
        noise_power_dbm(0.0, 9.0)


def test_noise_figure_defaults_to_the_calibrated_preset():
    # Leaving the noise figure out gives the calibrated uplink, not a 9 dB receiver.
    assert noise_power_dbm(15e6) == pytest.approx(-174.0 + 10.0 * math.log10(15e6) + 5.0)
    env, circuit = RadioEnvironment(900e6), EhCircuit.for_band(900e6)
    rate = link_budget(env, 10, 10, 10.0, ARRAY_32, circuit, 15e6).rate_bps
    assert rate == pytest.approx(65.55e6, rel=1e-3)  # 47.1 Mbps with a 9 dB receiver
    assert rate == link_budget(env, 10, 10, 10.0, ARRAY_32, circuit, 15e6, 5.0).rate_bps


def test_shannon_rate():
    # Pick the noise figure that sets the uplink SNR, then read the kernel's
    # rate: B*log2(1 + SNR) is 2B at SNR 3 and tends to 0 as SNR does.
    bandwidth = 15e6
    harvested = hand_harvested_dbm(10.0, 32, 10.0, 10.0, 400e6, 0.3, 0.1, 21.0)
    uplink_dbm = harvested + 10.0 * math.log10(32.0) - hand_path_loss_db(
        10.0, 10.0, 400e6, 0.1, 21.0
    )
    noise_floor_dbm = -174.0 + 10.0 * math.log10(bandwidth)

    def rate(snr_db):
        nf = uplink_dbm - noise_floor_dbm - snr_db
        return link_budget(SUBURBAN_400, 10.0, 10.0, 10.0, ARRAY_32, CIRCUIT_400,
                           bandwidth, nf).rate_bps

    assert rate(10.0 * math.log10(3.0)) == pytest.approx(30e6, rel=1e-9)
    assert rate(-300.0) == pytest.approx(0.0, abs=1e-6)


def test_rate_calibrated_operating_point():
    env = RadioEnvironment(900e6)
    circuit = EhCircuit.for_band(900e6)
    rate = link_budget(env, 10.0, 10.0, 10.0, ARRAY_32, circuit, 15e6, 5.0).rate_bps
    assert 50e6 <= rate <= 100e6


def test_rate_monotonicities():
    env = CALIBRATED_400
    circuit = CIRCUIT_400

    def rate(d=15.0, n=32, bw=15e6):
        array = AntennaArray(n)
        return link_budget(env, 10.0, d, 10.0, array, circuit, bw, 5.0).rate_bps

    rates_d = [rate(d=d) for d in np.linspace(10.0, 100.0, 30)]
    assert all(b < a for a, b in zip(rates_d, rates_d[1:]))
    rates_n = [rate(n=n) for n in (1, 2, 8, 16, 32, 64)]
    assert all(b > a for a, b in zip(rates_n, rates_n[1:]))
    rates_b = [rate(bw=bw) for bw in (1e6, 5e6, 15e6, 40e6)]
    assert all(b > a for a, b in zip(rates_b, rates_b[1:]))


# --- array kernel -----------------------------------------------------------------

BANDS_HZ = st.sampled_from([400e6, 900e6, 2.4e9])
ELEMENTS = st.integers(min_value=1, max_value=64)


@settings(max_examples=60, deadline=None)
@given(
    band=BANDS_HZ,
    n=ELEMENTS,
    eta=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    power_w=st.floats(min_value=0.1, max_value=50.0),
    points=st.lists(
        st.tuples(st.floats(min_value=0.01, max_value=100.0),
                  st.floats(min_value=0.0, max_value=200.0)),
        min_size=1, max_size=40,
    ),
)
def test_kernel_equals_scalar_wrappers(band, n, eta, power_w, points):
    # Every element of one array call equals the 0-d call for that link.
    env = RadioEnvironment(band)
    array = AntennaArray(n)
    circuit = EhCircuit(band, -20.0, conversion_efficiency=eta)
    heights = np.array([h for h, _ in points])
    slants = heights + np.array([extra for _, extra in points])
    budget = link_budget(env, heights, slants, power_w, array, circuit, 15e6, 5.0)
    for i, (h, d) in enumerate(zip(heights.tolist(), slants.tolist())):
        link = link_budget(env, h, d, power_w, array, circuit, 15e6, 5.0)
        for stage, values in zip(link, budget):
            assert values[i] == stage


@settings(max_examples=60, deadline=None)
@given(
    band=BANDS_HZ,
    n=ELEMENTS,
    eta=st.floats(min_value=0.05, max_value=1.0),
    height=st.floats(min_value=0.0, max_value=50.0),
    gaps=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=30),
)
def test_kernel_monotone_in_slant(band, n, eta, height, gaps):
    # At a fixed height, a longer slant range loses more and delivers less.
    env = RadioEnvironment(band)
    circuit = EhCircuit(band, -20.0, conversion_efficiency=eta)
    slants = height + np.cumsum(gaps)
    budget = link_budget(env, height, slants, 10.0, AntennaArray(n), circuit,
                         15e6, 5.0)
    assert np.all(np.diff(budget.path_loss_db) > 0)
    assert np.all(np.diff(budget.harvested_dbm) < 0)
    assert np.all(np.diff(budget.rate_bps) < 0)


def test_kernel_stages_follow_inputs():
    budget = link_budget(CALIBRATED_400, 10.0, [10.0, 20.0])
    assert budget.received_dbm is budget.harvested_dbm is budget.rate_bps is None
    budget = link_budget(CALIBRATED_400, 10.0, [10.0, 20.0], 10.0, ARRAY_32, CIRCUIT_400)
    assert budget.harvested_dbm.shape == (2,) and budget.rate_bps is None


def test_kernel_rejects_bad_geometry_and_bandwidth():
    with pytest.raises(GeometryError, match="zero slant"):
        link_budget(SUBURBAN_400, [10.0, 0.0], [12.0, 0.0])
    with pytest.raises(GeometryError, match="slant distance 9.0 m is below hover height 10.0 m"):
        link_budget(SUBURBAN_400, 10.0, [12.0, 9.0])
    with pytest.raises(GeometryError, match="hover height"):
        link_budget(SUBURBAN_400, [-1.0], [5.0])
    with pytest.raises(ConfigurationError, match="bandwidth"):
        link_budget(SUBURBAN_400, 10.0, [12.0], 10.0, ARRAY_32, CIRCUIT_400, 0.0, 5.0)
