"""Golden-output regression: ``reproduce`` at the default config emits
exactly the reference bytes, also when it is run again in the same process
over its own earlier outputs; so do both sweeps at design scale and
``simulate`` on a 400-node field. A tour-quality gate keeps every
strategy's Monte-Carlo mean tour length at or below that of the
nearest-neighbour + 2-opt tours the heuristic replaced."""
import csv
import hashlib

import pytest

from uewpiot import cli

GOLDEN_SHA256_PREFIXES = {
    "eh_sweep.csv": "2f192d6ba27971f5",
    "rate_sweep.csv": "a7cb0c1a83b1a8f4",
    "tour.csv": "b3d9d79c2139ea1c",
    "report.csv": "5f72c2fab9290d3f",
    "summary.csv": "c9ebc68f9407097d",
}


@pytest.mark.parametrize("runs", [1, 2])
def test_reproduce_matches_golden_hashes(tmp_path, runs):
    for _ in range(runs):
        assert cli.main(["--out", str(tmp_path), "reproduce"]) == 0
    prefixes = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
        for name in GOLDEN_SHA256_PREFIXES
    }
    assert prefixes == GOLDEN_SHA256_PREFIXES


# Three bands x elements 1..64 x a 0.1 m grid: 94,272 rows per sweep file.
DESIGN_CONFIG = (
    "sweep.frequencies_hz = 4e8,9e8,2.4e9\n"
    f"sweep.elements = {','.join(str(n) for n in range(1, 65))}\n"
    "sweep.distance_step_m = 0.1\n"
)
DESIGN_SHA256_PREFIXES = {
    "eh_sweep.csv": "a0e113bae6da67f6",
    "rate_sweep.csv": "009b2ea503738b53",
}


def test_design_sweeps_match_golden_hashes(tmp_path):
    # Exact bytes: a last-digit drift that a relative tolerance would pass fails here.
    config = tmp_path / "design.cfg"
    config.write_text(DESIGN_CONFIG, encoding="utf-8")
    for command in ("sweep-eh", "sweep-rate"):
        assert cli.main(["--config", str(config), "--out", str(tmp_path), command]) == 0
    prefixes = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
        for name in DESIGN_SHA256_PREFIXES
    }
    assert prefixes == DESIGN_SHA256_PREFIXES


# A 400 m x 400 m field at the default density: 400 nodes, two Monte-Carlo fields.
FIELD_SCALE_CONFIG = (
    "field.width_m = 400\n"
    "field.height_m = 400\n"
    "plan.mc_seeds = 2\n"
)
FIELD_SCALE_SHA256_PREFIXES = {
    "report.csv": "6bee3e352d56134c",
    "summary.csv": "5dc8e1384c32676e",
    "tour.csv": "5c843b7e1b35d853",
}


def test_field_scale_simulate_matches_golden_hashes(tmp_path):
    config = tmp_path / "field-scale.cfg"
    config.write_text(FIELD_SCALE_CONFIG, encoding="utf-8")
    args = ["--config", str(config), "--seed", "1", "--out", str(tmp_path), "simulate"]
    assert cli.main(args) == 0
    prefixes = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
        for name in FIELD_SCALE_SHA256_PREFIXES
    }
    assert prefixes == FIELD_SCALE_SHA256_PREFIXES


# Per-strategy mc_mean_length_m of the nearest-neighbour + first-improvement
# 2-opt tours that the greedy-edge + 2-opt/Or-opt search replaced. The paper's
# saving figures come from these means, so no strategy may get longer.
TOUR_QUALITY_CEILINGS = {
    # reproduce at the default config (100 Monte-Carlo fields, seeds 1-100)
    "reproduce": {"one-by-one": 438.6243644, "H=10": 418.8542952, "H=5": 391.9285461},
    # plan on a 400 m x 400 m field, 15 Monte-Carlo fields from seed 1
    "plan-400": {"one-by-one": 6426.975577, "H=10": 6132.301734, "H=5": 5608.155404},
}


@pytest.mark.parametrize("run", sorted(TOUR_QUALITY_CEILINGS))
def test_mc_mean_tour_lengths_stay_within_ceilings(tmp_path, run):
    args = ["--out", str(tmp_path), "reproduce"]
    if run == "plan-400":
        config = tmp_path / "plan-400.cfg"
        config.write_text(
            "field.width_m = 400\nfield.height_m = 400\nplan.mc_seeds = 15\n", encoding="utf-8"
        )
        args = ["--config", str(config), "--seed", "1", "--out", str(tmp_path), "plan"]
    assert cli.main(args) == 0
    with (tmp_path / "summary.csv").open(newline="", encoding="utf-8") as handle:
        means = {row["strategy"]: float(row["mc_mean_length_m"]) for row in csv.DictReader(handle)}
    ceilings = TOUR_QUALITY_CEILINGS[run]
    assert means.keys() == ceilings.keys()
    for strategy, ceiling in ceilings.items():
        assert means[strategy] <= ceiling, strategy
