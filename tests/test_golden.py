"""Golden-output regression: ``reproduce`` at the default config emits
exactly the reference bytes, also when it is run again in the same process
over its own earlier outputs."""
import hashlib

import pytest

from uewpiot import cli

GOLDEN_SHA256_PREFIXES = {
    "eh_sweep.csv": "2f192d6ba27971f5",
    "rate_sweep.csv": "a7cb0c1a83b1a8f4",
    "tour.csv": "ee25d15417aab8b3",
    "report.csv": "5f72c2fab9290d3f",
    "summary.csv": "605338595e4a1d08",
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
