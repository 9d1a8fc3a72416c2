"""The default-seed outputs of the benchmark workloads still match the
digests recorded in ``perfbench/workloads.json``.  Reads ``perfbench/``
and writes nothing there."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["lproj", "icss-e1", "helly-amenta"])
def test_default_seed_digests_match_the_record(name):
    recorded = workloads.spec()["workloads"][name]["outputs_sha256"]
    assert workloads.default_digests(name) == recorded
