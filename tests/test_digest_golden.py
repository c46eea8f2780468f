"""Tier-1 slice of the golden digest oracle (`tools/digest_matrix.py`).

The full replay of every canned scenario runs in the CI ``digest-golden``
job; here the golden file is checked for coverage and two quick legs are
replayed against it in both simulation modes, so a behaviour change in the
packet path -- or a change in the number of events it takes -- fails fast.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "tools"))

import digest_matrix

from repro.scenarios import scenario_names


def test_golden_file_covers_the_canned_library():
    golden = digest_matrix.load_golden()
    assert golden["seed"] == digest_matrix.SEED
    assert golden["simulation_modes"] == ["packet", "hybrid"] == list(digest_matrix.SIMULATION_MODES)
    expected = {
        digest_matrix.leg_key(name, shards, mode)
        for name in scenario_names()
        for shards in digest_matrix.SHARD_COUNTS
        for mode in digest_matrix.SIMULATION_MODES
    }
    assert set(golden["legs"]) == expected
    assert all(isinstance(leg["events"], int) and leg["events"] > 0 for leg in golden["legs"].values())


def test_quick_legs_match_the_golden_digests():
    legs = digest_matrix.replay(["fig2-roaming", "video-cell"], log=lambda line: None)
    assert digest_matrix.compare(legs, digest_matrix.load_golden()) == []


def test_compare_names_the_sections_that_moved():
    golden = {"legs": {"x/shards-1": {"digest": "a" * 64, "sections": {"gateway": "1", "clients": "2"}}}}
    legs = {"x/shards-1": {"digest": "b" * 64, "sections": {"gateway": "1", "clients": "3"}}}
    (line,) = digest_matrix.compare(legs, golden)
    assert "['clients']" in line and "events" not in line
    assert digest_matrix.compare({"y/shards-1": legs["x/shards-1"]}, golden) == [
        "y/shards-1: no golden digest (run --write)"
    ]


def test_compare_names_an_event_count_that_moved():
    golden = {"legs": {"x/shards-1/hybrid": {"digest": "a" * 64, "events": 100, "sections": {}}}}
    legs = {"x/shards-1/hybrid": {"digest": "a" * 64, "events": 99, "sections": {}}}
    assert digest_matrix.compare(legs, golden) == ["x/shards-1/hybrid: 99 events != golden 100"]
    assert digest_matrix.compare({"x/shards-1/hybrid": dict(legs["x/shards-1/hybrid"], events=100)}, golden) == []
