"""The benchmark's own tests.

Named so that the repository's default ``pytest`` collection skips them (the
tiny runs take ~40 s); run them explicitly::

    python3 -m pytest perfbench/check_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Tuple

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.core.repository import NFRepository  # noqa: E402
from run import E2E_UNITS, Repeat, gate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import BUILDERS, WorkloadError, check_nf_types  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


# --------------------------------------------------------------- span algebra

#: A synthetic span tree: (layer, start, end, children).  Two events; the
#: first nests three deep with siblings, gaps and a zero-length child.
SPAN_TREES = [
    ("link", 0.0, 10.0, [
        ("switch", 1.0, 6.0, [
            ("nf", 2.0, 3.5, []),
            ("link", 4.0, 5.0, [("host", 4.25, 4.75, [])]),
        ]),
        ("host", 7.0, 7.0, []),
        ("host", 8.0, 9.5, []),
    ]),
    ("trafficgen", 20.0, 23.0, [("host", 20.5, 22.0, [("link", 21.0, 21.5, [])])]),
]


def _flatten(tree, parent=None, out=None) -> List[Tuple[int, int, str, float, float]]:
    out = [] if out is None else out
    layer, start, end, children = tree
    span_id = len(out)
    out.append((span_id, parent, layer, start, end))
    for child in children:
        _flatten(child, span_id, out)
    return out


def reference_self_times(spans) -> Dict[str, float]:
    """Self time by the definition: duration minus the union its children cover."""
    totals: Dict[str, float] = {}
    for span_id, _parent, layer, start, end in spans:
        intervals = sorted((s, e) for _i, p, _l, s, e in spans if p == span_id)
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[layer] = totals.get(layer, 0.0) + (end - start) - covered
    return totals


def _clock_reads(tree, out: List[float]) -> List[float]:
    """Timestamps in the order the tracer reads its clock: start, children, end."""
    _layer, start, end, children = tree
    out.append(start)
    for child in children:
        _clock_reads(child, out)
    out.append(end)
    return out


def test_self_time_folding_matches_interval_definition():
    reads: List[float] = []
    for tree in SPAN_TREES:
        _clock_reads(tree, reads)
    tracer = Tracer(clock=iter(reads).__next__)

    def replay(tree):
        layer, _start, _end, children = tree
        tracer.span(layer, lambda: [replay(child) for child in children], (), {})

    for tree in SPAN_TREES:
        replay(tree)

    spans = []
    for tree in SPAN_TREES:
        spans.extend(_flatten(tree))
    expected = reference_self_times(spans)
    assert set(tracer.self_s) == set(expected)
    for layer, value in expected.items():
        assert tracer.self_s[layer] == pytest.approx(value, abs=1e-12), layer
    # Self times of all layers add up to the wall time of the top-level spans.
    assert sum(tracer.self_s.values()) == pytest.approx(13.0)
    assert tracer.event_count == len(SPAN_TREES)
    assert tracer.named_s == pytest.approx(13.0)


def test_span_closes_when_the_callee_raises():
    tracer = Tracer(clock=iter([0.0, 1.0, 3.0, 4.0]).__next__)

    def failing():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            tracer.span("nf", failing, (), {})

    tracer.span("link", outer, (), {})
    assert tracer.self_s == {"nf": 2.0, "link": 2.0}
    assert tracer.event_count == 1


# ------------------------------------------------------------- workload specs


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(BUILDERS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in BENCHMARK["end_to_end"]:
        assert E2E_UNITS[metric["name"]] == metric["unit"]


def test_unknown_nf_type_is_rejected_before_running():
    spec = BUILDERS["nf-chains"](0, "tiny")
    spec.assignments[3].nfs[0] = "dns-lb"
    with pytest.raises(WorkloadError, match="dns-lb"):
        check_nf_types(spec, NFRepository.with_default_catalog())


# ---------------------------------------------------------------- the gate


def test_gate_fails_repeats_that_disagree_or_broke():
    record = {"digest": "abc", "events": 10, "drained": True}
    repeats = [
        Repeat(False, dict(record), "", 1.0),
        Repeat(True, dict(record), "", 1.0),
        Repeat(False, dict(record, digest="abd"), "", 1.0),
        Repeat(True, dict(record, events=11), "", 1.0),
        Repeat(False, None, "exit 1: CatalogError", 1.0),
    ]
    problems = gate(repeats)
    assert [r.ok for r in repeats] == [True, True, False, False, False]
    assert len(problems) == 3 and "digest" in problems[0] and "events" in problems[1]


# ---------------------------------------------------------------- tiny runs


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", list(BUILDERS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        report = "\n".join(lines[:-1])
        for name, unit in E2E_UNITS.items():
            assert any(line.split()[:1] == [name] and f" {unit} " in line and "n=" in line
                       for line in report.splitlines()), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "nf-chains", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
