"""The benchmark's own rules: streams, tail rule, failure share, names.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, run, workloads
from perfbench.stats import failed_frac, latency_summary, tail_percentile
from perfbench.tracer import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _take(stream, n):
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_stream(name):
    wl = workloads.WORKLOADS[name]
    a = _take(workloads.request_stream(7, wl), 20)
    b = _take(workloads.request_stream(7, wl), 20)
    for ra, rb in zip(a, b):
        assert ra.index == rb.index and ra.temp_c == rb.temp_c
        assert np.array_equal(ra.x, rb.x)
    assert all(r.temp_c in wl.temps for r in a)
    assert all(1 <= r.x.shape[0] <= workloads.MAX_IMAGES_PER_REQUEST
               for r in a)
    assert not any(r.malformed for r in a)


def test_different_seed_different_stream():
    wl = workloads.WORKLOADS["serve-nominal"]
    a = _take(workloads.request_stream(1, wl), 5)
    b = _take(workloads.request_stream(2, wl), 5)
    assert any(ra.x.shape != rb.x.shape or not np.array_equal(ra.x, rb.x)
               for ra, rb in zip(a, b))
    assert workloads.sample_indices(1) != workloads.sample_indices(2)
    assert workloads.sample_indices(3) == workloads.sample_indices(3)


def test_isolation_mix_is_seeded_and_poisoned():
    wl = workloads.WORKLOADS["serve-nominal"]
    a = workloads.isolation_requests(5, wl, n=50)
    b = workloads.isolation_requests(5, wl, n=50)
    bad = [r for r in a if r.malformed]
    assert len(bad) == 1                       # 2 % of 50
    assert [r.index for r in bad] == [r.index for r in b if r.malformed]
    assert all(not np.isfinite(r.x).all() for r in bad)
    assert all(np.isfinite(r.x).all() for r in a if not r.malformed)
    fleet = workloads.WORKLOADS["fleet-drift-mlc"]
    assert not any(r.malformed
                   for r in workloads.isolation_requests(5, fleet, n=50))


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
    (100000, 99.99)])
def test_tail_is_highest_rung_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10 - 1e-9


def test_latency_summary_reports_rung_and_count():
    lat = np.arange(1, 1001) / 1e3            # 1..1000 ms
    s = latency_summary(lat)
    assert s["tail_percentile"] == 99.0 and s["samples"] == 1000
    assert s["beyond"] == 10
    assert s["tail_ms"] == pytest.approx(np.percentile(lat * 1e3, 99))
    assert s["p50_ms"] == pytest.approx(500.5)
    few = latency_summary([0.002, 0.001])
    assert few["tail_percentile"] == 100.0 and few["tail_ms"] == 2.0


def test_failed_frac_excludes_malformed():
    # (malformed, ok): the malformed request fails as designed and one
    # co-batched well-formed request fails with it.
    records = [(True, False), (False, False), (False, True), (False, True)]
    assert failed_frac(records) == pytest.approx(1 / 3)
    assert failed_frac([(True, False)]) == 0.0
    assert failed_frac([(False, True)] * 4) == 0.0


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_match_the_contract():
    doc = _benchmark_json()
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]]
             + list(run.METRICS) + list(layers.PER_LAYER)
             + list(workloads.WORKLOADS))
    assert all(NAME.fullmatch(name) for name in names), names
    assert len({w["name"] for w in doc["workloads"]}) == len(doc["workloads"])


def test_benchmark_json_matches_the_code():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [m["name"] for m in doc["end_to_end"]] == list(run.GATED)
    for m in doc["end_to_end"]:
        unit, better, _kind = run.METRICS[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert [m["name"] for m in doc["per_layer"]] == list(layers.PER_LAYER)
    for m in doc["per_layer"]:
        assert (m["unit"], m["better"]) == layers.PER_LAYER[m["name"]]


def test_recorder_self_time_and_unpatch():
    mod = types.ModuleType("perfbench_toy")

    def inner():
        return 1

    def outer():
        return mod.inner() + mod.inner()

    mod.inner, mod.outer = inner, outer
    sys.modules["perfbench_toy"] = mod
    try:
        rec = SpanRecorder()
        seen = []
        assert rec.wrap("perfbench_toy:inner", "toy.inner",
                        observe=lambda a, k: seen.append(a))
        assert rec.wrap("perfbench_toy:outer", "toy.outer")
        assert not rec.wrap("perfbench_toy:absent", "toy.absent")
        assert mod.outer() == 2 and len(seen) == 2
        rows = rec.table()
        assert rows["toy.inner"]["calls"] == 2
        inner_ns = rows["toy.inner"]["total_ns"]
        row = rows["toy.outer"]
        assert row["self_ns"] == row["total_ns"] - inner_ns
        assert rec.missing == ["perfbench_toy:absent"]
        events = rec.chrome_trace()["traceEvents"]
        assert {e["name"] for e in events} == {"toy.inner", "toy.outer"}
        rec.unpatch()
        assert mod.inner is inner and mod.outer is outer
    finally:
        del sys.modules["perfbench_toy"]
