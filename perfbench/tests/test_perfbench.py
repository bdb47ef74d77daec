"""Self-tests of the benchmark's own rules.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import instances as gen  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402


# ---------------------------------------------------------------------------
# percentile rule: at least ten samples beyond a reported percentile
# ---------------------------------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(99)), 0.9) is None
    assert stats.tail_count(99, 0.9) == 9
    assert stats.tail_count(100, 0.9) == 10
    assert stats.percentile(list(range(100)), 0.9) == 89


def test_median_is_reported_from_twenty_samples():
    assert stats.percentile(list(range(19)), 0.5) is None
    assert stats.percentile(list(range(20)), 0.5) == 9


def test_percentile_of_no_samples_is_unreported():
    assert stats.percentile([], 0.5) is None
    assert stats.median([]) == 0.0


# ---------------------------------------------------------------------------
# failed_frac: refused and errored requests count as failures
# ---------------------------------------------------------------------------
def test_failed_frac_counts_every_non_ok_outcome():
    outcomes = [stats.OK, stats.REFUSED, stats.ERROR, stats.WRONG, stats.OK]
    assert stats.failed_frac(outcomes) == pytest.approx(3 / 5)
    assert stats.failed_frac([stats.OK] * 4) == 0.0
    assert stats.failed_frac([]) == 0.0


class _RaisingClient:
    def __init__(self, exc):
        self.exc = exc

    def solve(self, instance):
        raise self.exc


@pytest.mark.parametrize(
    "status, code, outcome",
    [(503, "overloaded", stats.REFUSED),
     (504, "deadline_exceeded", stats.REFUSED),
     (500, "internal", stats.ERROR),
     (0, "connection_error", stats.ERROR)],
)
def test_service_refusals_and_errors_are_failures(status, code, outcome):
    from repro.service import ServiceError
    from workloads import Service

    wl = Service(seed=1, scale=0.1)
    wl.pool = [gen.build(gen.service_specs(1, 1, 0.1)[0])[0]]
    exc = ServiceError(status, {"status": "error", "code": code,
                                "error": "test"})
    op = wl.send(_RaisingClient(exc), ("miss", 0, None), traced=False)
    assert op.outcome == outcome
    assert stats.failed_frac([op.outcome, stats.OK]) == 0.5


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------
SPEC_LISTS = {
    "lp_heavy": lambda seed: gen.lp_heavy_specs(seed, 4, 0.02),
    "wide_frontier": lambda seed: gen.wide_frontier_specs(seed, 2, 0.01),
    "fleet": lambda seed: gen.fleet_specs(seed, 6, 0.1),
    "replan": lambda seed: gen.replan_specs(seed, 2, 0.05),
    "service": lambda seed: gen.service_specs(seed, 4, 0.2),
}


def _keys(workload, seed):
    return [gen.build(s)[0].content_key() for s in SPEC_LISTS[workload](seed)]


@pytest.mark.parametrize("workload", sorted(SPEC_LISTS))
def test_same_seed_gives_same_content_keys(workload):
    assert _keys(workload, 7) == _keys(workload, 7)


@pytest.mark.parametrize("workload", sorted(SPEC_LISTS))
def test_different_seed_gives_different_content_keys(workload):
    assert set(_keys(workload, 7)).isdisjoint(_keys(workload, 8))


def test_service_repeats_only_misses_well_back_in_the_stream():
    from workloads import Service

    wl = Service(seed=3, scale=0.1)
    wl.pool = [gen.build(s)[0] for s in gen.service_specs(3, 40, 0.1)]
    stream = wl.request_stream()
    assert stream == wl.request_stream()
    first_miss = {}
    for i, (kind, k, _) in enumerate(stream):
        if kind == "miss":
            assert k not in first_miss
            first_miss[k] = i
        else:
            assert i - first_miss[k] >= wl.repeat_gap
    kinds = [kind for kind, _, _ in stream]
    assert kinds.count("miss") == len(wl.pool)
    assert kinds.count("hit") >= kinds.count("replan") > 0


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the catalog
# ---------------------------------------------------------------------------
def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_catalog():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(
        metrics.WORKLOAD_NAMES
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in bench["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in bench["per_layer"]
    ] == [entry[:3] for entry in metrics.PER_LAYER]


def test_every_demoted_metric_is_per_layer():
    layer = set(metrics.per_layer_names())
    assert set(metrics.DEMOTED) <= layer
    assert not set(metrics.DEMOTED) & set(metrics.end_to_end_names())


def test_dropped_workloads_still_run_but_are_not_listed():
    from workloads import WORKLOADS

    assert set(metrics.DROPPED).isdisjoint(metrics.WORKLOAD_NAMES)
    assert set(metrics.WORKLOAD_NAMES) | set(metrics.DROPPED) == set(WORKLOADS)


def test_peak_reset_forgets_an_earlier_peak():
    from workloads import _reset_peak_rss, _vm_hwm_kb

    if not os.access("/proc/self/clear_refs", os.W_OK):
        pytest.skip("no /proc/self/clear_refs")
    block = bytearray(64 << 20)
    block[::4096] = b"x" * len(block[::4096])
    before = _vm_hwm_kb(os.getpid())
    del block
    _reset_peak_rss()
    assert _vm_hwm_kb(os.getpid()) < before - (32 << 10)
