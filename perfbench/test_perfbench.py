"""Tests of the benchmark's own helpers, on synthetic samples.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

import json

import numpy as np
import pytest

import run
from common import ROOT
from stats import (OpCounter, Summary, interpolate_rate, median, percentile,
                   supports, tail_rank)


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
def test_percentile_matches_numpy_linear(n):
    samples = list(np.random.default_rng(n).exponential(3.0, size=n))
    for q in (0, 1, 25, 50, 90, 99, 100):
        assert percentile(samples, q) == pytest.approx(
            float(np.percentile(samples, q)), rel=1e-12)


def test_percentile_is_exact_not_a_bucket_edge():
    # every sample is 7 ms except a slow tail; no bucket rounding
    samples = [7.0] * 990 + [40.0 + i for i in range(10)]
    assert percentile(samples, 50) == 7.0
    assert percentile(samples, 99) == pytest.approx(7.0 + 0.01 * 33.0)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n, rank", [
    (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (99, 75.0),
    (40, 75.0), (39, 50.0), (20, 50.0), (3, 50.0)])
def test_tail_rank_leaves_ten_samples_beyond(n, rank):
    assert tail_rank(n) == rank
    if rank != 50.0 or n >= 20:
        assert supports(n, rank)


def test_tail_rank_cap_holds_one_rank():
    assert tail_rank(120, max_q=75.0) == 75.0
    assert tail_rank(40, max_q=75.0) == 75.0
    assert tail_rank(39, max_q=75.0) == 50.0


def test_summary_names_the_supported_tail():
    samples = list(range(1, 101))          # 100 samples -> p90
    summary = Summary.of(samples)
    assert (summary.n, summary.tail_q) == (100, 90.0)
    assert summary.p50 == median(samples) == 50.5
    assert summary.tail == pytest.approx(90.1)
    assert summary.scaled(1e3).tail == pytest.approx(90100.0)


def test_op_counter_counts_attempts_and_failures():
    ops = OpCounter()
    assert not ops.correct                 # nothing attempted
    assert ops.check(True, "unused")
    assert not ops.check(False, "logits differ")
    ops.fail("shed", 3)
    ops.ok(5)
    assert (ops.attempted, ops.failed) == (10, 4)
    assert ops.reasons == {"logits differ": 1, "shed": 3}
    assert not ops.correct
    clean = OpCounter()
    clean.ok(2)
    assert clean.correct


def _rung(rate, tail_ms, ok):
    return {"rate": rate, "tail_ms": tail_ms, "ok": ok}


def test_interpolate_rate():
    limit = 100.0
    # crossing placed linearly between the last pass and the first fail
    rungs = [_rung(100, 20, True), _rung(300, 60, True),
             _rung(400, 140, False)]
    assert interpolate_rate(rungs, limit) == pytest.approx(350.0)
    # every rung passed: the top rung is the answer
    assert interpolate_rate(rungs[:2], limit) == 300
    # a rung failing on shedding below the limit does not extrapolate
    shed = [_rung(100, 20, True), _rung(300, 30, False)]
    assert interpolate_rate(shed, limit) == 100
    # nothing met the limit
    assert interpolate_rate([_rung(100, 150, False)], limit) is None


def test_benchmark_json_lists_every_metric_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.ALIASES) == set(run.WORKLOADS)
