"""Self-tests of the benchmark: span arithmetic, the tracer's accounting,
each workload at tiny size through the real CLI and its gate, and seed
determinism.  Run from the repository root:

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402


def tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(w, args=w.tiny_args, realizations=2)


def test_self_times_of_nested_spans():
    spans = [
        (0.0, 10.0, None),   # 0 root: children cover [1,4] and [5,9]
        (1.0, 4.0, 0),       # 1: child [2,3]
        (2.0, 3.0, 1),       # 2 leaf
        (5.0, 9.0, 0),       # 3: overlapping children [5,7] and [6,8]
        (5.0, 7.0, 3),       # 4 leaf
        (6.0, 8.0, 3),       # 5 leaf
        (9.5, 11.0, 0),      # 6 runs past its parent: only [9.5,10] counts
    ]
    got = tracing.self_times(spans)
    want = [10 - 3 - 4 - 0.5, 2.0, 1.0, 1.0, 2.0, 2.0, 1.5]
    assert got == pytest.approx(want)
    # self times of a tree add up to the root's duration when children
    # stay inside their parents and do not overlap
    assert sum(tracing.self_times(spans[:3])) == pytest.approx(10.0)


def test_tracer_accounts_for_realization_time():
    tracer = tracing.Tracer(traced=True)
    leaf = tracer.wrap("linalg.leaf", lambda: sum(range(20000)))

    def inner_fn():
        leaf()
        return sum(range(20000))

    inner = tracer.wrap("xy.inner", inner_fn)
    realization = tracer.wrap_realization(lambda config, index: inner(), 1000)
    for index in range(3):
        realization(None, index)
    s = tracer.summary()
    assert s["spans"]["xy.inner"]["calls"] == 3
    assert s["spans"][tracing.REALIZATION]["calls"] == 3
    assert s["realization_inner_self_sum_s"] == pytest.approx(
        s["realization_total_s"], rel=1e-9)
    assert set(s["kernel_callers"]["linalg.leaf"]) == {"xy.inner"}
    assert [r["index"] for r in tracer.realizations] == [0, 1, 2]


def test_missing_target_is_reported_absent():
    tracer = tracing.Tracer(traced=True)
    module = types.SimpleNamespace(present=lambda: 1)
    assert tracer.patch_attr(module, "present", "m.present")
    assert not tracer.patch_attr(module, "gone", "m.gone")
    assert not tracer.patch_attr(module, "Gone.method", "m.Gone.method")
    assert tracer.summary()["absent"] == ["m.Gone.method", "m.gone"]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_and_passes_its_gate(name, tmp_path):
    workload = tiny(name)
    records = [run.run_invocation(ROOT, workload, derive_seed(name, 1, k),
                                  str(tmp_path), k, traced, print)
               for k, traced in enumerate((False, True))]
    for r in records:
        assert r["exit_code"] == 0 and r["problems"] == []
        assert r["realizations"] == 2
    oracle = run.run_oracle_gate(ROOT, WORKLOADS[name], derive_seed(name, 1, "gate"))
    assert oracle["ok"], oracle
    assert oracle["oracle_dev"] <= gate.ORACLE_TOL[name]

    # every metric BENCHMARK.json lists is computed, with its unit
    metrics, _ = run.end_to_end(records[:1], oracle, 3, 0)
    metrics.update(run.per_layer(records[1:], records[:1]))
    spec = _spec()
    for entry in spec["end_to_end"] + spec["per_layer"]:
        value, unit = metrics[entry["name"]]
        assert unit == entry["unit"], entry["name"]
    for entry in spec["end_to_end"]:
        assert metrics[entry["name"]][0] > 0, entry["name"]
    assert metrics["trace.realization_coverage"][0] > 0.5
    assert metrics["experiments.realization.calls"][0] == 2


def test_gate_rejects_broken_outputs(tmp_path):
    workload = tiny("xy-lightcone")
    argv = workload.cli_argv(5, str(tmp_path))
    csv = tmp_path / "lr-lightcone.csv"
    csv.write_text("# model = xy\ndistance,mean,stderr,max\n"
                   "2.0,0.5,0.1,0.7\n4.0,1.9,0.1,2.5\n")
    problems = gate.check_outputs(workload, argv, str(csv))
    assert any("above its bound" in p for p in problems)


def test_same_seed_same_bytes_and_new_seed_new_inputs(tmp_path):
    workload = tiny("xxz-ct")
    seed = derive_seed("xxz-ct", 7, 0)
    assert seed == derive_seed("xxz-ct", 7, 0)
    assert len({derive_seed("xxz-ct", s, k) for s in range(5) for k in range(5)}) == 25
    hashes = []
    for k, s in enumerate((seed, seed, derive_seed("xxz-ct", 8, 0))):
        r = run.run_invocation(ROOT, workload, s, str(tmp_path), k, False, print)
        assert r["exit_code"] == 0 and r["problems"] == []
        hashes.append(r["sha256"])
    assert hashes[0] == hashes[1]
    assert hashes[0]["xxz-ct.csv"] != hashes[2]["xxz-ct.csv"]
    assert hashes[0]["xxz-ct.dat"] != hashes[2]["xxz-ct.dat"]


def test_tail_statistic():
    assert run.tail_statistic([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    samples = list(range(1, 41))
    value, percentile, beyond = run.tail_statistic(samples)
    assert beyond == 10 and sum(1 for x in samples if x > value) == 10
    assert percentile == 75.0
