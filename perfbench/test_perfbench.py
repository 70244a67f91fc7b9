"""Tests of the benchmark itself: output schema, span arithmetic, probe
removal, and that tracing leaves the program's artifacts unchanged.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math

import numpy as np
import pytest

import run

run.import_matt()

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED_MARK, Tracer, holders, leftover_wrappers, self_times  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One untraced and one traced in-process run of a one-epoch train-bags."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "WORK", tmp_path_factory.mktemp("work"))
        mp.setattr(workloads.TrainBags, "epochs", 1)
        for trace in (0, 1):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run.main(["--workload", "train-bags", "--seed", "2",
                                 "--seconds", "0", "--trace", str(trace)])
            assert code == 0
            out[trace] = stdout.getvalue().splitlines()
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_schema(results, trace, section):
    lines = results[trace]
    assert lines[0].startswith("machine ")
    machine = json.loads(lines[0].split(" ", 1)[1])
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "cgroup_cpu_max",
            "loadavg_at_start", "seed"} <= set(machine)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= run.MIN_OPS
    assert result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_benchmark_json_lists_every_per_layer_metric():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == list(layers.PER_LAYER)


def test_self_times_of_a_hand_built_span_tree():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]; d [20, 21] is a second root
    parent = np.array([-1, 0, 0, 2, -1])
    start = np.array([0.0, 1.0, 4.0, 5.0, 20.0])
    end = np.array([10.0, 3.0, 8.0, 6.0, 21.0])
    assert self_times(parent, end - start).tolist() == [4.0, 2.0, 3.0, 1.0, 1.0]


def test_span_table_sums_self_time_per_name_and_op():
    tracer = Tracer()
    for op, spans in ((1, [("outer", -1, 0.0, 10.0), ("inner", 0, 1.0, 4.0)]),
                      (2, [("outer", -1, 0.0, 5.0), ("inner", 2, 0.0, 1.0),
                           ("inner", 2, 2.0, 4.0)])):
        for name, parent, t0, t1 in spans:
            if name not in tracer.names:
                tracer._name_ids[name] = len(tracer.names)
                tracer.names.append(name)
            tracer.name.append(tracer._name_ids[name])
            tracer.parent.append(parent)
            tracer.op.append(op)
            tracer.start.append(t0)
            tracer.end.append(t1)
    both = layers.SpanTable(tracer, [1, 2])
    assert both.calls("inner") == 3
    assert both.self_s("outer") == pytest.approx(7.0 + 2.0)
    assert both.total("inner") == pytest.approx(6.0)
    assert layers.SpanTable(tracer, [2]).self_s("outer") == pytest.approx(2.0)
    assert both.calls("absent") == 0


def test_probes_reach_callers_and_are_removed(results):
    # the results fixture ran a traced workload in this process
    assert leftover_wrappers() == []
    import matt.cli
    import matt.dsp.wav

    original = matt.dsp.wav.read_wav
    tracer = Tracer()
    tracer.install(layers.PROBES)
    try:
        assert matt.cli.read_wav is not original  # wrapped under the caller's own name
        assert all(is_wrapped(p) for p in layers.PROBES)
    finally:
        tracer.uninstall()
    assert leftover_wrappers() == []
    assert matt.cli.read_wav is original


def is_wrapped(probe) -> bool:
    module_name, _, attr_path = probe.target.partition(":")
    owner = importlib.import_module(module_name)
    for part in attr_path.split("."):
        owner = getattr(owner, part)
    return hasattr(owner, WRAPPED_MARK)


@pytest.mark.parametrize("name, overrides", [
    ("train-bags", {"epochs": 1}),
    ("extract", {"n_clips": 2}),
])
def test_traced_op_writes_the_same_bytes(tmp_path, monkeypatch, name, overrides):
    cls = workloads.WORKLOADS[name]
    for attr, value in overrides.items():
        monkeypatch.setattr(cls, attr, value)
    digests = []
    for traced in (False, True):
        workload = cls(tmp_path / str(traced), seed=3)
        workload.setup()
        tracer = Tracer()
        if traced:
            tracer.install(layers.PROBES)
        try:
            run.timed(workload.run_op, tracer if traced else None, 1)
        finally:
            tracer.uninstall()
        if traced:
            assert tracer.names, "the traced op recorded no spans"
        digests.append(workloads.digest(*workload.outputs()))
    assert digests[0] == digests[1]


def test_holders_finds_every_importing_module():
    import matt.cli
    import matt.evaluation
    import matt.training

    modules = {mod for mod, _, _ in holders("matt.training:bag_feature_matrix")}
    assert {matt.training, matt.evaluation} <= modules
    assert matt.cli in {mod for mod, _, _ in holders("matt.evaluation:evaluate")}


def test_tail_top2_accepts_an_empty_tail_subset():
    # matt leaves Top@K of an empty subset out of report.txt
    empty = {"subset <100": "0 units", "subset <200": "40 units",
             "top@2 (<200 train segments)": 0.5}
    assert workloads.read_tail_top2(empty) == (None, 0)
    full = {"subset <100": "80 units", "top@2 (<100 train segments)": 0.15}
    assert workloads.read_tail_top2(full) == (0.15, 80)
    with pytest.raises(workloads.CheckFailed):
        workloads.read_tail_top2({"subset <100": "80 units"})
