"""Run one benchmark workload of the matt pipeline and print its result.

    python3 perfbench/run.py --workload train-bags --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from ``src/``, and
inputs and outputs live under ``.perfbench_work/`` there (removed at exit).
Every timed op calls ``matt.cli.main`` in this one process; BLAS is pinned
to one thread so no worker runs beside it.

The run sets up the workload's inputs SETUP_REPEATS times, then repeats the
timed op until ``--seconds`` have passed (at least MIN_OPS times), checking
each op's outputs. After each untraced op a fixed reference computation is
timed; ``op_vs_ref`` is the median over ops of op time / reference time.
With ``--trace 1`` every other op runs with the layer probes installed; the
untraced ops between them give the tracing overhead.

Earlier stdout lines hold a read-only machine record and the workload's own
named metrics. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_OPS = 3


def import_matt():
    """Import the checkout's own matt package, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import matt
        import matt.benchmark  # noqa: F401  (the probes wrap every module it loads)
        import matt.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import matt from {SRC}: {exc}")
    if Path(matt.__file__).resolve().parent != SRC / "matt":
        raise SystemExit(f"perfbench: imported matt from {matt.__file__}, not {SRC}")


def _read(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def blas_threads():
    """OpenBLAS's own thread count, asked through its C API; None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "loadavg_at_start": os.getloadavg(),
        "seed": seed,
    }


def timed(fn, tracer, op_id) -> float:
    """Wall seconds of ``fn()``, recording spans under ``op_id`` when traced."""
    if tracer is not None:
        tracer.op_id = op_id
        tracer.recording = True
    try:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.recording = False


def reference_work() -> float:
    """Wall seconds of a fixed computation that does not use matt.

    A small-array numpy loop (like training and scoring) and FFTs and sorts
    on megabyte arrays (like extraction), about as long as half an op. It
    runs right after each untraced op, so both see the same machine speed:
    on a host whose cores slow down and recover under neighbours' load, the
    ratio of the two keeps the program's cost and drops most of the host's.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    rows = rng.standard_normal((64, 32))
    weights = rng.standard_normal((16, 32))
    frames = rng.standard_normal((128, 2048))
    window = np.hanning(2048)
    sums = {}
    started = time.perf_counter()
    for i in range(60000):
        sums[i % 101] = float(np.tanh(rows[i % 56 : i % 56 + 8] @ weights.T).sum())
    for _ in range(60):
        np.sort(np.abs(np.fft.rfft(frames * window, axis=1)) ** 2, axis=1)
    return time.perf_counter() - started


def run(workload, seconds: float, tracer) -> dict:
    """Set up, then time ops for ``seconds``; returns everything measured."""
    setup_s = []
    for k in range(SETUP_REPEATS):
        elapsed = timed(workload.setup, tracer, -1 - k)
        workload.check_setup()
        setup_s.append(elapsed)

    untraced, traced, traced_ids, reference, problems = [], [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    min_ops = MIN_OPS * (2 if tracer else 1)
    while attempted < min_ops or time.perf_counter() - started < seconds:
        trace_this = tracer is not None and attempted % 2 == 1
        workload.prepare()
        attempted += 1
        try:
            elapsed = timed(workload.run_op, tracer if trace_this else None, attempted)
            workload.check_op()
        except Exception as exc:  # a failed op or check is counted, not fatal
            failed += 1
            problems.append(f"op {attempted}: {exc}")
            traceback.print_exc(file=sys.stderr)
            continue
        if trace_this:
            traced.append(elapsed)
            traced_ids.append(attempted)
        else:
            untraced.append(elapsed)
            reference.append(reference_work())
    return dict(setup_s=setup_s, untraced=untraced, reference=reference, traced=traced,
                traced_ids=traced_ids, attempted=attempted, failed=failed, problems=problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-bags", "train-segments", "extract", "infer"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="store this run's reference values (default seed only)")
    args = parser.parse_args(argv)

    import_matt()
    sys.path.insert(0, str(HERE))
    from layers import PER_LAYER, PROBES, layer_shares, per_layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS, CheckFailed, compare_golden

    print("machine " + json.dumps(machine_record(args.seed)), flush=True)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    # numpy's generators take non-negative seeds; a negative one is folded in
    workload = WORKLOADS[args.workload](work, args.seed if args.seed >= 0 else args.seed % 2**64)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install(PROBES)
        measured = run(workload, args.seconds, tracer)
        named = {}
        succeeded = bool(measured["untraced"]) and (tracer is None or bool(measured["traced"]))
        if succeeded:
            try:
                named = workload.finish(measured["untraced"])
            except Exception as exc:  # a broken run-level check reads as incorrect, not a crash
                if not isinstance(exc, CheckFailed):
                    traceback.print_exc(file=sys.stderr)
                measured["problems"].append(f"run check: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    problems = measured["problems"]
    if succeeded and args.seed == DEFAULT_SEED:
        stored = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        if args.update_golden:
            if problems:
                raise SystemExit(f"perfbench: not storing references of a run with {problems}")
            stored[workload.name] = workload.golden
            GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
        elif workload.name not in stored:
            problems.append("no stored reference values for the default seed")
        else:
            problems += compare_golden(workload.golden, stored[workload.name])

    print("workload " + json.dumps({
        "name": workload.name,
        "op": workload.op,
        "unit": workload.unit,
        "setup_s": measured["setup_s"],
        "op_s": measured["untraced"],
        "traced_op_s": measured["traced"],
        "reference_s": measured["reference"],
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "problems": problems,
    }), flush=True)
    if not succeeded:
        print("perfbench: no op succeeded", file=sys.stderr)
        return 1

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(measured["setup_s"]), "s"),
            "op_vs_ref": (statistics.median(
                [op / ref for op, ref in zip(measured["untraced"], measured["reference"])]),
                "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        values = per_layer_metrics(
            tracer, measured["traced_ids"], [-1 - k for k in range(SETUP_REPEATS)],
            workload.tracks_per_op,
            measured["traced"], measured["untraced"],
        )
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
        print("layer_shares " + json.dumps(
            layer_shares(tracer, measured["traced_ids"], measured["traced"])), flush=True)

    print(json.dumps({
        "correct": measured["failed"] == 0 and not problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
