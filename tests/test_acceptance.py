"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live). The
long-tail benchmark (criteria 6-8) trains 5 seeded synthetic datasets twice,
which takes a few minutes in total.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import matt
from matt.benchmark import (
    BENCHMARK_SEEDS,
    BENCHMARK_SYNTH,
    BENCHMARK_TRAIN,
    run_benchmark,
)
from matt.dsp import (
    FAMILY_ORDER,
    AudioSignal,
    StftConfig,
    extract_feature_sets,
    feature_set_length,
    frame_signal,
    hann_window,
    spectral_descriptors,
    stft,
    summarize,
    time_domain_descriptors,
)
from matt.dsp.summarize import extract_frame_features, set_columns
from matt.model import MattModel
from matt.numeric import finite_difference_check
from matt.training import nll_loss

from conftest import RATE, noisy_clip, tone

TABLE_DIMS = {
    "1": 84, "2": 42, "3": 140, "4": 7, "5": 7, "6": 49,
    "7": 7, "8": 7, "9": 7, "3+6": 189, "3+6+4": 196, "1to9": 518,
}


def report(criterion: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cached_frames():
    frames, _ = extract_frame_features(noisy_clip(seconds=1.5), StftConfig())
    return frames


@pytest.fixture(scope="session")
def benchmark_first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("benchmark_run1")
    started = time.perf_counter()
    results = run_benchmark(BENCHMARK_SYNTH, BENCHMARK_TRAIN, BENCHMARK_SEEDS, out_dir=out)
    elapsed = time.perf_counter() - started
    return results, out, elapsed


def test_criterion_1_dimensionality_contract(cached_frames):
    started = time.perf_counter()
    vector = np.concatenate([summarize(cached_frames[family]) for family in FAMILY_ORDER])
    lengths = {name: vector[set_columns(name)].shape[0] for name in TABLE_DIMS}
    elapsed = time.perf_counter() - started
    ok = lengths == TABLE_DIMS and all(
        feature_set_length(n) == d for n, d in TABLE_DIMS.items()
    )
    report(1, ok and elapsed < 1.0,
           f"set lengths {lengths == TABLE_DIMS}, summarize+assembly {elapsed:.3f}s < 1s")


def test_criterion_2_mel_shape_contract():
    cfg = StftConfig()
    shapes = []
    for seconds in (1.0, 1.37, 8.0, 33.0):
        mel = extract_feature_sets(noisy_clip(seconds=seconds), cfg).mel
        shapes.append(mel.shape)
    ok = all(s == (96, 1360) for s in shapes)
    report(2, ok, f"shapes {set(shapes)} for 1s..33s clips")


def test_criterion_3_gradient_suite():
    started = time.perf_counter()
    worst = 0.0
    configs = 0
    for hidden in ((), (8,), (8, 5)):
        for m in (1, 2, 7):
            for n_genres in (2, 16):
                model = MattModel(
                    input_dim=6, hidden_dims=hidden, embedding_dim=5,
                    n_genres=n_genres,
                    seed=17,
                )
                rng = np.random.default_rng(1000 * m + n_genres + len(hidden))
                X = rng.standard_normal((m, 6))
                gold = int(rng.integers(0, n_genres))

                def loss_fn():
                    return nll_loss(model.forward_bag(X), gold)[0]

                model.params.zero_grads()
                pred, cache = model.forward_bag(X, keep_cache=True)
                _, d_scores = nll_loss(pred, gold)
                model.backward_bag(cache, d_scores)
                out = finite_difference_check(loss_fn, model.params, h=1e-5, tolerance=1e-4)
                worst = max(worst, max(r.max_rel_error for r in out.values()))
                configs += 1
    elapsed = time.perf_counter() - started
    report(3, worst <= 1e-4 and elapsed < 60.0,
           f"{configs} configs, max rel error {worst:.2e} <= 1e-4, {elapsed:.1f}s < 60s")


def test_criterion_4_attention_invariants():
    model = MattModel(
        input_dim=8, hidden_dims=(6,), embedding_dim=5, n_genres=7, seed=23
    )
    rng = np.random.default_rng(99)
    ratio_bound = np.exp(2.0) + 1e-9
    sums_ok = positive_ok = ratio_ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 10))
        pred = model.forward_bag(rng.standard_normal((m, 8)) * rng.uniform(0.05, 20.0))
        w = pred.attention_weights
        sums_ok &= abs(w.sum() - 1.0) <= 1e-12
        positive_ok &= bool(np.all(w > 0.0))
        ratio_ok &= w.max() / w.min() <= ratio_bound

    perm_ok = dup_ok = True
    for _ in range(100):
        X = rng.standard_normal((int(rng.integers(2, 8)), 8))
        base = model.forward_bag(X).probabilities
        perm = model.forward_bag(X[rng.permutation(len(X))]).probabilities
        dup = model.forward_bag(np.vstack([X, X])).probabilities
        perm_ok &= bool(np.all(np.abs(perm - base) <= 1e-9))
        dup_ok &= bool(np.all(np.abs(dup - base) <= 1e-9))

    singleton_ok = True
    for _ in range(100):
        x = rng.standard_normal(8)
        a = model.predict_segment(x)
        b = model.forward_bag(x[np.newaxis, :])
        singleton_ok &= bool(np.array_equal(a.probabilities, b.probabilities))
        singleton_ok &= a.attention_weights[0] == 1.0

    ok = sums_ok and positive_ok and ratio_ok and perm_ok and dup_ok and singleton_ok
    report(4, ok,
           f"1000 bags: sums {sums_ok}, positive {positive_ok}, ratio<=e^2 {ratio_ok}, "
           f"permutation {perm_ok}, duplication {dup_ok}, singleton exact {singleton_ok}")


def test_criterion_5_dsp_analytic_suite():
    cfg = StftConfig()
    bin_width = RATE / cfg.n_fft

    spec = stft(tone(440.0, seconds=0.5), cfg)
    centroid = spectral_descriptors(spec)[0][:, 3:-3]
    centroid_ok = bool(np.all(np.abs(centroid - 440.0) <= bin_width))

    amplitude = 0.6
    rms, _ = time_domain_descriptors(stft(tone(440.0, 1.0, amplitude), cfg).frames)
    rms_ok = bool(np.max(np.abs(rms - amplitude / np.sqrt(2))) <= 0.01 * amplitude / np.sqrt(2))

    alternating = np.empty(8192, dtype=np.float32)
    alternating[0::2], alternating[1::2] = 1.0, -1.0
    _, zcr = time_domain_descriptors(
        stft(AudioSignal(samples=alternating, sample_rate_hz=RATE), cfg).frames
    )
    zcr_ok = bool(np.all(zcr == 1.0))

    silence = AudioSignal(samples=np.zeros(RATE, dtype=np.float32), sample_rate_hz=RATE)
    result = extract_feature_sets(silence, cfg)
    silence_ok = bool(np.all(np.isfinite(result.vector))) and bool(
        np.all(np.isfinite(result.mel))
    )

    sig = tone(997.0, seconds=0.3, amplitude=0.8)
    spec2 = stft(sig, cfg)
    frames = frame_signal(sig.samples, cfg.n_fft, cfg.hop, cfg.center_pad)
    windowed = frames[:] * hann_window(cfg.n_fft)
    time_energy = cfg.n_fft * np.sum(windowed**2, axis=1)
    mags2 = spec2.bins**2
    freq_energy = 2.0 * mags2.sum(axis=0) - mags2[0] - mags2[-1]
    live = time_energy > 0
    parseval = float(np.max(np.abs(freq_energy[live] - time_energy[live]) / time_energy[live]))
    parseval_ok = parseval <= 1e-6

    ok = centroid_ok and rms_ok and zcr_ok and silence_ok and parseval_ok
    report(5, ok,
           f"centroid<=1bin {centroid_ok}, rms 1% {rms_ok}, zcr==1 {zcr_ok}, "
           f"silence finite {silence_ok}, parseval {parseval:.1e} <= 1e-6")


def _tail_top2(report_obj):
    return report_obj.top_k.get((100, 2))


def test_criterion_6_synthetic_long_tail_benchmark(benchmark_first_run):
    results, _, elapsed = benchmark_first_run
    matt = np.array([_tail_top2(r.matt_bag) for r in results], dtype=float)
    base = np.array([_tail_top2(r.base_segment) for r in results], dtype=float)
    oracle = np.array([_tail_top2(r.oracle_bag) for r in results], dtype=float)
    strict = bool(np.all(matt > base))
    margin = float(matt.mean() - base.mean())
    ratio = float(matt.mean() / oracle.mean())
    ok = strict and margin >= 0.10 and ratio >= 0.60 and elapsed < 600.0
    report(6, ok,
           f"tail Top@2 matt {matt.round(3).tolist()} vs base {base.round(3).tolist()}: "
           f"strict {strict}, margin {margin * 100:.1f}pts >= 10, "
           f"oracle ratio {ratio:.2f} >= 0.60, runtime {elapsed:.0f}s < 600s")


def test_criterion_7_case_study_workflow(benchmark_first_run):
    results, _, _ = benchmark_first_run
    degrades = [r.matt_segment.overall_accuracy < r.matt_bag.overall_accuracy for r in results]
    above = [
        r.matt_segment.overall_accuracy > r.base_segment.overall_accuracy for r in results
    ]
    detail = ", ".join(
        f"seed {r.seed}: bag {r.matt_bag.overall_accuracy:.3f} > seg "
        f"{r.matt_segment.overall_accuracy:.3f} > base {r.base_segment.overall_accuracy:.3f}"
        for r in results
    )
    ok = all(degrades) and all(above)
    report(7, ok, detail)


RERUN_BENCHMARK = """\
import sys
from matt.benchmark import BENCHMARK_SEEDS, BENCHMARK_SYNTH, BENCHMARK_TRAIN, run_benchmark
run_benchmark(BENCHMARK_SYNTH, BENCHMARK_TRAIN, BENCHMARK_SEEDS, out_dir=sys.argv[1])
"""


def test_criterion_8_benchmark_determinism(benchmark_first_run, tmp_path_factory):
    """The rerun is a fresh interpreter with another string-hash seed, so no
    cached matrix, module global or set order carries over from the first."""
    _, first_dir, _ = benchmark_first_run
    second_dir = tmp_path_factory.mktemp("benchmark_run2")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    # the same matt package as this process, however it was put on the path
    package_root = str(Path(matt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", RERUN_BENCHMARK, str(second_dir)], env=env,
                   check=True, timeout=600)
    first_files = sorted(p.relative_to(first_dir) for p in Path(first_dir).rglob("*") if p.is_file())
    second_files = sorted(
        p.relative_to(second_dir) for p in Path(second_dir).rglob("*") if p.is_file()
    )
    same_names = first_files == second_files
    mismatched = [
        str(rel)
        for rel in first_files
        if (Path(first_dir) / rel).read_bytes() != (Path(second_dir) / rel).read_bytes()
    ] if same_names else ["<file lists differ>"]
    ok = same_names and not mismatched
    report(8, ok,
           f"{len(first_files)} artifact files byte-identical across reruns"
           + ("" if ok else f"; mismatches: {mismatched[:5]}"))
