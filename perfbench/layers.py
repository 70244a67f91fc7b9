"""The layers the traced run measures, and the per-layer metrics derived from them.

Span names are ``<layer>.<function>``. DSP times are per extracted track;
other times are per timed op, and ``synthetic.generate_synthetic`` is per
set-up. A layer that a workload does not run reports 0. Times are self times
(a span's duration minus its traced children) unless the name says
``us_per_bag`` or ``p50``/``p90``, which use the whole call.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Probe, Tracer, self_times


def _stft_bytes(result, args, kwargs):
    """Bytes of the arrays ``stft`` allocates, computed from their shapes.

    Padded float64 signal, float64 frame matrix, windowed copy, complex128
    spectrum and float64 magnitudes. Not a hardware measurement.
    """
    signal, cfg = args[0], args[1]
    n_bins, n_frames = result.bins.shape
    padded = signal.samples.size + (2 * (cfg.n_fft // 2) if cfg.center_pad else 0)
    return 8 * padded + 2 * 8 * n_frames * cfg.n_fft + (16 + 8) * n_frames * n_bins


def _file_bytes(result, args, kwargs):
    return os.path.getsize(args[0])


def _chroma_span(*args, **kwargs):
    variant = args[1] if len(args) > 1 else kwargs["variant"]
    return f"dsp.chroma_{variant}"


PROBES = (
    # matt.dsp: extraction, one track at a time
    Probe("matt.dsp.wav:read_wav", "dsp.read_wav"),
    Probe("matt.dsp.signal:downmix_and_validate", "dsp.downmix_and_validate"),
    Probe("matt.dsp.summarize:extract_feature_sets", "dsp.extract_feature_sets"),
    Probe("matt.dsp.stft:stft", "dsp.stft", counters=(("dsp.stft_bytes", _stft_bytes),)),
    Probe("matt.dsp.chroma:chroma_features", _chroma_span),
    Probe("matt.dsp.chroma:tonnetz", "dsp.tonnetz"),
    Probe("matt.dsp.mel:log_mel_frames", "dsp.log_mel_frames"),
    Probe("matt.dsp.mel:mfcc", "dsp.mfcc"),
    Probe("matt.dsp.spectral:spectral_descriptors", "dsp.spectral_descriptors"),
    Probe("matt.dsp.signal:time_domain_descriptors", "dsp.time_domain_descriptors"),
    Probe("matt.dsp.summarize:summarize", "dsp.summarize"),
    Probe("matt.dsp.cache:write_mel_cache", "dsp.write_mel_cache"),
    Probe("matt.dsp.cache:write_feature_csv", "dsp.write_feature_csv"),
    # count-only: their time stays in the caller that repeats them
    Probe("matt.dsp.signal:frame_signal", None, count="dsp.frame_signal_calls"),
    Probe("matt.dsp.mel:mel_filterbank", None, count="dsp.mel_filterbank_calls"),
    Probe("matt.dsp.mel:dct_matrix", None, count="dsp.dct_matrix_calls"),
    # matt.training
    Probe(
        "matt.training:train",
        "training.train",
        counters=(("training.epochs", lambda r, a, k: len(r[1].epochs)),),
    ),
    Probe("matt.training:bag_feature_matrix", "training.bag_feature_matrix"),
    Probe("matt.training:nll_loss", "training.nll_loss"),
    # matt.model
    Probe("matt.model:MattModel.forward_bag", "model.forward_bag"),
    Probe("matt.model:MattModel.backward_bag", "model.backward_bag"),
    Probe("matt.model:MattModel.encode", "model.encode"),
    Probe("matt.model:MattModel.attention_weights", "model.attention_weights"),
    Probe("matt.model:MattModel.genre_scores", "model.genre_scores"),
    Probe(
        "matt.model:MattModel.forward_singletons",
        "model.forward_singletons",
        counters=(("model.forward_singletons_bags", lambda r, a, k: len(a[1])),),
    ),
    Probe(
        "matt.model:MattModel.backward_singletons",
        "model.backward_singletons",
        counters=(("model.backward_singletons_bags", lambda r, a, k: len(a[3])),),
    ),
    Probe("matt.model:MattModel.predict_segment", "model.predict_segment"),
    # matt.numeric
    Probe("matt.numeric:optimizer_step", "numeric.optimizer_step"),
    Probe("matt.numeric:softmax", None, count="numeric.softmax_calls"),
    # matt.evaluation
    Probe(
        "matt.evaluation:evaluate",
        "evaluation.evaluate",
        counters=(("evaluation.units", lambda r, a, k: r.n_units),),
    ),
    Probe("matt.evaluation:collect_predictions", "evaluation.collect_predictions"),
    Probe("matt.evaluation:pr_curve", "evaluation.pr_curve"),
    Probe("matt.evaluation:top_k_accuracy", "evaluation.top_k_accuracy"),
    Probe("matt.evaluation:accuracy", "evaluation.accuracy"),
    # I/O: feature CSV, metadata, bags, checkpoints, synthetic data
    Probe("matt.dsp.cache:read_feature_csv", "io.read_feature_csv"),
    Probe("matt.dataset:load_metadata", "io.load_metadata"),
    Probe("matt.dataset:build_bags", "io.build_bags"),
    Probe(
        "matt.checkpoint:save_checkpoint",
        "io.save_checkpoint",
        counters=(("io.save_checkpoint_bytes", _file_bytes),),
    ),
    Probe(
        "matt.checkpoint:load_checkpoint",
        "io.load_checkpoint",
        counters=(("io.load_checkpoint_bytes", _file_bytes),),
    ),
    Probe("matt.synthetic:generate_synthetic", "synthetic.generate_synthetic"),
)

DSP_SELF = (
    "read_wav",
    "downmix_and_validate",
    "stft",
    "chroma_stft",
    "chroma_cqt",
    "chroma_cens",
    "tonnetz",
    "log_mel_frames",
    "mfcc",
    "spectral_descriptors",
    "time_domain_descriptors",
    "summarize",
    "write_mel_cache",
)

# (metric, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = (
    *((f"dsp.{f}_ms_per_track", "ms", "lower") for f in DSP_SELF),
    ("dsp.write_feature_csv_ms_per_op", "ms", "lower"),
    ("dsp.extract_feature_sets_p50_ms", "ms", "lower"),
    ("dsp.extract_feature_sets_p90_ms", "ms", "lower"),
    ("dsp.frame_signal_calls_per_track", "count", "lower"),
    ("dsp.mel_filterbank_calls_per_track", "count", "lower"),
    ("dsp.dct_matrix_calls_per_track", "count", "lower"),
    ("dsp.stft_bytes_computed_per_track", "B", "lower"),
    ("training.bag_feature_matrix_calls_per_op", "count", "lower"),
    ("training.bag_feature_matrix_self_ms_per_op", "ms", "lower"),
    ("training.nll_loss_calls_per_op", "count", "lower"),
    ("training.nll_loss_self_ms_per_op", "ms", "lower"),
    ("training.train_self_ms_per_op", "ms", "lower"),
    ("training.epochs_per_op", "count", "lower"),
    *(
        (f"model.{f}_{m}", unit, "lower")
        for f in ("forward_bag", "backward_bag", "forward_singletons", "backward_singletons")
        for m, unit in (("calls_per_op", "count"), ("self_ms_per_op", "ms"), ("us_per_bag", "us"))
    ),
    ("model.encode_self_ms_per_op", "ms", "lower"),
    ("model.attention_weights_self_ms_per_op", "ms", "lower"),
    ("model.genre_scores_self_ms_per_op", "ms", "lower"),
    ("model.predict_segment_calls_per_op", "count", "lower"),
    ("model.predict_segment_self_ms_per_op", "ms", "lower"),
    ("model.bags_per_forward_call", "ratio", "higher"),
    ("model.forward_calls_per_op", "count", "lower"),
    ("numeric.optimizer_step_calls_per_op", "count", "lower"),
    ("numeric.optimizer_step_self_ms_per_op", "ms", "lower"),
    ("numeric.softmax_calls_per_op", "count", "lower"),
    *(
        (f"evaluation.{f}_self_ms_per_op", "ms", "lower")
        for f in ("evaluate", "collect_predictions", "pr_curve", "top_k_accuracy", "accuracy")
    ),
    ("evaluation.units_per_op", "count", "higher"),
    ("io.read_feature_csv_ms_per_op", "ms", "lower"),
    ("io.load_metadata_ms_per_op", "ms", "lower"),
    ("io.build_bags_ms_per_op", "ms", "lower"),
    ("io.save_checkpoint_ms_per_op", "ms", "lower"),
    ("io.save_checkpoint_bytes_per_op", "B", "lower"),
    ("io.load_checkpoint_ms_per_op", "ms", "lower"),
    ("io.load_checkpoint_bytes_per_op", "B", "lower"),
    ("synthetic.generate_synthetic_ms_per_setup", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.traced_ops", "count", "higher"),
)


class SpanTable:
    """Per-name call counts, whole-call and self durations over chosen ops."""

    def __init__(self, tracer: Tracer, ops):
        names, parent, op, duration = tracer.spans()
        own = self_times(parent, duration)
        keep = np.isin(op, list(ops))
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self._names = names[keep]
        self._duration = duration[keep]
        self._own = own[keep]

    def durations(self, span: str) -> np.ndarray:
        nid = self._ids.get(span, -1)
        return self._duration[self._names == nid]

    def calls(self, span: str) -> int:
        return int(self.durations(span).size)

    def total(self, span: str) -> float:
        return float(self.durations(span).sum())

    def self_s(self, span: str) -> float:
        nid = self._ids.get(span, -1)
        return float(self._own[self._names == nid].sum())

    def self_by_name(self) -> dict[str, float]:
        return {name: self.self_s(name) for name in self._ids}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer: Tracer,
    ops: list[int],
    setups: list[int],
    tracks_per_op: int,
    traced_s: list[float],
    untraced_s: list[float],
) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and counters of the traced ops."""
    table = SpanTable(tracer, ops)
    n_ops = len(ops)
    tracks = n_ops * tracks_per_op

    def count(name):
        return tracer.counter(name, set(ops))

    m = {}
    for f in DSP_SELF:
        m[f"dsp.{f}_ms_per_track"] = 1e3 * _ratio(table.self_s(f"dsp.{f}"), tracks)
    m["dsp.write_feature_csv_ms_per_op"] = 1e3 * table.self_s("dsp.write_feature_csv") / n_ops
    extract = table.durations("dsp.extract_feature_sets")
    p50, p90 = np.percentile(extract, [50, 90]) * 1e3 if extract.size else (0.0, 0.0)
    m["dsp.extract_feature_sets_p50_ms"] = float(p50)
    m["dsp.extract_feature_sets_p90_ms"] = float(p90)
    for f in ("frame_signal", "mel_filterbank", "dct_matrix"):
        m[f"dsp.{f}_calls_per_track"] = _ratio(count(f"dsp.{f}_calls"), tracks)
    m["dsp.stft_bytes_computed_per_track"] = _ratio(count("dsp.stft_bytes"), tracks)

    for f in ("bag_feature_matrix", "nll_loss"):
        m[f"training.{f}_calls_per_op"] = table.calls(f"training.{f}") / n_ops
        m[f"training.{f}_self_ms_per_op"] = 1e3 * table.self_s(f"training.{f}") / n_ops
    m["training.train_self_ms_per_op"] = 1e3 * table.self_s("training.train") / n_ops
    m["training.epochs_per_op"] = count("training.epochs") / n_ops

    bags = {
        "forward_bag": table.calls("model.forward_bag"),
        "backward_bag": table.calls("model.backward_bag"),
        "forward_singletons": count("model.forward_singletons_bags"),
        "backward_singletons": count("model.backward_singletons_bags"),
    }
    for f, n_bags in bags.items():
        span = f"model.{f}"
        m[f"model.{f}_calls_per_op"] = table.calls(span) / n_ops
        m[f"model.{f}_self_ms_per_op"] = 1e3 * table.self_s(span) / n_ops
        m[f"model.{f}_us_per_bag"] = 1e6 * _ratio(table.total(span), n_bags)
    for f in ("encode", "attention_weights", "genre_scores"):
        m[f"model.{f}_self_ms_per_op"] = 1e3 * table.self_s(f"model.{f}") / n_ops
    m["model.predict_segment_calls_per_op"] = table.calls("model.predict_segment") / n_ops
    m["model.predict_segment_self_ms_per_op"] = (
        1e3 * table.self_s("model.predict_segment") / n_ops
    )
    forward_calls = table.calls("model.forward_bag") + table.calls("model.forward_singletons")
    m["model.bags_per_forward_call"] = _ratio(
        bags["forward_bag"] + bags["forward_singletons"], forward_calls
    )
    m["model.forward_calls_per_op"] = forward_calls / n_ops

    m["numeric.optimizer_step_calls_per_op"] = table.calls("numeric.optimizer_step") / n_ops
    m["numeric.optimizer_step_self_ms_per_op"] = (
        1e3 * table.self_s("numeric.optimizer_step") / n_ops
    )
    m["numeric.softmax_calls_per_op"] = count("numeric.softmax_calls") / n_ops

    for f in ("evaluate", "collect_predictions", "pr_curve", "top_k_accuracy", "accuracy"):
        m[f"evaluation.{f}_self_ms_per_op"] = 1e3 * table.self_s(f"evaluation.{f}") / n_ops
    m["evaluation.units_per_op"] = count("evaluation.units") / n_ops

    for f in ("read_feature_csv", "load_metadata", "build_bags", "save_checkpoint",
              "load_checkpoint"):
        m[f"io.{f}_ms_per_op"] = 1e3 * table.self_s(f"io.{f}") / n_ops
    for f in ("save_checkpoint", "load_checkpoint"):
        m[f"io.{f}_bytes_per_op"] = count(f"io.{f}_bytes") / n_ops
    setup_table = SpanTable(tracer, setups)
    m["synthetic.generate_synthetic_ms_per_setup"] = (
        1e3 * setup_table.self_s("synthetic.generate_synthetic") / len(setups)
    )

    m["trace.overhead_pct"] = 100.0 * (np.median(traced_s) / np.median(untraced_s) - 1.0)
    m["trace.traced_ops"] = float(n_ops)
    return {name: float(m[name]) for name, _, _ in PER_LAYER}


def layer_shares(tracer: Tracer, ops: list[int], traced_s: list[float]) -> dict[str, float]:
    """Each span name's self time as a share of the traced ops' wall time."""
    wall = float(sum(traced_s))
    shares = SpanTable(tracer, ops).self_by_name()
    return {name: round(s / wall, 4) for name, s in sorted(shares.items(), key=lambda kv: -kv[1])}
