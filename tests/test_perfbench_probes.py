"""Every function the benchmark's traced run wraps must still exist.

perfbench/run.py --trace 1 installs a probe on each target in
perfbench/layers.PROBES; a renamed or deleted target breaks that run. This
imports the probe table without writing anything under perfbench/.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_probe_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import matt.benchmark  # noqa: F401  (the traced run loads these first)
    import matt.cli  # noqa: F401

    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    assert layers.PROBES
    for probe in layers.PROBES:
        assert tracer.holders(probe.target), f"{probe.target} is bound nowhere"


def test_traced_extraction_records_every_dsp_layer(monkeypatch, tmp_path):
    """One track through the traced per-track path: read, downmix, extract,
    write the mel cache. Every DSP layer span the benchmark reports is
    recorded, the STFT byte counter is positive and the signal is framed once."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import matt.benchmark  # noqa: F401
    import matt.cli  # noqa: F401
    import numpy as np

    # module objects: the wrappers replace the names these modules bind
    wav, signal, summarize, cache = (
        importlib.import_module(f"matt.dsp.{name}")
        for name in ("wav", "signal", "summarize", "cache")
    )
    layers = importlib.import_module("layers")
    tracer_module = importlib.import_module("tracer")
    rate = 44100
    t = np.arange(rate) / rate
    wav.write_wav(tmp_path / "clip.wav", 0.3 * np.sin(2 * np.pi * 440.0 * t), rate)

    tracer = tracer_module.Tracer()
    tracer.install(layers.PROBES)
    try:
        tracer.recording = True
        channels, rate = wav.read_wav(tmp_path / "clip.wav")
        mono = signal.downmix_and_validate(channels, rate)
        result = summarize.extract_feature_sets(mono, summarize.FeatureConfig())
        cache.write_mel_cache(tmp_path / "clip.mel", result.mel)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert tracer_module.leftover_wrappers() == []

    recorded = set(tracer.names)
    missing = {f"dsp.{name}" for name in layers.DSP_SELF} - recorded
    assert not missing, f"DSP layers not traced: {sorted(missing)}"
    assert "dsp.extract_feature_sets" in recorded
    ops = {tracer.op_id}
    assert tracer.counter("dsp.stft_bytes", ops) > 0
    assert tracer.counter("dsp.frame_signal_calls", ops) == 1
