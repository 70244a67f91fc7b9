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
