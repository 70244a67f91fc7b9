"""Multi-instance attention pipeline for long-tail music genre classification.

Submodules: dsp (feature extraction), dataset (bags), synthetic (desk-scale
long-tail generator), numeric (gradient core), model, training, evaluation,
benchmark, cli. The package itself re-exports nothing: import from the
submodules.
"""

__version__ = "0.1.0"
