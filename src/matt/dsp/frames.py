"""Typed per-frame feature matrices and the base dimensionality table."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

# base (per-frame) dimensionality of each feature family, in the order the
# families take in the "1to9" summary vector
FAMILY_BASE_DIMS = {
    "chroma_stft": 12,
    "chroma_cqt": 12,
    "chroma_cens": 12,
    "tonnetz": 6,
    "mfcc": 20,
    "spec_centroid": 1,
    "spec_bandwidth": 1,
    "spec_contrast": 7,
    "spec_rolloff": 1,
    "rms": 1,
    "zcr": 1,
}


@dataclass(frozen=True)
class FrameFeatureMatrix:
    """(d_base, n_frames) matrix of per-frame values for one feature family."""

    values: np.ndarray
    family: str

    def __post_init__(self):
        if self.family not in FAMILY_BASE_DIMS:
            raise ShapeError(f"unknown feature family {self.family!r}")
        expected = FAMILY_BASE_DIMS[self.family]
        if self.values.ndim != 2 or self.values.shape[0] != expected:
            raise ShapeError(
                f"{self.family}: expected {expected} rows, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ShapeError(f"{self.family}: non-finite frame values")
