"""Short-time Fourier transform with Hann windowing and center padding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig
from .signal import FRAME_BLOCK, AudioSignal, PaddedFrames, frame_blocks, frame_signal


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 2048
    hop: int = 1024
    center_pad: bool = True

    def __post_init__(self):
        if not 0 < self.hop <= self.n_fft:
            raise InvalidConfig(f"need 0 < hop <= n_fft, got hop={self.hop} n_fft={self.n_fft}")


@dataclass(frozen=True)
class MagnitudeSpectrogram:
    """One track's STFT, shared by every feature family.

    bins (|X|, float64) has (n_fft/2 + 1) frequency rows by n_frames
    columns; frames holds the (n_frames, n_fft) unwindowed frames they were
    computed from, read in blocks (see frame_signal): views of the signal in
    its own dtype, with a few KB of reflect-padded edge frames, so keeping it
    costs no padded copy. extract_frame_features squares bins in place into
    the power once its magnitude readers are done.
    """

    bins: np.ndarray
    frames: PaddedFrames
    config: StftConfig
    sample_rate_hz: int

    def bin_frequencies_hz(self) -> np.ndarray:
        return np.fft.rfftfreq(self.config.n_fft, 1.0 / self.sample_rate_hz)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window (the DFT-even variant used for spectral analysis)."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def stft(signal: AudioSignal, cfg: StftConfig) -> MagnitudeSpectrogram:
    """Magnitude spectrogram of Hann-windowed frames, float64 from the window on.

    The signal is framed once, in its own dtype and without a padded copy.
    Each block of FRAME_BLOCK frames is read from the frames, widened and
    windowed into one float64 block buffer (widening float32 is exact),
    transformed, and written as magnitudes into its rows, so the bins matrix
    is the only whole-track array made: no padded or float64 copy of the
    signal, windowed copy or complex spectrum.
    """
    frames = frame_signal(signal.samples, cfg.n_fft, cfg.hop, cfg.center_pad)
    window = hann_window(cfg.n_fft)
    n_frames, n_bins = frames.shape[0], cfg.n_fft // 2 + 1
    # frame-major, so each block's rows are contiguous; returned transposed
    mags = np.empty((n_frames, n_bins))
    windowed = np.empty((min(FRAME_BLOCK, n_frames), cfg.n_fft))
    for rows in frame_blocks(n_frames):
        n = rows.stop - rows.start
        np.multiply(frames[rows], window, out=windowed[:n])
        np.abs(np.fft.rfft(windowed[:n], axis=1), out=mags[rows])
    return MagnitudeSpectrogram(
        bins=mags.T,
        frames=frames,
        config=cfg,
        sample_rate_hz=signal.sample_rate_hz,
    )
