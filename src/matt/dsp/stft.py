"""Short-time Fourier transform with Hann windowing and center padding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidConfig
from .signal import AudioSignal, frame_signal


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

    bins (|X|, read by the spectral descriptors) and power (|X|^2, read by
    chroma and log-mel) have (n_fft/2 + 1) frequency rows by n_frames
    columns; frames is the (n_frames, n_fft) matrix of unwindowed frames
    they were computed from (read by RMS and zero-crossing rate).
    """

    bins: np.ndarray
    power: np.ndarray
    frames: np.ndarray
    config: StftConfig
    sample_rate_hz: int

    def bin_frequencies_hz(self) -> np.ndarray:
        return np.fft.rfftfreq(self.config.n_fft, 1.0 / self.sample_rate_hz)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window (the DFT-even variant used for spectral analysis)."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def stft(signal: AudioSignal, cfg: StftConfig) -> MagnitudeSpectrogram:
    """Magnitude and power spectrogram of Hann-windowed frames, float64 throughout.

    The signal is framed once and the magnitudes squared once, here; the
    windowed copy and the complex spectrum are freed before this returns.
    """
    frames = frame_signal(signal.samples, cfg.n_fft, cfg.hop, cfg.center_pad)
    mags = np.abs(np.fft.rfft(frames * hann_window(cfg.n_fft), axis=1)).T
    return MagnitudeSpectrogram(
        bins=mags,
        power=mags * mags,
        frames=frames,
        config=cfg,
        sample_rate_hz=signal.sample_rate_hz,
    )
