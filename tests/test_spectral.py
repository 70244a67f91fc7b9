import numpy as np
import pytest

from matt.dsp import (
    AudioSignal,
    StftConfig,
    extract_feature_sets,
    spectral_descriptors,
    stft,
)
from matt.config import RunConfig
from matt.errors import InvalidBand

from conftest import RATE, noisy_clip, tone


def test_pure_tone_centroid_within_one_bin(stft_cfg):
    spec = stft(tone(440.0, seconds=0.5), stft_cfg)
    centroid, _, _, _ = spectral_descriptors(spec)
    bin_width = RATE / stft_cfg.n_fft
    interior = centroid[:, 3:-3]  # edge frames see reflect-padding leakage
    assert np.all(np.abs(interior - 440.0) <= bin_width)


def test_pure_tone_bandwidth_within_two_bins(stft_cfg):
    spec = stft(tone(440.0, seconds=0.5), stft_cfg)
    _, bandwidth, _, _ = spectral_descriptors(spec)
    bin_width = RATE / stft_cfg.n_fft
    assert np.all(bandwidth[:, 3:-3] <= 2.0 * bin_width)


def test_contrast_has_seven_rows(stft_cfg):
    spec = stft(tone(440.0, seconds=0.5), stft_cfg)
    _, _, contrast, _ = spectral_descriptors(spec)
    assert contrast.shape[0] == 7


def test_silent_frames_yield_zeros(stft_cfg):
    sig = AudioSignal(samples=np.zeros(RATE, dtype=np.float32), sample_rate_hz=RATE)
    spec = stft(sig, stft_cfg)
    centroid, bandwidth, contrast, rolloff = spectral_descriptors(spec)
    assert np.all(centroid == 0.0)
    assert np.all(bandwidth == 0.0)
    assert np.all(rolloff == 0.0)
    assert np.all(contrast == 0.0)
    for matrix in (centroid, bandwidth, contrast, rolloff):
        assert np.all(np.isfinite(matrix))


def test_rolloff_sits_at_tone_for_pure_tone(stft_cfg):
    spec = stft(tone(440.0, seconds=0.5), stft_cfg)
    _, _, _, rolloff = spectral_descriptors(spec)
    bin_width = RATE / stft_cfg.n_fft
    interior = rolloff[:, 3:-3]
    assert np.all(np.abs(interior - 440.0) <= 2.0 * bin_width)


# Each contrast band must keep an FFT bin after its top bin is dropped: the
# last band needs a bin at or above its 6400 Hz lower edge, the 200 Hz-wide
# lowest band needs bins at most 200 Hz apart.
@pytest.mark.parametrize(
    "rate, n_fft, valid",
    [
        (12800, 2048, True),  # top bin at exactly 6400 Hz
        (12799, 2048, False),
        (8000, 2048, False),
        (44100, 221, True),  # bins 199.5 Hz apart: two in [0, 200] Hz
        (44100, 220, False),  # bins 200.5 Hz apart: only DC in [0, 200] Hz
        (44100, 128, False),
        (44100, 64, False),
    ],
)
def test_contrast_band_geometry_is_checked_when_configured(rate, n_fft, valid):
    stft_cfg = StftConfig(n_fft=n_fft, hop=n_fft // 2)
    if not valid:
        with pytest.raises(InvalidBand, match=f"sample_rate {rate} Hz with n_fft {n_fft}"):
            RunConfig(sample_rate=rate, stft=stft_cfg)
        return
    cfg = RunConfig(sample_rate=rate, stft=stft_cfg)
    result = extract_feature_sets(noisy_clip(seconds=0.5, rate=rate), cfg.stft)
    assert np.all(np.isfinite(result.vector))
