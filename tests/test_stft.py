import numpy as np
import pytest

from matt.dsp import AudioSignal, StftConfig, hann_window, frame_signal, stft
from matt.errors import AudioTooShort, InvalidConfig

from conftest import RATE, tone


def test_zero_signal_gives_zero_spectrogram(stft_cfg):
    sig = AudioSignal(samples=np.zeros(RATE, dtype=np.float32), sample_rate_hz=RATE)
    spec = stft(sig, stft_cfg)
    assert np.all(spec.bins == 0.0)


def test_frame_count_formula(stft_cfg):
    n = 100000
    sig = AudioSignal(samples=np.zeros(n, dtype=np.float32), sample_rate_hz=RATE)
    spec = stft(sig, stft_cfg)
    padded = n + 2 * (stft_cfg.n_fft // 2)
    assert spec.bins.shape[1] == 1 + (padded - stft_cfg.n_fft) // stft_cfg.hop
    assert spec.bins.shape[0] == stft_cfg.n_fft // 2 + 1


def test_pure_bin_sine_peaks_at_its_row(stft_cfg):
    k = 100
    freq = k * RATE / stft_cfg.n_fft
    spec = stft(tone(freq, seconds=0.5), stft_cfg)
    interior = spec.bins[:, 3:-3]
    assert np.all(interior.argmax(axis=0) == k)


def test_parseval_identity_against_time_domain_energy(stft_cfg):
    # oracle: windowed-frame energy computed independently of the transform;
    # for a real DFT, 2*sum|X|^2 - |X_0|^2 - |X_nyq|^2 == n_fft * sum x^2
    sig = tone(997.0, seconds=0.3, amplitude=0.8)
    spec = stft(sig, stft_cfg)
    frames = frame_signal(sig.samples, stft_cfg.n_fft, stft_cfg.hop, stft_cfg.center_pad)
    windowed = frames[:] * hann_window(stft_cfg.n_fft)
    time_energy = stft_cfg.n_fft * np.sum(windowed**2, axis=1)
    mags2 = spec.bins**2
    freq_energy = 2.0 * mags2.sum(axis=0) - mags2[0] - mags2[-1]
    nonzero = time_energy > 0
    rel = np.abs(freq_energy[nonzero] - time_energy[nonzero]) / time_energy[nonzero]
    assert rel.max() <= 1e-6


def test_too_short_signal_raises():
    sig = AudioSignal(samples=np.zeros(100, dtype=np.float32), sample_rate_hz=RATE)
    with pytest.raises(AudioTooShort):
        stft(sig, StftConfig(n_fft=2048, hop=1024, center_pad=False))
    with pytest.raises(AudioTooShort):
        stft(sig, StftConfig(n_fft=2048, hop=1024, center_pad=True))


def test_invalid_hop_rejected():
    with pytest.raises(InvalidConfig):
        StftConfig(n_fft=1024, hop=0)
    with pytest.raises(InvalidConfig):
        StftConfig(n_fft=1024, hop=2048)


def test_stft_is_deterministic(stft_cfg):
    sig = tone(523.25, seconds=0.4)
    a = stft(sig, stft_cfg).bins
    b = stft(sig, stft_cfg).bins
    assert np.array_equal(a, b)
