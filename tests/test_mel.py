import numpy as np
import pytest

from matt.dsp import (
    DB_FLOOR,
    AudioSignal,
    extract_feature_sets,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
)

from conftest import RATE, noisy_clip


def test_slaney_scale_linear_region():
    assert hz_to_mel(1000.0) == pytest.approx(15.0, abs=1e-12)
    assert hz_to_mel(200.0) == pytest.approx(3.0, abs=1e-12)
    assert mel_to_hz(15.0) == pytest.approx(1000.0, rel=1e-12)


def test_mel_hz_round_trip():
    freqs = np.linspace(0.0, RATE / 2.0, 500)
    assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-10, atol=1e-6)


def test_filterbank_rows_positive_and_centers_increasing():
    weights = mel_filterbank(RATE, 2048)
    assert weights.shape == (96, 1025)
    assert np.all(weights >= 0.0)
    assert np.all(weights.sum(axis=1) > 0.0)
    # filter i is designed to peak at the (i + 1)-th of 98 mel-spaced edges
    centers = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(RATE / 2.0), 98))[1:-1]
    assert np.all(np.diff(centers) > 0.0)
    peaks = np.fft.rfftfreq(2048, 1.0 / RATE)[weights.argmax(axis=1)]
    assert np.all(np.abs(peaks - centers) <= RATE / 2048)


def test_filterbank_rows_unimodal():
    weights = mel_filterbank(RATE, 2048)
    for row in weights:
        peak = row.argmax()
        assert np.all(np.diff(row[: peak + 1]) >= 0.0)
        assert np.all(np.diff(row[peak:]) <= 0.0)


@pytest.mark.parametrize("seconds", [1.0, 2.5, 35.0])
def test_log_mel_shape_contract(seconds, feature_cfg):
    mel = extract_feature_sets(noisy_clip(seconds=seconds), feature_cfg).mel
    assert mel.shape == (96, 1360)
    assert np.all(np.isfinite(mel))
    assert np.all(mel >= DB_FLOOR)


def test_silence_maps_to_db_floor(feature_cfg):
    sig = AudioSignal(samples=np.zeros(RATE, dtype=np.float32), sample_rate_hz=RATE)
    mel = extract_feature_sets(sig, feature_cfg).mel
    assert np.all(mel == DB_FLOOR)


def test_center_crop_matches_inner_clip(feature_cfg):
    # construct a long clip whose center region is an exact hop-aligned copy of
    # a shorter clip, faded at the edges so both share the same dB reference
    hop = feature_cfg.stft.hop
    inner_len = 1480 * hop
    shift = 129  # hops
    outer_len = (1480 + 2 * shift) * hop
    t = np.arange(inner_len) / RATE
    envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(inner_len) / inner_len))
    content = envelope * (0.5 * np.sin(2 * np.pi * 440.0 * t) + 0.2 * np.sin(2 * np.pi * 97.0 * t))
    outer = np.zeros(outer_len, dtype=np.float32)
    outer[shift * hop : shift * hop + inner_len] = content.astype(np.float32)

    mel_outer = extract_feature_sets(
        AudioSignal(samples=outer, sample_rate_hz=RATE), feature_cfg
    ).mel
    mel_inner = extract_feature_sets(
        AudioSignal(samples=content.astype(np.float32), sample_rate_hz=RATE), feature_cfg
    ).mel
    # identical up to FFT batch rounding (last ulp)
    assert np.abs(mel_outer - mel_inner).max() <= 1e-9
