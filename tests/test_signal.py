import warnings

import numpy as np
import pytest

from matt.dsp import (
    AudioSignal,
    downmix_and_validate,
    frame_signal,
    read_wav,
    time_domain_descriptors,
    write_wav,
)
from matt.errors import CorruptAudio, EmptyAudio

from conftest import RATE, tone


def rms_zcr(sig):
    return time_domain_descriptors(frame_signal(sig.samples, 2048, 1024, True))


def test_downmix_identical_channels_is_identity():
    ch = np.full(100, 0.5, dtype=np.float32)
    sig = downmix_and_validate([ch, ch.copy()], RATE)
    assert np.array_equal(sig.samples, ch)


def test_downmix_symmetric_channels_cancel():
    sig = downmix_and_validate([np.array([1.0]), np.array([-1.0])], RATE)
    assert sig.samples[0] == 0.0


def test_downmix_rejects_nan():
    bad = np.array([0.1, np.nan, 0.2])
    with pytest.raises(CorruptAudio):
        downmix_and_validate(bad, RATE)


def test_downmix_rejects_inf_and_overrange():
    with pytest.raises(CorruptAudio):
        downmix_and_validate(np.array([0.0, np.inf]), RATE)
    with pytest.raises(CorruptAudio):
        downmix_and_validate(np.array([0.0, 1.2]), RATE)
    # float32(1.001) is 1.0010000467 > 1 + 1e-3, though it equals float32(1 + 1e-3)
    with pytest.raises(CorruptAudio, match="exceeds"):
        downmix_and_validate(np.array([0.0, 1.001], dtype=np.float32), RATE)
    # the channels are checked before they are averaged: inf + -inf is no NaN warning
    opposite = np.array([[0.0, np.inf], [0.0, -np.inf]], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CorruptAudio, match="non-finite"):
            downmix_and_validate(opposite, RATE)
    # within the clipping tolerance is fine
    sig = downmix_and_validate(np.array([1.0005, -1.0005]), RATE)
    assert sig.samples.size == 2


@pytest.mark.parametrize("n_channels", (1, 2))
@pytest.mark.parametrize("float32", (True, False), ids=("float32", "int16"))
def test_downmix_of_a_wav_equals_the_float64_mean_bitwise(tmp_path, float32, n_channels):
    rng = np.random.default_rng(2 * n_channels + float32)
    write_wav(tmp_path / "clip.wav", np.clip(0.4 * rng.standard_normal((n_channels, 5001)), -1, 1),
              RATE, float32=float32)
    channels, rate = read_wav(tmp_path / "clip.wav")
    expected = np.asarray(channels, np.float64).mean(axis=0).astype(np.float32)
    samples = downmix_and_validate(channels, rate).samples
    assert samples.dtype == expected.dtype == np.float32
    assert samples.tobytes() == expected.tobytes()


def test_downmix_rejects_empty():
    with pytest.raises(EmptyAudio):
        downmix_and_validate(np.empty(0), RATE)


def test_downmix_rejects_three_channels():
    ch = np.zeros(10)
    with pytest.raises(CorruptAudio):
        downmix_and_validate([ch, ch, ch], RATE)


def test_rms_of_constant_signal():
    sig = AudioSignal(samples=np.full(8192, 0.5, dtype=np.float32), sample_rate_hz=RATE)
    rms, zcr = rms_zcr(sig)
    assert np.allclose(rms, 0.5)
    assert np.all(zcr == 0.0)


def test_zcr_of_alternating_signal_is_one():
    samples = np.empty(8192, dtype=np.float32)
    samples[0::2] = 1.0
    samples[1::2] = -1.0
    sig = AudioSignal(samples=samples, sample_rate_hz=RATE)
    _, zcr = rms_zcr(sig)
    assert np.all(zcr == 1.0)


def test_sine_rms_converges_to_amplitude_over_sqrt2():
    amplitude = 0.7
    sig = tone(440.0, seconds=1.0, amplitude=amplitude)
    rms, _ = rms_zcr(sig)
    expected = amplitude / np.sqrt(2.0)
    assert np.max(np.abs(rms - expected) / expected) <= 0.01


def test_scaling_signal_scales_rms_and_keeps_zcr():
    sig = tone(331.0, seconds=0.5, amplitude=0.2)
    # scaling by a power of two is exact in float arithmetic
    doubled = AudioSignal(samples=(2.0 * sig.samples).astype(np.float32), sample_rate_hz=RATE)
    rms1, zcr1 = rms_zcr(sig)
    rms2, zcr2 = rms_zcr(doubled)
    assert np.array_equal(rms2, 2.0 * rms1)
    assert np.array_equal(zcr1, zcr2)
