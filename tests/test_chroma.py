import numpy as np
import pytest

from matt.dsp import AudioSignal, chroma_features, stft, tonnetz
from matt.dsp.chroma import TONNETZ_TRANSFORM, cqt_fold_matrix, stft_fold_matrix
from matt.errors import InvalidConfig

from conftest import RATE, tone

PITCH_CLASSES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
A_INDEX = PITCH_CLASSES.index("A")


def chroma_of(spec, variant):
    """The variant's chroma from its raw fold of the spectrogram's power."""
    fold_matrix = stft_fold_matrix if variant == "stft" else cqt_fold_matrix
    fold = fold_matrix(spec.config.n_fft, spec.sample_rate_hz) @ (spec.bins * spec.bins)
    return chroma_features(fold, variant)


@pytest.fixture(scope="module")
def tone_spec(stft_cfg):
    return stft(tone(440.0, seconds=0.5), stft_cfg)


@pytest.fixture(scope="module")
def zero_spec(stft_cfg):
    sig = AudioSignal(samples=np.zeros(RATE, dtype=np.float32), sample_rate_hz=RATE)
    return stft(sig, stft_cfg)


@pytest.mark.parametrize("variant", ["stft", "cqt", "cens"])
def test_a440_lands_on_pitch_class_a(tone_spec, variant):
    chroma = chroma_of(tone_spec, variant)
    assert chroma.shape[0] == 12
    interior = chroma[:, 3:-3]  # edge frames see reflect-padding leakage
    assert np.all(interior.argmax(axis=0) == A_INDEX)


@pytest.mark.parametrize("variant", ["stft", "cqt", "cens"])
def test_silence_gives_zero_chroma(zero_spec, variant):
    chroma = chroma_of(zero_spec, variant)
    assert np.all(chroma == 0.0)


def test_cens_frames_are_l2_normalized(stft_cfg):
    from conftest import noisy_clip

    spec = stft(noisy_clip(seconds=0.8), stft_cfg)
    cens = chroma_of(spec, "cens")
    norms = np.linalg.norm(cens, axis=0)
    live = norms > 0
    assert np.all(np.abs(norms[live] - 1.0) <= 1e-6)


def test_unknown_variant_rejected():
    with pytest.raises(InvalidConfig):
        chroma_features(np.ones((12, 3)), "hpcp")


def test_tonnetz_has_six_rows(tone_spec):
    out = tonnetz(chroma_of(tone_spec, "cqt"))
    assert out.shape[0] == 6


def test_one_hot_chroma_lands_on_the_circles():
    # a single active pitch class projects onto each sin-cos pair at its radius
    radii = (1.0, 1.0, 0.5)
    for pc in range(12):
        one_hot = np.zeros((12, 1))
        one_hot[pc, 0] = 7.0  # arbitrary scale; tonnetz L1-normalizes internally
        out = tonnetz(one_hot)[:, 0]
        for pair, radius in enumerate(radii):
            norm = np.hypot(out[2 * pair], out[2 * pair + 1])
            assert abs(norm - radius) <= 1e-9


def test_zero_chroma_gives_zero_tonnetz():
    zero = np.zeros((12, 3))
    assert np.all(tonnetz(zero) == 0.0)


def test_tonnetz_transform_shape_fixed():
    assert TONNETZ_TRANSFORM.shape == (6, 12)
