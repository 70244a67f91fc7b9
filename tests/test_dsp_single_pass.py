"""Single-pass extraction equals the per-stage forms it replaced.

Extraction frames each track once, squares the magnitudes once, and folds
chroma with cached matrices, the pseudo-CQT fold once for cqt and cens. The
reference implementations below are the forms those replaced: a per-bin
np.add.at scatter for STFT chroma, the 84-row pseudo-CQT filterbank summed by
a Python loop, a sort for the median, and RMS/ZCR over a separately framed
copy of the signal. Each rewrite must agree with its reference at every
supported geometry.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matt.dsp import (
    FAMILY_BASE_DIMS,
    AudioSignal,
    StftConfig,
    chroma_features,
    extract_feature_sets,
    mel_filterbank,
    stft,
    summarize,
    time_domain_descriptors,
)
from matt.dsp.chroma import (
    _cens,
    _cqt_filterbank,
    _max_normalize,
    _pitch_class_of_hz,
    banded_cqt_fold,
    cqt_fold_matrix,
    stft_fold_matrix,
)
from matt.dsp.mel import banded_mel_filterbank
from matt.dsp.spectral import contrast_bands
from matt.dsp.summarize import extract_frame_features

RATES = (16000, 22050, 44100, 48000)
N_FFTS = (512, 2048)
GEOMETRIES = [(rate, n_fft) for rate in RATES for n_fft in N_FFTS]
EXAMPLES = settings(max_examples=6, deadline=None)


# -- references -- #

def reference_stft_chroma_fold(spec):
    power = spec.bins**2
    freqs = spec.bin_frequencies_hz()
    chroma = np.zeros((12, spec.bins.shape[1]))
    positive = freqs > 0
    np.add.at(chroma, _pitch_class_of_hz(freqs[positive]), power[positive])
    return chroma


def reference_cqt_chroma_fold(spec):
    cq = _cqt_filterbank(spec.bin_frequencies_hz()) @ spec.bins**2
    chroma = np.zeros((12, spec.bins.shape[1]))
    for k in range(cq.shape[0]):
        chroma[k % 12] += cq[k]
    return chroma


def reference_frames(samples, n_fft, hop):
    padded = np.pad(samples.astype(np.float64), n_fft // 2, mode="reflect")
    n_frames = 1 + (padded.size - n_fft) // hop
    return np.stack([padded[t * hop : t * hop + n_fft].copy() for t in range(n_frames)])


def reference_rms_zcr(samples, n_fft, hop):
    frames = reference_frames(samples, n_fft, hop)
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    nonneg = frames >= 0.0
    zcr = np.sum(nonneg[:, 1:] != nonneg[:, :-1], axis=1) / (n_fft - 1)
    return rms, zcr


# -- signals -- #

@st.composite
def clips(draw, rate):
    """Chords, noise, near-silence or a burst in silence, 0.1-0.6 s long."""
    kind = draw(st.sampled_from(("chord", "noise", "quiet", "burst")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(draw(st.floats(0.1, 0.6)) * rate)
    t = np.arange(n) / rate
    if kind == "chord":
        notes = rng.uniform(40.0, min(4000.0, rate / 3), size=3)
        x = sum(0.3 * np.sin(2 * np.pi * f * t + rng.uniform(0, 6.3)) for f in notes)
    elif kind == "noise":
        x = 0.2 * rng.standard_normal(n)
    elif kind == "quiet":
        x = 1e-4 * rng.standard_normal(n)
    else:
        x = np.zeros(n)
        burst = x[int(rng.integers(0, n // 2)) :][: n // 4]
        burst[:] = 0.5 * rng.standard_normal(burst.size)
    return AudioSignal(samples=np.clip(x, -1.0, 1.0).astype(np.float32), sample_rate_hz=rate)


def spectrogram(clip, n_fft):
    return stft(clip, StftConfig(n_fft=n_fft, hop=n_fft // 2))


# -- equality -- #

@pytest.mark.parametrize("rate, n_fft", GEOMETRIES)
@EXAMPLES
@given(data=st.data())
def test_chroma_folds_match_scatter_and_loop_references(rate, n_fft, data):
    spec = spectrogram(data.draw(clips(rate)), n_fft)
    stft_ref = reference_stft_chroma_fold(spec)
    cqt_ref = reference_cqt_chroma_fold(spec)
    power = spec.bins * spec.bins
    stft_fold = stft_fold_matrix(n_fft, rate) @ power
    cqt_fold = cqt_fold_matrix(n_fft, rate) @ power
    # sums of non-negative terms: reassociation keeps every entry within 1e-12
    np.testing.assert_allclose(stft_fold, stft_ref, rtol=1e-12)
    np.testing.assert_allclose(cqt_fold, cqt_ref, rtol=1e-12)
    for variant, fold, ref in (
        ("stft", stft_fold, _max_normalize(stft_ref)),
        ("cqt", cqt_fold, _max_normalize(cqt_ref)),
        ("cens", cqt_fold, _cens(cqt_ref)),
    ):
        np.testing.assert_allclose(
            chroma_features(fold, variant), ref, rtol=1e-12, atol=0.0, err_msg=variant
        )


def test_cqt_and_cens_chroma_share_one_fold_per_track():
    rng = np.random.default_rng(3)
    clip = AudioSignal(samples=(0.3 * rng.standard_normal(22050)).astype(np.float32),
                       sample_rate_hz=22050)
    cfg = StftConfig()
    with mock.patch("matt.dsp.summarize.banded_cqt_fold", wraps=banded_cqt_fold) as fold:
        frames, _ = extract_frame_features(clip, cfg)
    assert fold.call_count == 1
    bins = stft(clip, cfg).bins
    raw = banded_cqt_fold(cfg.n_fft, 22050) @ (bins * bins)
    assert frames["chroma_cqt"].tobytes() == _max_normalize(raw).tobytes()
    assert frames["chroma_cens"].tobytes() == _cens(raw).tobytes()


@pytest.mark.parametrize("rate, n_fft", GEOMETRIES)
@EXAMPLES
@given(data=st.data())
def test_time_domain_descriptors_from_stft_frames_match_a_second_framing(rate, n_fft, data):
    clip = data.draw(clips(rate))
    spec = spectrogram(clip, n_fft)
    rms, zcr = time_domain_descriptors(spec.frames)
    ref_rms, ref_zcr = reference_rms_zcr(clip.samples, n_fft, n_fft // 2)
    assert np.array_equal(spec.frames[:], reference_frames(clip.samples, n_fft, n_fft // 2))
    assert np.array_equal(zcr[0], ref_zcr)
    np.testing.assert_allclose(rms[0], ref_rms, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("rate, n_fft", GEOMETRIES)
@EXAMPLES
@given(data=st.data())
def test_median_of_each_feature_family_matches_sort(rate, n_fft, data):
    clip = data.draw(clips(rate))
    frames, _ = extract_frame_features(clip, StftConfig(n_fft=n_fft, hop=n_fft // 2))
    for family, matrix in frames.items():
        assert np.array_equal(median_of(matrix), reference_median(matrix)), family


def median_of(matrix):
    rows = matrix.shape[0]
    return summarize(matrix)[4 * rows : 5 * rows]


def reference_median(x):
    return np.sort(x, axis=1)[:, (x.shape[1] - 1) // 2]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.sampled_from(sorted(set(FAMILY_BASE_DIMS.values()))),
    cols=st.integers(1, 50),
    values=st.lists(st.integers(-400, 400).map(lambda v: v / 8), min_size=1),
)
def test_median_selection_matches_sort_with_ties(rows, cols, values):
    x = np.resize(np.array(values), (rows, cols))
    assert np.array_equal(median_of(x), reference_median(x))


# -- the caches -- #

def test_cached_matrices_are_read_only():
    banded = (banded_cqt_fold(2048, 44100), banded_mel_filterbank(44100, 2048))
    blocks = [block for product in banded for _, _, block in product.blocks]
    for matrix in (stft_fold_matrix(2048, 44100), cqt_fold_matrix(2048, 44100),
                   mel_filterbank(44100, 2048), *blocks):
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0] = 1.0
    assert stft_fold_matrix(2048, 44100) is stft_fold_matrix(2048, 44100)
    assert banded_mel_filterbank(44100, 2048) is banded_mel_filterbank(44100, 2048)


def _clear_caches():
    for cached in (stft_fold_matrix, cqt_fold_matrix, mel_filterbank, contrast_bands,
                   banded_cqt_fold, banded_mel_filterbank):
        cached.cache_clear()


def test_geometry_caches_are_keyed_by_rate():
    def vector(rate):
        t = np.arange(rate) / rate
        samples = 0.3 * np.sin(2 * np.pi * 440.0 * t) + 0.2 * np.sin(2 * np.pi * 1661.0 * t)
        clip = AudioSignal(samples=samples.astype(np.float32), sample_rate_hz=rate)
        return extract_feature_sets(clip, StftConfig()).vector

    alone = {}
    for rate in (22050, 44100):
        _clear_caches()
        alone[rate] = vector(rate)
    _clear_caches()
    for rate in (22050, 44100, 22050):
        assert np.array_equal(vector(rate), alone[rate]), rate
    assert not np.array_equal(alone[22050], alone[44100])
