"""The banded mel and cqt products and the chunked RMS/ZCR equal the forms
they replaced.

Extraction multiplies the mel filterbank and the pseudo-CQT fold over their
non-zero bins only (BandedWeights). Each product must equal the dense
weights @ power to 1e-13 relative in every element, and give exact zeros
where the dense product does. RMS and ZCR read the interior frames as
hop-sized chunks of the signal where numpy's pairwise sum allows it; they
must equal np.mean of each frame's squares and its sign-change count
bitwise, the edge frames and the frame-by-frame fallback included.
"""

from unittest import mock

import numpy as np
import pytest

import matt.dsp.signal
from matt.dsp import AudioSignal, StftConfig, frame_signal, stft, time_domain_descriptors
from matt.dsp.chroma import banded_cqt_fold, cqt_fold_matrix
from matt.dsp.mel import banded_mel_filterbank, mel_filterbank
from matt.dsp.signal import FRAME_BLOCK, _sums_in_chunks

# the geometries the DSP tests extract at
GEOMETRIES = [(rate, n_fft) for rate in (16000, 22050, 44100, 48000) for n_fft in (512, 2048)]


def partly_silent(n, seed, dtype=np.float32):
    """Noise with silence across the first frames and a stretch in the middle."""
    rng = np.random.default_rng(seed)
    x = 0.4 * rng.standard_normal(n)
    x[: n // 5] = 0.0
    x[n // 2 : n // 2 + n // 10] = 0.0
    x = np.clip(x, -1.0, 1.0)
    if dtype == np.int16:
        return np.round(x * 32767).astype(np.int16)
    return x.astype(dtype)


# -- the banded products -- #

def dense_and_banded(rate, n_fft):
    return [
        (mel_filterbank(rate, n_fft), banded_mel_filterbank(rate, n_fft)),
        (cqt_fold_matrix(n_fft, rate), banded_cqt_fold(n_fft, rate)),
    ]


@pytest.mark.parametrize("rate, n_fft", GEOMETRIES)
def test_banded_products_equal_the_dense_products(rate, n_fft):
    clip = AudioSignal(samples=partly_silent(rate, rate + n_fft), sample_rate_hz=rate)
    bins = stft(clip, StftConfig(n_fft, n_fft // 2)).bins
    power = bins * bins
    silent = power.sum(axis=0) == 0.0
    assert silent.any() and not silent.all()
    for dense, banded in dense_and_banded(rate, n_fft):
        expected = dense @ power
        actual = banded @ power
        assert actual.shape == expected.shape and actual.flags.c_contiguous
        # sums of non-negative terms: only reassociation separates them
        assert np.all(np.abs(actual - expected) <= 1e-13 * expected)
        assert np.all(actual[:, silent] == 0.0)
        assert np.array_equal(actual == 0.0, expected == 0.0)


@pytest.mark.parametrize("rate, n_fft", GEOMETRIES)
def test_banded_blocks_hold_every_non_zero_weight(rate, n_fft):
    for dense, banded in dense_and_banded(rate, n_fft):
        rebuilt = np.zeros_like(dense)
        for rows, bins, block in banded.blocks:
            rebuilt[rows, bins] = block
        assert np.array_equal(rebuilt, dense)
        assert banded.n_rows == dense.shape[0]
        assert sum(block.size for _, _, block in banded.blocks) < dense.size


# -- RMS/ZCR from hop chunks -- #

def per_frame_rms_zcr(samples, n_fft, hop, center):
    """Each frame of the np.pad copy widened, squared and averaged, and its
    sign changes counted: the frame-by-frame forms."""
    x = np.pad(samples, n_fft // 2, mode="reflect") if center else samples
    n_frames = 1 + (x.size - n_fft) // hop
    frames = np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, n_fft), strides=(hop * x.strides[0], x.strides[0])
    ).astype(np.float64)
    nonneg = frames >= 0.0
    zcr = np.sum(nonneg[:, 1:] != nonneg[:, :-1], axis=1) / (n_fft - 1)
    return np.sqrt(np.mean(frames * frames, axis=1)), zcr


def clip_of(n_frames, n_fft, hop, center):
    """The length of a clip that frames into exactly n_frames."""
    if center:
        return max(n_frames * hop - 1, n_fft // 2 + 1)
    return (n_frames - 1) * hop + n_fft


FRAMINGS = [(n_fft, n_fft // d) for n_fft in (512, 2048) for d in (2, 4)]
FRAME_COUNTS = (1, 2, 3, 4, FRAME_BLOCK + 3, 3 * FRAME_BLOCK + 5)


@pytest.mark.parametrize("dtype", [np.float32, np.int16], ids=["float32", "int16"])
@pytest.mark.parametrize("kind", ["noise", "partly-silent"])
@pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
@pytest.mark.parametrize("n_fft, hop", FRAMINGS)
def test_chunked_rms_and_zcr_equal_the_per_frame_forms(n_fft, hop, n_frames, center, kind,
                                                       dtype):
    n = clip_of(n_frames, n_fft, hop, center)
    samples = partly_silent(n, n_frames * n_fft + hop, dtype)
    if kind == "noise":
        samples = partly_silent(4 * n, n, dtype)[-n:]
    frames = frame_signal(samples, n_fft, hop, center)
    # a centered clip must be longer than the reflect pad, so it has at least
    # 2 frames at hop n_fft/2 and 3 at n_fft/4, and an edge frame at each end
    assert frames.shape[0] == n_frames or center and n_frames * hop <= n_fft // 2 + 1
    with mock.patch.object(matt.dsp.signal, "_chunk_descriptors",
                           wraps=matt.dsp.signal._chunk_descriptors) as chunked:
        rms, zcr = time_domain_descriptors(frames)
    # the chunks read every interior frame, and only a clip without one skips them
    assert chunked.call_count == (frames.interior is not None)
    ref_rms, ref_zcr = per_frame_rms_zcr(samples, n_fft, hop, center)
    assert rms.shape == zcr.shape == (1, frames.shape[0])
    assert rms[0].tobytes() == ref_rms.tobytes()
    assert zcr[0].tobytes() == ref_zcr.tobytes()


@pytest.mark.parametrize("n_fft, hop", [(512, 200), (128, 64), (2048, 48), (512, 96)])
def test_other_hops_read_frame_by_frame_and_match(n_fft, hop):
    samples = partly_silent(20 * n_fft, hop)
    frames = frame_signal(samples, n_fft, hop, True)
    with mock.patch.object(matt.dsp.signal, "_chunk_descriptors") as chunked:
        rms, zcr = time_domain_descriptors(frames)
    assert chunked.call_count == 0
    ref_rms, ref_zcr = per_frame_rms_zcr(samples, n_fft, hop, True)
    assert rms[0].tobytes() == ref_rms.tobytes()
    assert zcr[0].tobytes() == ref_zcr.tobytes()


@pytest.mark.parametrize("n", [16, 64, 128, 192, 256, 512, 1024, 2048, 4096, 8192])
def test_chunk_sums_split_as_numpy_sums(n):
    """Wherever _sums_in_chunks allows a chunk, adding the chunk sums in
    halves gives np.sum of the n values bitwise."""
    values = np.random.default_rng(n).random((64, n)) ** 4
    for chunk in (c for c in range(1, n + 1) if n % c == 0 and (n // c) & (n // c - 1) == 0):
        sums = np.add.reduce(values.reshape(64, n // chunk, chunk), axis=2)
        while sums.shape[1] > 1:
            sums = sums[:, 0::2] + sums[:, 1::2]
        if _sums_in_chunks(n, chunk):
            assert np.array_equal(sums[:, 0], np.add.reduce(values, axis=1)), chunk
    assert _sums_in_chunks(2048, 1024) and _sums_in_chunks(2048, 512)
    assert _sums_in_chunks(512, 256) and _sums_in_chunks(512, 128)
    assert not _sums_in_chunks(512, 200) and not _sums_in_chunks(128, 64)
