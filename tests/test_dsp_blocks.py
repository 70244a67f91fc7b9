"""Blocked extraction equals the whole-track forms it replaced, and stays lean.

stft, time_domain_descriptors and the spectral descriptors run over blocks
of FRAME_BLOCK frames, and a two-channel downmix over blocks of SAMPLE_BLOCK
samples. The references below are the whole-track forms: the frames are the
signal reflect-padded with np.pad in its own dtype, and the rest read those
frames widened to float64 once: one windowed copy and one complex spectrum
of every frame, RMS over the squares of every frame, and the bandwidth,
rolloff and contrast over the whole spectrogram. Every array must be
bitwise equal to its reference, with the same memory layout, since later
products depend on the layout. The frames, which every reader copies a
block at a time, are compared block by block instead.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matt.cli import _extract_one
from matt.dsp import (
    AudioSignal,
    FeatureConfig,
    StftConfig,
    downmix_and_validate,
    extract_feature_sets,
    frame_signal,
    hann_window,
    spectral_descriptors,
    stft,
    time_domain_descriptors,
    write_wav,
)
from matt.dsp.chroma import (
    banded_cqt_fold,
    chroma_features,
    cqt_fold_matrix,
    stft_fold_matrix,
    tonnetz,
)
from matt.dsp.mel import (
    DB_FLOOR,
    MEL_FRAMES,
    _fit_frames,
    banded_mel_filterbank,
    log_mel_frames,
    mel_filterbank,
    mfcc,
)
from matt.dsp.signal import FRAME_BLOCK, SAMPLE_BLOCK, frame_blocks
from matt.dsp.spectral import _AMIN, ROLLOFF_FRACTION, contrast_bands
from matt.dsp.summarize import extract_frame_features
from matt.errors import AudioTooShort, CorruptAudio

RATE = 22050
N_FFT = 512

# -- the whole-track references -- #


def whole_track_frames(samples, n_fft, hop, center=True):
    """The frames of the padded copy that frame_signal no longer builds; it
    raises AudioTooShort where frame_signal must."""
    x = np.asarray(samples)
    if center:
        if x.size <= n_fft // 2:
            raise AudioTooShort("shorter than the reflect pad")
        x = np.pad(x, n_fft // 2, mode="reflect")
    if x.size < n_fft:
        raise AudioTooShort("shorter than a frame")
    n_frames = 1 + (x.size - n_fft) // hop
    return np.lib.stride_tricks.as_strided(
        x, shape=(n_frames, n_fft), strides=(hop * x.strides[0], x.strides[0]), writeable=False
    )


def whole_track_stft(samples, n_fft, hop):
    """The frames in the signal's dtype, and the float64 magnitudes and power."""
    frames = whole_track_frames(samples, n_fft, hop)
    mags = np.abs(np.fft.rfft(frames.astype(np.float64) * hann_window(n_fft), axis=1)).T
    return frames, mags, mags * mags


def whole_track_rms_zcr(frames):
    frames = frames.astype(np.float64)
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    nonneg = frames >= 0.0
    zcr = np.sum(nonneg[:, 1:] != nonneg[:, :-1], axis=1) / (frames.shape[1] - 1)
    return rms, zcr


def whole_track_spectral(S, freqs, bands):
    per_frame = S.T
    total = per_frame.sum(axis=1)
    silent = total <= 0.0
    safe_total = np.where(silent, 1.0, total)
    centroid = (per_frame @ freqs) / safe_total
    centroid[silent] = 0.0
    deviation = np.subtract.outer(centroid, freqs)
    np.square(deviation, out=deviation)
    bandwidth = np.sqrt(np.einsum("tf,tf->t", deviation, per_frame) / safe_total)
    bandwidth[silent] = 0.0

    cum = np.cumsum(S, axis=0)
    reached = cum >= ROLLOFF_FRACTION * cum[-1][np.newaxis, :]
    rolloff = freqs[reached.argmax(axis=0)]
    rolloff[cum[-1] <= 0.0] = 0.0

    contrast = np.zeros((len(bands), S.shape[1]))
    for k, (start, stop, take) in enumerate(bands):
        ordered = np.sort(S[start:stop], axis=0)
        valley = ordered[:take].mean(axis=0)
        peak = ordered[-take:].mean(axis=0)
        contrast[k] = 10.0 * (
            np.log10(np.maximum(peak, _AMIN)) - np.log10(np.maximum(valley, _AMIN))
        )
    return centroid, bandwidth, contrast, rolloff


# -- the cases -- #

def longest_clip(n_frames, hop):
    """Centered framing gives 1 + n // hop frames of an n-sample clip."""
    return n_frames * hop - 1


# every frame count at every hop, where a clip longer than the reflect pad has it
FRAME_COUNTS = (1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 3 * FRAME_BLOCK + 5)
HOPS = (N_FFT // 4, 200, N_FFT)
FRAMINGS = [(n_frames, hop) for n_frames in FRAME_COUNTS for hop in HOPS
            if longest_clip(n_frames, hop) > N_FFT // 2]


def samples_for(n_frames, hop, kind, dtype):
    """A clip that gives exactly n_frames centered frames at this hop."""
    n = max((n_frames - 1) * hop + hop // 2, N_FFT // 2 + 1)
    rng = np.random.default_rng(n_frames * 1000 + hop)
    x = 0.4 * rng.standard_normal(n)
    if kind == "partly-silent":
        # silence across whole frames, including the first and a block edge
        x[: 2 * N_FFT] = 0.0
        edge = FRAME_BLOCK * hop
        x[edge - N_FFT : edge + N_FFT] = 0.0
    elif kind == "silent":
        x[:] = 0.0
    x = np.clip(x, -1.0, 1.0)
    if dtype == np.int16:
        return np.round(x * 32767).astype(np.int16)
    return x.astype(dtype)


def layout(array):
    """Strides of the axes longer than 1; any stride serves a length-1 axis."""
    return [s for n, s in zip(array.shape, array.strides) if n > 1]


def assert_frames_equal_the_padded_reference(frames, samples, n_fft, hop, center=True):
    """Every block of FRAME_BLOCK frames and the whole frame matrix equal the
    np.pad reference bitwise, in the signal's dtype; a block that reaches no
    padding is a view of the samples."""
    reference = whole_track_frames(samples, n_fft, hop, center)
    pad = n_fft // 2 if center else 0
    assert frames.shape == reference.shape
    for rows in frame_blocks(frames.shape[0]):
        block = frames[rows]
        assert block.dtype == samples.dtype
        assert block.tobytes() == reference[rows].tobytes(), rows
        if rows.start * hop >= pad and (rows.stop - 1) * hop - pad + n_fft <= samples.size:
            assert np.shares_memory(block, samples), rows
    whole = frames[:]
    assert whole.dtype == samples.dtype
    assert whole.tobytes() == reference.tobytes()


def assert_same(actual, reference, what):
    assert actual.dtype == reference.dtype, what
    assert actual.shape == reference.shape, what
    assert layout(actual) == layout(reference), what
    assert actual.tobytes() == reference.tobytes(), what


@pytest.mark.parametrize("dtype", [np.float32, np.int16], ids=["float32", "int16"])
@pytest.mark.parametrize("kind", ["noise", "partly-silent", "silent"])
@pytest.mark.parametrize("n_frames, hop", FRAMINGS)
def test_blocked_extraction_equals_the_whole_track_forms(n_frames, hop, kind, dtype):
    samples = samples_for(n_frames, hop, kind, dtype)
    spec = stft(AudioSignal(samples=samples, sample_rate_hz=RATE), StftConfig(N_FFT, hop))
    frames, mags, power = whole_track_stft(samples, N_FFT, hop)
    assert spec.frames.shape[0] == n_frames
    assert_frames_equal_the_padded_reference(spec.frames, samples, N_FFT, hop)
    assert_same(spec.bins, mags, "bins")
    assert_same(spec.bins * spec.bins, power, "power")

    rms, zcr = time_domain_descriptors(spec.frames)
    ref_rms, ref_zcr = whole_track_rms_zcr(frames)
    assert_same(rms[0], ref_rms, "rms")
    assert_same(zcr[0], ref_zcr, "zcr")

    reference = whole_track_spectral(
        mags, spec.bin_frequencies_hz(), contrast_bands(N_FFT, RATE)
    )
    for matrix, ref in zip(spectral_descriptors(spec), reference):
        assert_same(matrix.values, ref.reshape(matrix.values.shape), matrix.family)


@pytest.mark.parametrize("dtype", [np.float32, np.int16], ids=["float32", "int16"])
@pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
def test_frames_are_the_signal_in_its_own_dtype_padded_or_not(center, dtype):
    samples = samples_for(FRAME_BLOCK + 1, 200, "noise", dtype)
    frames = frame_signal(samples, N_FFT, 200, center)
    assert_frames_equal_the_padded_reference(frames, samples, N_FFT, 200, center)


@settings(max_examples=300, deadline=None)
@example(n_samples=3000, n_fft=64, hop_fraction=0.75, center=True, dtype=np.float32)  # hop > pad
@example(n_samples=3000, n_fft=64, hop_fraction=0.3, center=True, dtype=np.int16)  # 19 into 32
@example(n_samples=40, n_fft=64, hop_fraction=0.5, center=True, dtype=np.float32)  # 2 frames
@example(n_samples=32, n_fft=64, hop_fraction=0.5, center=True, dtype=np.int16)  # only the pad
@example(n_samples=63, n_fft=64, hop_fraction=1.0, center=False, dtype=np.float32)  # < 1 frame
@given(
    n_samples=st.integers(1, 3000),
    n_fft=st.integers(1, 96),
    hop_fraction=st.floats(0.0, 1.0),
    center=st.booleans(),
    dtype=st.sampled_from([np.float32, np.int16]),
)
def test_frames_equal_the_np_pad_reference(n_samples, n_fft, hop_fraction, center, dtype):
    """Any framing, 0 < hop <= n_fft, as frame_signal's readers see it, and
    AudioTooShort exactly where the np.pad path raises it."""
    hop = max(1, round(hop_fraction * n_fft))
    rng = np.random.default_rng(n_samples)
    samples = rng.integers(-32768, 32768, n_samples).astype(dtype)
    try:
        whole_track_frames(samples, n_fft, hop, center)
    except AudioTooShort:
        with pytest.raises(AudioTooShort):
            frame_signal(samples, n_fft, hop, center)
        return
    frames = frame_signal(samples, n_fft, hop, center)
    assert_frames_equal_the_padded_reference(frames, samples, n_fft, hop, center)


def test_production_geometry_equals_the_whole_track_forms():
    samples = samples_for(2 * FRAME_BLOCK + 7, 1024, "partly-silent", np.float32)
    cfg = FeatureConfig()
    spec = stft(AudioSignal(samples=samples, sample_rate_hz=cfg.sample_rate), cfg.stft)
    frames, mags, power = whole_track_stft(samples, cfg.stft.n_fft, cfg.stft.hop)
    assert_same(spec.bins, mags, "bins")
    assert_same(spec.bins * spec.bins, power, "power")
    reference = whole_track_spectral(
        mags, spec.bin_frequencies_hz(), contrast_bands(cfg.stft.n_fft, cfg.sample_rate)
    )
    for matrix, ref in zip(spectral_descriptors(spec), reference):
        assert_same(matrix.values, ref.reshape(matrix.values.shape), matrix.family)


# -- the power squared in place -- #

@pytest.mark.parametrize("kind", ["noise", "partly-silent", "silent"])
@pytest.mark.parametrize("n_frames, hop", FRAMINGS)
def test_power_squared_in_place_equals_a_separate_square(n_frames, hop, kind):
    """Extraction squares the bins in place and folds cqt once for cqt and
    cens. Each stage that reads the power must give what it gives on a
    separate bins * bins, with its own fold per chroma variant: the folds
    and filterbank that extraction multiplies (the banded ones for cqt and
    mel, whose products equal the dense ones only up to reassociation; see
    test_banded_products_equal_the_dense_products)."""
    clip = AudioSignal(samples=samples_for(n_frames, hop, kind, np.float32), sample_rate_hz=RATE)
    cfg = FeatureConfig(sample_rate=RATE, stft=StftConfig(N_FFT, hop))
    frames, mel = extract_frame_features(clip, cfg)
    bins = stft(clip, cfg.stft).bins
    power = bins * bins
    fold_matrices = {"stft": stft_fold_matrix, "cqt": banded_cqt_fold, "cens": banded_cqt_fold}
    for variant, fold_matrix in fold_matrices.items():
        chroma = chroma_features(fold_matrix(N_FFT, RATE) @ power, variant)
        assert_same(frames[chroma.family].values, chroma.values, chroma.family)
    cqt = chroma_features(banded_cqt_fold(N_FFT, RATE) @ power, "cqt")
    assert_same(frames["tonnetz"].values, tonnetz(cqt).values, "tonnetz")
    native_db = log_mel_frames(power, banded_mel_filterbank(RATE, N_FFT))
    assert_same(frames["mfcc"].values, mfcc(native_db), "mfcc")
    assert_same(mel, _fit_frames(native_db, MEL_FRAMES, DB_FLOOR), "mel")


# -- the block-wise downmix -- #

DOWNMIX_LENGTHS = (SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 3 * SAMPLE_BLOCK + 5)


def stereo_for(n, kind, decoded_from):
    """Two float32 channels of n samples, as read_wav decodes a float32 or
    a 16-bit PCM file."""
    x = np.clip(0.4 * np.random.default_rng(n).standard_normal((2, n)), -1.0, 1.0)
    if kind == "silent":
        x[:] = 0.0
    if decoded_from == np.int16:
        channels = np.round(x * 32767).astype(np.int16).astype(np.float32)
        channels /= 32768.0
    else:
        channels = x.astype(np.float32)
    if kind == "tiny":
        channels *= np.float32(1e-30)
    return channels


def whole_track_mean(channels):
    return (channels[0] + channels[1].astype(np.float64)) / 2


@pytest.mark.parametrize("decoded_from", [np.float32, np.int16], ids=["float32", "int16"])
@pytest.mark.parametrize("kind", ["noise", "silent", "tiny"])
@pytest.mark.parametrize("n", DOWNMIX_LENGTHS)
def test_blocked_downmix_equals_the_whole_track_mean(n, kind, decoded_from):
    channels = stereo_for(n, kind, decoded_from)
    samples = downmix_and_validate(channels, RATE).samples
    assert_same(samples, whole_track_mean(channels).astype(np.float32), "samples")


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_an_over_range_sample_in_the_last_partial_block_is_a_clip(sign):
    channels = stereo_for(3 * SAMPLE_BLOCK + 5, "noise", np.float32)
    channels[:, -1] = sign * 1.01
    peak = float(np.max(np.abs(whole_track_mean(channels))))
    message = f"sample magnitude {peak:.6g} exceeds 1 + 0.001"
    with pytest.raises(CorruptAudio, match=f"^{re.escape(message)}$"):
        downmix_and_validate(channels, RATE)


def test_a_non_finite_sample_in_the_last_block_wins_over_an_earlier_clip():
    channels = stereo_for(3 * SAMPLE_BLOCK + 5, "noise", np.float32)
    channels[0, 10] = 1.5
    channels[1, -3] = np.nan
    with pytest.raises(CorruptAudio, match="^non-finite sample value$"):
        downmix_and_validate(channels, RATE)


def spectrogram_bytes(n, cfg):
    """The one float64 bins matrix (squared in place into the power) that a
    spectrogram of n samples keeps; its frames are views of the signal."""
    n_frames = 1 + n // cfg.stft.hop
    return 8 * n_frames * (cfg.stft.n_fft // 2 + 1)


# The per-frame outputs (74 feature rows and 96 mel rows against 1 025 bins)
# are 0.17x the bins matrix, and the fold, mel and contrast tables that a
# process's first track builds and caches ~0.08x at 36 s. So a 36 s clip
# peaks at ~1.27x on a cold cache, which leaves a 6% margin below this bound.
PEAK_OVER_KEPT = 1.35


def traced_peak(run):
    """Peak traced bytes of run(), from empty matrix caches as on a
    process's first track; allocation sizes do not vary between runs."""
    for cached in (stft_fold_matrix, cqt_fold_matrix, mel_filterbank, contrast_bands,
                   banded_cqt_fold, banded_mel_filterbank):
        cached.cache_clear()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extraction_peak_stays_near_what_the_spectrogram_keeps():
    """A 36 s clip's extraction allocates little beyond the bins matrix (12.7
    MB) and its outputs. It peaked at 1.60x that matrix while the track kept a
    padded float32 copy of its signal (a 1.15x bound on the two together),
    and the whole-track forms higher still."""
    cfg = FeatureConfig()
    n = 36 * cfg.sample_rate
    samples = (0.3 * np.random.default_rng(7).standard_normal(n)).astype(np.float32)
    clip = AudioSignal(samples=samples, sample_rate_hz=cfg.sample_rate)
    kept = spectrogram_bytes(n, cfg)
    peak = traced_peak(lambda: extract_feature_sets(clip, cfg))
    assert peak < PEAK_OVER_KEPT * kept, f"peak {peak / 1e6:.1f} MB, kept {kept / 1e6:.1f} MB"


# The spectral pass holds 3.7 blocks of FRAME_BLOCK float64 bins beyond its
# outputs at 36 s: the deviations, reused for the cumulative sums, two
# sorted contrast bands and the per-band sums. A whole-track temporary, such
# as a cumulative sum or deviation matrix of every frame, would take 48.
SPECTRAL_BLOCKS = 5


def test_the_spectral_pass_allocates_a_few_blocks_beyond_its_outputs():
    cfg = FeatureConfig()
    n = 36 * cfg.sample_rate
    samples = (0.3 * np.random.default_rng(7).standard_normal(n)).astype(np.float32)
    spec = stft(AudioSignal(samples=samples, sample_rate_hz=cfg.sample_rate), cfg.stft)
    n_bins, n_frames = spec.bins.shape
    outputs = 8 * n_frames * 10  # centroid, bandwidth, rolloff and 7 contrast rows
    block = 8 * FRAME_BLOCK * n_bins
    peak = traced_peak(lambda: spectral_descriptors(spec))
    assert peak - outputs < SPECTRAL_BLOCKS * block, f"{(peak - outputs) / block:.1f} blocks"


def test_a_stereo_track_extracts_without_its_decoded_channels(tmp_path):
    """Extracting a 36 s int16 stereo WAV peaks at the extraction bound plus
    the mono float32 signal: the downmix makes no whole-track float64
    temporary, and the decoded channels (a second float32 copy of the
    track) are freed after it."""
    cfg = FeatureConfig()
    n = 36 * cfg.sample_rate
    stereo = 0.3 * np.random.default_rng(8).standard_normal((2, n))
    wav = tmp_path / "t.wav"
    write_wav(wav, stereo, cfg.sample_rate, float32=False)
    del stereo
    task = ("t", str(wav), str(tmp_path / "t.part"), str(tmp_path / "t.mel"), cfg)
    peak = traced_peak(lambda: _extract_one(task))
    bound = PEAK_OVER_KEPT * spectrogram_bytes(n, cfg) + 4 * n
    assert peak < bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"
