"""Feature extraction against a stored golden set.

For six seeded clips (chords, noise and near-silence; shorter than, exactly
and longer than the 1360-frame mel width; 16-bit stereo and 32-bit float mono,
each written with write_wav and read back with read_wav) the fixture holds the
"1to9" summary vector, the fitted mel matrix on a fixed grid of rows and
columns, and the mel matrix's row sums. Extraction must reproduce them within
rtol = atol = 1e-9, so a speed-up may only reassociate floating-point sums.

Regenerate the fixture only when a feature is meant to change:

    PYTHONPATH=src python tests/test_dsp_golden.py
"""

from pathlib import Path

import numpy as np
import pytest

from matt.dsp import (StftConfig, downmix_and_validate, extract_feature_sets, read_wav,
                      write_wav)

RATE = 44100
HOP = 1024
MEL_FRAMES = 1360
FIXTURE = Path(__file__).parent / "data" / "dsp_golden.npz"

# the centred STFT of n samples has 1 + n // HOP frames
LENGTHS = {
    "below": 2 * RATE,
    "at": (MEL_FRAMES - 1) * HOP + HOP // 2,
    "above": (MEL_FRAMES + 60) * HOP,
}
# (name, content, length, float32 mono? else 16-bit stereo)
CLIPS = (
    ("chords_below_int16", "chords", "below", False),
    ("noise_at_float32", "noise", "at", True),
    ("quiet_above_int16", "quiet", "above", False),
    ("chords_above_float32", "chords", "above", True),
    ("noise_below_int16", "noise", "below", False),
    ("quiet_at_float32", "quiet", "at", True),
)
MEL_ROWS = np.arange(0, 96, 5)
MEL_COLUMNS = np.linspace(0, MEL_FRAMES - 1, 24).astype(int)


def _chords(rng, n):
    """Four-note chords with three decaying harmonics, a new chord every ~2 s."""
    out = np.zeros(n)
    change = 2 * RATE
    for start in range(0, n, change):
        t = np.arange(min(change, n - start)) / RATE
        root = rng.integers(45, 70)
        for note in root + np.array([0, 4, 7, 11]):
            f0 = 440.0 * 2.0 ** ((note - 69) / 12.0)
            for h in range(1, 4):
                out[start : start + t.size] += np.sin(
                    2 * np.pi * f0 * h * t + rng.uniform(0, 6.3)
                ) / (8.0 * h)
        out[start : start + t.size] *= np.exp(-t / rng.uniform(0.8, 2.5))
    return out


def _noise(rng, n):
    t = np.arange(n) / RATE
    return 0.15 * rng.standard_normal(n) * (0.6 + 0.4 * np.sin(2 * np.pi * 0.7 * t))


def _quiet(rng, n):
    return 1e-4 * rng.standard_normal(n)


CONTENTS = {"chords": _chords, "noise": _noise, "quiet": _quiet}


def extract_clip(index: int, directory: Path):
    """Write clip `index` as a WAV, read it back and extract it."""
    name, content, length, float32 = CLIPS[index]
    rng = np.random.default_rng([7, index])
    mono = CONTENTS[content](rng, LENGTHS[length])
    if float32:
        channels = mono[np.newaxis, :]
    else:
        right = 0.8 * mono + 0.1 * np.abs(mono).max() * np.tanh(rng.standard_normal(mono.size))
        channels = np.stack([mono, right])
    path = directory / f"{name}.wav"
    write_wav(path, channels, RATE, float32=float32)
    samples, rate = read_wav(path)
    return extract_feature_sets(downmix_and_validate(samples, rate), StftConfig())


def golden_record(result) -> dict:
    mel = result.mel
    return {
        "vector": result.vector,
        "mel_grid": mel[np.ix_(MEL_ROWS, MEL_COLUMNS)],
        "mel_row_sums": mel.sum(axis=1),
    }


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as data:
        return {key: data[key] for key in data.files}


@pytest.mark.parametrize("index", range(len(CLIPS)), ids=[c[0] for c in CLIPS])
def test_extraction_matches_golden(index, golden, tmp_path):
    record = golden_record(extract_clip(index, tmp_path))
    for key, value in record.items():
        np.testing.assert_allclose(
            value, golden[key][index], rtol=1e-9, atol=1e-9, err_msg=f"{CLIPS[index][0]} {key}"
        )


def write_fixture(path: Path = FIXTURE):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = [golden_record(extract_clip(i, Path(tmp))) for i in range(len(CLIPS))]
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **{k: np.stack([r[k] for r in records]) for k in records[0]})


if __name__ == "__main__":
    write_fixture()
    print(f"wrote {FIXTURE}")
