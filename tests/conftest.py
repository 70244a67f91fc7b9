import numpy as np
import pytest

from matt.dataset import SPLITS
from matt.dsp import AudioSignal, FeatureConfig, StftConfig, extract_feature_sets

RATE = 44100


def tone(freq_hz: float, seconds: float = 1.5, amplitude: float = 0.5, rate: int = RATE):
    t = np.arange(int(seconds * rate)) / rate
    return AudioSignal(
        samples=(amplitude * np.sin(2 * np.pi * freq_hz * t)).astype(np.float32),
        sample_rate_hz=rate,
    )


def noisy_clip(seconds: float = 1.5, seed: int = 0, rate: int = RATE):
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * rate)) / rate
    samples = (
        0.4 * np.sin(2 * np.pi * 440.0 * t)
        + 0.2 * np.sin(2 * np.pi * 1234.5 * t)
        + 0.05 * rng.standard_normal(t.size)
    )
    return AudioSignal(
        samples=np.clip(samples, -1.0, 1.0).astype(np.float32), sample_rate_hz=rate
    )


def split_codes(splits):
    """The SegmentTable.split_codes column of a splits column."""
    return np.array([SPLITS.index(split) for split in splits], dtype=np.int8)


def bag_list(bags):
    """A BagSet as one (key, member track ids, genre id) tuple per bag, in
    order; every member of a bag must share its (artist, album, split) key."""
    t = bags.table
    out = []
    for members, genre_id in zip(np.split(bags.rows, bags.starts[1:]), bags.genre_ids.tolist()):
        keys = {(t.artist_ids[i], t.album_ids[i], t.splits[i]) for i in members.tolist()}
        assert len(keys) == 1, f"bag members disagree on their key: {keys}"
        out.append((keys.pop(), tuple(t.track_ids[i] for i in members.tolist()), genre_id))
    return out


@pytest.fixture(scope="session")
def feature_cfg():
    return FeatureConfig()


@pytest.fixture(scope="session")
def stft_cfg():
    return StftConfig()


@pytest.fixture(scope="session")
def clip_extraction(feature_cfg):
    """One full extraction shared by the dimensionality and totality tests."""
    return extract_feature_sets(noisy_clip(), feature_cfg)
