import numpy as np
import pytest

from matt.checkpoint import BadCheckpoint, load_checkpoint, save_checkpoint
from matt.dsp import (
    read_feature_csv,
    read_mel_cache,
    read_wav,
    write_feature_csv,
    write_mel_cache,
    write_wav,
)
from matt.errors import CorruptAudio
from matt.numeric import ParamStore


def test_float32_wav_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    stereo = rng.uniform(-1, 1, size=(2, 5000)).astype(np.float32)
    path = tmp_path / "t.wav"
    write_wav(path, stereo, 44100, float32=True)
    channels, rate = read_wav(path)
    assert rate == 44100
    assert np.array_equal(channels, stereo)


def test_int16_wav_round_trips_within_quantization(tmp_path):
    rng = np.random.default_rng(1)
    mono = rng.uniform(-0.9, 0.9, size=4000).astype(np.float32)
    path = tmp_path / "t.wav"
    write_wav(path, mono, 22050, float32=False)
    channels, rate = read_wav(path)
    assert rate == 22050
    assert channels.shape == (1, 4000)
    assert np.max(np.abs(channels[0] - mono)) <= 1.0 / 32768.0


def test_non_riff_file_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"ID3\x00 definitely not a wav file")
    with pytest.raises(CorruptAudio):
        read_wav(path)


def test_feature_csv_round_trips_float32(tmp_path):
    rng = np.random.default_rng(2)
    rows = {f"trk{i}": rng.standard_normal(5).astype(np.float32) * 1e3 for i in range(4)}
    path = tmp_path / "set.csv"
    columns = [f"phony_mean_{i}" for i in range(5)]
    write_feature_csv(path, columns, rows)
    back = read_feature_csv(path)
    assert sorted(back) == sorted(rows)
    for track_id, vec in rows.items():
        assert np.array_equal(back[track_id], vec)


def test_feature_csv_write_is_deterministic(tmp_path):
    rows = {"b": np.array([1.5], dtype=np.float32), "a": np.array([2.5], dtype=np.float32)}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_feature_csv(p1, ["x_mean_0"], rows)
    write_feature_csv(p2, ["x_mean_0"], dict(reversed(list(rows.items()))))
    assert p1.read_bytes() == p2.read_bytes()
    # rows come out sorted by track id
    lines = p1.read_text().splitlines()
    assert lines[1].startswith("a,") and lines[2].startswith("b,")


def test_nine_significant_digits_round_trip_float32(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(-1e6, 1e6, size=200).astype(np.float32)
    rows = {f"t{i:03d}": [v] for i, v in enumerate(values)}
    write_feature_csv(tmp_path / "f.csv", ["x_mean_0"], rows)
    back = read_feature_csv(tmp_path / "f.csv")
    assert np.array_equal([back[f"t{i:03d}"][0] for i in range(200)], values)


def test_mel_cache_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    mel = rng.standard_normal((96, 1360)).astype(np.float32).astype(np.float64)
    path = tmp_path / "t.mel"
    write_mel_cache(path, mel)
    back = read_mel_cache(path)
    assert back.shape == (96, 1360)
    assert np.array_equal(back, mel.astype(np.float32))
    assert path.read_bytes()[:4] == b"MELF"


def test_mel_cache_corruption_detected(tmp_path):
    path = tmp_path / "t.mel"
    write_mel_cache(path, np.zeros((4, 3)))
    clipped = path.read_bytes()[:-2]
    path.write_bytes(clipped)
    with pytest.raises(CorruptAudio):
        read_mel_cache(path)


def test_checkpoint_round_trip_bytes(tmp_path):
    store = ParamStore()
    rng = np.random.default_rng(5)
    store.add("enc_w0", rng.standard_normal((4, 7)))
    store.add("enc_b0", rng.standard_normal(4))
    store.add("att_b", np.array([0.125]))
    p1 = tmp_path / "a.ckpt"
    save_checkpoint(p1, store)
    raw = load_checkpoint(p1)
    assert raw["enc_w0"].shape == (4, 7)
    assert raw["enc_b0"].shape == (4, 1)
    assert np.array_equal(raw["enc_w0"], store.values["enc_w0"])
    assert np.array_equal(raw["enc_b0"][:, 0], store.values["enc_b0"])

    # loading back into a store and re-saving reproduces identical bytes
    store.load_values(raw)
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p2, store)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes()[:4] == b"MATT"


def test_checkpoint_corruption_detected(tmp_path):
    path = tmp_path / "a.ckpt"
    store = ParamStore()
    store.add("w", np.ones((2, 2)))
    save_checkpoint(path, store)
    body = bytearray(path.read_bytes())
    body[:4] = b"NOPE"
    path.write_bytes(bytes(body))
    with pytest.raises(BadCheckpoint):
        load_checkpoint(path)
