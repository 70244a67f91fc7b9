import hashlib
import re
import struct
import tracemalloc
from pathlib import Path

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
from matt.training import TrainConfig, new_model


def test_float32_wav_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    stereo = rng.uniform(-1, 1, size=(2, 5000)).astype(np.float32)
    path = tmp_path / "t.wav"
    write_wav(path, stereo, 44100, float32=True)
    channels, rate = read_wav(path)
    assert rate == 44100
    assert np.array_equal(channels, stereo)


def test_reading_a_wav_holds_the_file_and_its_samples_only(tmp_path):
    # the data chunk is decoded from a view of the file's bytes, not a copy
    n = 36 * 44100
    path = tmp_path / "t.wav"
    write_wav(path, 0.3 * np.random.default_rng(2).standard_normal((2, n)), 44100,
              float32=False)
    tracemalloc.start()
    try:
        channels, _ = read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = path.stat().st_size + channels.nbytes + 2**20
    assert peak <= bound, f"peak {peak / 1e6:.1f} MB, bound {bound / 1e6:.1f} MB"


def test_int16_wav_round_trips_within_quantization(tmp_path):
    rng = np.random.default_rng(1)
    mono = rng.uniform(-0.9, 0.9, size=4000).astype(np.float32)
    path = tmp_path / "t.wav"
    write_wav(path, mono, 22050, float32=False)
    channels, rate = read_wav(path)
    assert rate == 22050
    assert channels.shape == (1, 4000)
    assert np.max(np.abs(channels[0] - mono)) <= 1.0 / 32768.0


@pytest.mark.parametrize("float32", [True, False], ids=["float32", "int16"])
def test_data_chunk_cut_inside_a_sample_is_corrupt_audio(tmp_path, float32):
    path = tmp_path / "t.wav"
    write_wav(path, np.zeros((2, 100)), 44100, float32=float32)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(CorruptAudio, match="not a whole number of") as info:
        read_wav(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("float32", [True, False], ids=["float32", "int16"])
@pytest.mark.parametrize("n_channels", [1, 2], ids=["mono", "stereo"])
@pytest.mark.parametrize("cut_samples", [1, 200])
def test_data_chunk_shorter_than_its_header_is_corrupt_audio(
    tmp_path, float32, n_channels, cut_samples
):
    # a cut of whole frames, or of one stereo sample: half a frame
    path = tmp_path / "t.wav"
    write_wav(path, np.zeros((n_channels, 1000)), 44100, float32=float32)
    sample_bytes = 4 if float32 else 2
    path.write_bytes(path.read_bytes()[: -cut_samples * sample_bytes])
    with pytest.raises(CorruptAudio, match="not a whole number of|header declares") as info:
        read_wav(path)
    assert str(path) in str(info.value)


def test_non_riff_file_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"ID3\x00 definitely not a wav file")
    with pytest.raises(CorruptAudio):
        read_wav(path)


def read_back(path, sidecar: str):
    """read_feature_csv with the writer's binary sidecar present or removed."""
    if sidecar == "removed":
        Path(f"{path}.bin").unlink()
    return read_feature_csv(path)


@pytest.mark.parametrize("sidecar", ["present", "removed"])
def test_feature_csv_round_trips_float32(tmp_path, sidecar):
    rng = np.random.default_rng(2)
    ids = [f"trk{i}" for i in range(4)]
    values = rng.standard_normal((4, 5)).astype(np.float32) * 1e3
    path = tmp_path / "set.csv"
    columns = [f"phony_mean_{i}" for i in range(5)]
    write_feature_csv(path, columns, ids, values)
    back_ids, back = read_back(path, sidecar)
    assert back_ids == ids
    assert back.dtype == np.float32 and np.array_equal(back, values)


def test_feature_csv_write_is_deterministic(tmp_path):
    values = np.array([[1.5], [2.5]], dtype=np.float32)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_feature_csv(p1, ["x_mean_0"], ["b", "a"], values)
    write_feature_csv(p2, ["x_mean_0"], ["a", "b"], values[::-1])
    assert p1.read_bytes() == p2.read_bytes()
    assert Path(f"{p1}.bin").read_bytes() == Path(f"{p2}.bin").read_bytes()
    # rows come out sorted by track id
    lines = p1.read_text().splitlines()
    assert lines[1].startswith("a,") and lines[2].startswith("b,")


@pytest.mark.parametrize("sidecar", ["present", "removed"])
def test_nine_significant_digits_round_trip_float32(tmp_path, sidecar):
    rng = np.random.default_rng(3)
    values = rng.uniform(-1e6, 1e6, size=200).astype(np.float32)
    ids = [f"t{i:03d}" for i in range(200)]
    write_feature_csv(tmp_path / "f.csv", ["x_mean_0"], ids, values[:, np.newaxis])
    back_ids, back = read_back(tmp_path / "f.csv", sidecar)
    assert back_ids == ids and np.array_equal(back[:, 0], values)


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


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_a_non_finite_checkpoint_value_is_bad_checkpoint(tmp_path, value):
    path = tmp_path / "a.ckpt"
    store = ParamStore()
    store.add("w", np.ones((2, 2)))
    store.add("b", np.array([0.5, value]))
    save_checkpoint(path, store)
    message = f"{path}: parameter 'b' holds a non-finite value"
    with pytest.raises(BadCheckpoint, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


def test_truncated_or_flipped_checkpoint_is_bad_checkpoint_or_loads(tmp_path):
    model = new_model(TrainConfig(embedding_dim=2), input_dim=3, n_genres=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model.params)
    good = path.read_bytes()
    truncated = [good[:n] for n in range(len(good))]
    flipped = [good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1 :] for i in range(len(good))]
    for blob in truncated + flipped:
        path.write_bytes(blob)
        try:
            load_checkpoint(path)
        except BadCheckpoint as exc:
            assert str(path) in str(exc)
        else:  # the trailing digest catches every cut and every flipped byte
            kind = "cut" if blob in truncated else "flipped"
            raise AssertionError(f"a {kind} checkpoint of {len(blob)} bytes loaded")


def test_a_version_1_checkpoint_is_unsupported(tmp_path):
    path = tmp_path / "a.ckpt"
    store = ParamStore()
    store.add("w", np.ones((2, 2)))
    save_checkpoint(path, store)
    v2 = path.read_bytes()
    assert v2[4:8] == struct.pack("<I", 2)
    assert v2[-32:] == hashlib.sha256(v2[:-32]).digest()
    # the version 1 layout: the same body, no digest
    path.write_bytes(v2[:4] + struct.pack("<I", 1) + v2[8:-32])
    with pytest.raises(BadCheckpoint, match=f"^{re.escape(f'{path}: unsupported version 1')}$"):
        load_checkpoint(path)


def small_checkpoint(path) -> bytes:
    """The bytes of a saved one-parameter checkpoint: a 55-byte body, then
    its 32-byte SHA-256."""
    store = ParamStore()
    store.add("w", np.ones((2, 2)))
    save_checkpoint(path, store)
    return path.read_bytes()


@pytest.mark.parametrize("edit", [
    lambda blob: blob[:20] + bytes([blob[20] ^ 0x01]) + blob[21:],
    lambda blob: blob[:-1] + bytes([blob[-1] ^ 0x01]),
    lambda blob: blob[:8],
], ids=["a body byte flipped", "a digest byte flipped", "cut to the version word"])
def test_a_digest_mismatch_is_reported_as_a_cut_or_altered_file(tmp_path, edit):
    path = tmp_path / "a.ckpt"
    path.write_bytes(edit(small_checkpoint(path)))
    message = f"{path}: checksum mismatch, the file is cut or altered"
    with pytest.raises(BadCheckpoint, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda body: body[:-8], "truncated data for 'w'"),
    (lambda body: body + b"\0\0\0", "3 trailing bytes"),
    (lambda body: body[:8] + struct.pack("<I", 2) + body[12:], "truncated at byte 55 of 55"),
    (lambda body: body[:14] + b"\xff" + body[15:], "parameter name at byte 14 is not UTF-8"),
], ids=["data cut", "bytes added", "count raised", "name not UTF-8"])
def test_a_malformed_body_under_a_matching_digest_is_bad_checkpoint(tmp_path, edit, message):
    """The digest shows that the bytes are the ones written, not that they
    parse: a malformed body signed afresh still fails the structural checks."""
    path = tmp_path / "a.ckpt"
    body = edit(small_checkpoint(path)[:-32])
    path.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(BadCheckpoint, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_checkpoint(path)
