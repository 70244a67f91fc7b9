"""The benchmark's four workloads over the ``matt`` command line.

Each workload writes its inputs from the workload seed in ``setup``; the
program sees only those files. Its timed op calls ``matt.cli.main(argv)``
in-process, and ``check_op`` checks what the op wrote. The first op's outputs
are checked in full; every later op must write byte-identical files.

Why these four:

- train-bags: ``matt train`` on album-artist bags, the paper's headline path.
  Per-bag forward/backward and the per-bag feature gather dominate it, so a
  packed bag engine should show here.
- train-segments: ``matt train --segment-level``: the same model, training and
  numeric code over singleton bags, with attention bypassed. A bag-engine
  change must not slow it; an optimizer change shows here.
- extract: ``matt extract-features --workers 1`` over a seeded WAV corpus. Only
  the DSP and feature cache run; the model is idle.
- infer: ``matt evaluate`` (bag, then segment mode) and ``matt predict`` on a
  fixed checkpoint: the forward-only, read side of the model plus evaluation,
  checkpoint load and CSV reads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import struct
from pathlib import Path

import numpy as np

# Bag training runs a fixed number of epochs below the early-stopping patience
# of the benchmark settings (50), so early stopping never fires and every op
# does the same work on every seed. A full run to early stop (~100 epochs)
# would not fit several ops into one measured run.
TRAIN_EPOCHS = 8
SEGMENT_EPOCHS = 6
# infer scores with a one-hidden-layer encoder trained briefly at set-up
INFER_HIDDEN = 32
INFER_EPOCHS = 2

RATE = 44100
HOP = 1024
MEL_FRAMES = 1360
N_FEATURES = 518
N_MELS = 96
CORPUS_CLIPS = 6

CONFIG = """\
[paths]
audio_dir = audio
metadata = metadata.csv
feature_dir = features
checkpoint_dir = checkpoints
report_dir = {report_dir}

[run]
seed = {seed}

[features]
feature_set = {feature_set}

[encoder]
hidden_dims = {hidden_dims}
embedding_dim = {embedding_dim}

[train]
epochs = {epochs}
bags_per_batch = {bags_per_batch}
optimizer = {optimizer}
learning_rate = {learning_rate!r}
early_stop_patience = {patience}

[eval]
subsets = 100,200
ks = 2,3,5
"""


class CheckFailed(Exception):
    """An op ran but its outputs are wrong."""


def cli(*argv):
    """Run one matt command in-process, discarding what it prints."""
    from matt.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise CheckFailed(f"matt {' '.join(map(str, argv))} exited with code {code}")


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def write_config(path: Path, seed: int, *, feature_set="synth", hidden_dims=(), epochs,
                 report_dir="reports"):
    from matt.benchmark import BENCHMARK_TRAIN as t

    if epochs > t.early_stop_patience:
        raise ValueError("epochs must not exceed the early-stopping patience")
    path.write_text(
        CONFIG.format(
            report_dir=report_dir,
            seed=seed,
            feature_set=feature_set,
            hidden_dims=",".join(map(str, hidden_dims)),
            embedding_dim=t.embedding_dim,
            epochs=epochs,
            bags_per_batch=t.bags_per_batch,
            optimizer=t.optimizer,
            learning_rate=t.learning_rate,
            patience=t.early_stop_patience,
        ),
        encoding="utf-8",
    )


def read_metadata(path: Path):
    """Rows of metadata.csv as (track, album, artist, genre, split) tuples."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [tuple(ln.split(",")) for ln in lines[1:] if ln]


def read_report(path: Path) -> dict:
    """report.txt as key -> value, numbers parsed."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def read_tail_top2(report: dict):
    """Top@2 over the test units of genres with fewer than 100 training segments.

    Returns (accuracy, units). matt omits Top@K of an empty subset, so on a
    seed where every genre has 100 or more training segments the accuracy is
    None and the unit count 0.
    """
    units = int(report["subset <100"].split()[0])
    top2 = report.get("top@2 (<100 train segments)")
    require((top2 is None) == (units == 0), "tail Top@2 present iff the tail subset is non-empty")
    return top2, units


def read_float_table(path: Path):
    """A ``track_id,<values>`` CSV as (ids, header width, float64 matrix)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    width = len(lines[0].split(",")) - 1
    ids = []
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        ids.append(parts[0])
        rows.append([float(p) for p in parts[1:]])
    return ids, width, np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def check_checkpoint_round_trip(path: Path, scratch: Path):
    """Load the checkpoint, save it again and require identical bytes."""
    from matt.checkpoint import load_checkpoint, save_checkpoint
    from matt.numeric import ParamStore

    params = load_checkpoint(path)
    require(all(np.all(np.isfinite(v)) for v in params.values()), f"{path}: non-finite parameter")
    store = ParamStore()
    for name, value in params.items():
        store.add(name, value)
    save_checkpoint(scratch, store)
    require(scratch.read_bytes() == path.read_bytes(), f"{path}: checkpoint round trip differs")
    scratch.unlink()
    return params


class Workload:
    name = ""
    op = ""  # what one timed op runs
    unit = ""  # what the workload's throughput counts
    throughput = ""  # the throughput's name among the named metrics
    tracks_per_op = 0  # audio tracks one op extracts

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.config = work / "run.ini"
        self.first_digest = None
        self.setup_digest = None
        self.golden = {}  # values compared with golden.json on the default seed

    def setup(self):
        raise NotImplementedError

    def setup_outputs(self) -> list[Path]:
        raise NotImplementedError

    def check_setup(self):
        """Every set-up repetition must write the same inputs."""
        d = digest(*self.setup_outputs())
        if self.setup_digest is None:
            self.setup_digest = d
        require(d == self.setup_digest, "set-up is not deterministic")

    def prepare(self):
        """Untimed, before each op: clear what the previous op wrote."""

    def run_op(self):
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check_first(self):
        raise NotImplementedError

    def check_op(self):
        d = digest(*self.outputs())
        if self.first_digest is None:
            self.check_first()
            self.first_digest = d
        require(d == self.first_digest, "op outputs differ from the first op's")

    def finish(self, op_seconds: list[float]) -> dict:
        """Untimed checks after the loop; returns named metrics as name -> (value, unit)."""
        raise NotImplementedError


class TrainBags(Workload):
    name = "train-bags"
    op = f"matt train, {TRAIN_EPOCHS} epochs"
    unit = "training bag per second of epoch time"
    throughput = "bags_per_s"
    segment_level = False
    epochs = TRAIN_EPOCHS
    checkpoint = "matt.ckpt"
    eval_mode = "bag"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.first_log = None
        self.epoch_seconds = []

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        write_config(self.config, self.seed, epochs=self.epochs)
        cli("gen-synth", "--config", self.config)

    def setup_outputs(self):
        return [self.work / "metadata.csv", self.work / "features" / "synth.csv"]

    def prepare(self):
        shutil.rmtree(self.work / "checkpoints", ignore_errors=True)

    def run_op(self):
        argv = ["train", "--config", self.config]
        if self.segment_level:
            argv.append("--segment-level")
        cli(*argv)

    @property
    def checkpoint_path(self) -> Path:
        return self.work / "checkpoints" / self.checkpoint

    def outputs(self):
        return [self.checkpoint_path]

    def train_log(self) -> np.ndarray:
        path = self.checkpoint_path.with_name(f"{self.checkpoint_path.stem}_trainlog.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        require(lines[0] == "epoch,loss,val_accuracy,seconds", "unexpected train log header")
        return np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])

    def split_units(self, split: str, segments: bool) -> int:
        """Segments, or album-artist bags, of one split in metadata.csv."""
        rows = [r for r in read_metadata(self.work / "metadata.csv") if r[4] == split]
        return len(rows) if segments else len({(r[2], r[1]) for r in rows})

    def check_first(self):
        rows = self.train_log()
        require(rows.shape == (self.epochs, 4), f"train log has {rows.shape[0]} epochs")
        require(bool(np.all(np.isfinite(rows))), "non-finite value in the train log")
        check_checkpoint_round_trip(self.checkpoint_path, self.work / "roundtrip.ckpt")
        self.first_log = rows[:, :3]
        val_units = self.split_units("validation", self.segment_level)
        self.golden["final_loss"] = float(rows[-1, 1])
        self.golden["val_hits"] = round(rows[-1, 2] * val_units)

    def check_op(self):
        super().check_op()
        rows = self.train_log()
        require(np.array_equal(rows[:, :3], self.first_log), "train log differs from the first op's")
        self.epoch_seconds.extend(rows[:, 3].tolist())

    def finish(self, op_seconds):
        from matt.synthetic import TEST_BAGS_PER_GENRE, SynthConfig, train_bag_counts

        synth = SynthConfig(seed=self.seed)
        require(self.split_units("train", False) == sum(train_bag_counts(synth)),
                "train bag count != generator")
        require(self.split_units("test", False) == synth.n_genres * TEST_BAGS_PER_GENRE,
                "test bag count != generator")
        cli("evaluate", "--config", self.config, "--mode", self.eval_mode,
            "--checkpoint", self.checkpoint_path)
        report = read_report(self.work / "reports" / "report.txt")
        require(report["units"] == self.split_units("test", self.segment_level),
                "evaluated unit count != test split")
        tail_top2, tail_units = read_tail_top2(report)
        self.golden["test_hits"] = round(report["overall_accuracy"] * report["units"])
        self.golden["tail_top2_hits"] = round((tail_top2 or 0.0) * tail_units)
        return {
            "train_s": (float(np.median(op_seconds)), "s"),
            "epoch_ms": (1e3 * float(np.median(self.epoch_seconds)), "ms"),
            self.throughput: (self.split_units("train", self.segment_level)
                              / float(np.median(self.epoch_seconds)), "1/s"),
            "tail_top2": (tail_top2, "fraction"),
            "tail_units": (tail_units, "count"),
        }


class TrainSegments(TrainBags):
    name = "train-segments"
    op = f"matt train --segment-level, {SEGMENT_EPOCHS} epochs"
    unit = "training segment per second of epoch time"
    throughput = "segments_per_s"
    segment_level = True
    epochs = SEGMENT_EPOCHS
    checkpoint = "baseline.ckpt"
    eval_mode = "segment"


# -- extract: a seeded WAV corpus -- #

# the shortest clip whose centred STFT has exactly MEL_FRAMES frames
MEL_WIDTH_SAMPLES = (MEL_FRAMES - 1) * HOP
# Clip lengths are fixed per class so every seed extracts the same amount of
# audio; the seed changes only what the clips contain.
LENGTHS = {"below": 15 * RATE, "at": MEL_WIDTH_SAMPLES + HOP // 2, "above": 36 * RATE}


def wav_header(n_frames: int, n_channels: int, float32: bool) -> bytes:
    """RIFF/WAVE header for 32-bit float or 16-bit integer PCM."""
    audio_format, bits = (3, 32) if float32 else (1, 16)
    block = n_channels * bits // 8
    size = n_frames * block
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + size, b"WAVE", b"fmt ", 16,
        audio_format, n_channels, RATE, RATE * block, block, bits, b"data", size,
    )


def pcm_bytes(channels: np.ndarray, float32: bool) -> bytes:
    interleaved = np.clip(channels.T.reshape(-1), -1.0, 1.0)
    if float32:
        return interleaved.astype("<f4").tobytes()
    return np.clip(np.round(interleaved * 32768.0), -32768, 32767).astype("<i2").tobytes()


# Clips are synthesized in blocks of at most a few seconds so that set-up
# memory stays well below what extracting one clip takes.

def _chords(rng, n: int):
    """A progression of four-note chords with decaying harmonics, peak <= 0.6."""
    change = int(rng.uniform(1.5, 3.0) * RATE)
    for start in range(0, n, change):
        t = np.arange(min(change, n - start)) / RATE
        block = np.zeros(t.size)
        root = rng.integers(45, 70)
        for note in root + np.array([0, rng.choice([3, 4]), 7, rng.choice([10, 11, 12])]):
            f0 = 440.0 * 2.0 ** ((note - 69) / 12.0)
            for h in range(1, 5):
                if f0 * h < RATE / 2:
                    block += np.sin(2 * np.pi * f0 * h * t + rng.uniform(0, 6.3)) / h
        # four notes of four harmonics sum to at most 4 * 25/12
        yield block * np.exp(-t / rng.uniform(0.8, 2.5)) * (0.6 / (4 * 25 / 12))


def _noise(rng, n: int):
    """White noise (sigma 0.2) under a slow amplitude modulation."""
    rate = rng.uniform(0.1, 2.0)
    for start in range(0, n, RATE):
        t = np.arange(start, min(n, start + RATE)) / RATE
        yield 0.2 * rng.standard_normal(t.size) * (0.6 + 0.4 * np.sin(2 * np.pi * rate * t))


def _near_silence(rng, n: int):
    """Noise about 80 dB below full scale."""
    for start in range(0, n, RATE):
        yield 1e-4 * rng.standard_normal(min(RATE, n - start))


CONTENTS = {"chords": _chords, "noise": _noise, "quiet": _near_silence}


def clip_plan(n_clips: int):
    """(track id, content, length class, n samples, float32?) for every clip.

    Contents cycle through chords, noise and near-silence; lengths fall below,
    at and above the mel width in a cycle offset from the contents, so each
    content meets more than one length; formats alternate 16-bit stereo and
    32-bit float mono. The plan is the same for every seed.
    """
    plan = []
    for i in range(n_clips):
        length_class = ("below", "at", "above")[(i + i // 3) % 3]
        n = LENGTHS[length_class]
        plan.append((f"clip{i:02d}", list(CONTENTS)[i % 3], length_class, n, i % 2 == 1))
    return plan


def write_corpus(audio_dir: Path, seed: int, n_clips: int):
    audio_dir.mkdir(parents=True, exist_ok=True)
    for i, (track, content, _, n, float32) in enumerate(clip_plan(n_clips)):
        rng = np.random.default_rng([seed, i])
        n_channels = 1 if float32 else 2
        with open(audio_dir / f"{track}.wav", "wb") as fh:
            fh.write(wav_header(n, n_channels, float32))
            for mono in CONTENTS[content](rng, n):
                if float32:
                    channels = mono[np.newaxis, :]
                else:
                    right = 0.8 * mono + 0.2 * np.abs(mono).max() * np.tanh(
                        rng.standard_normal(mono.size))
                    channels = np.stack([mono, right])
                fh.write(pcm_bytes(channels, float32))


class Extract(Workload):
    name = "extract"
    op = f"matt extract-features --workers 1 over {CORPUS_CLIPS} clips"
    unit = "track extracted per second"
    throughput = "tracks_per_s"
    n_clips = CORPUS_CLIPS

    @property
    def tracks_per_op(self):
        return self.n_clips

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        write_config(self.config, self.seed, feature_set="1to9", epochs=1)
        write_corpus(self.work / "audio", self.seed, self.n_clips)
        lines = ["track_id,album_id,artist_id,genre,split"]
        lines += [f"{t},alb{t},art{t},{c},train" for t, c, *_ in clip_plan(self.n_clips)]
        (self.work / "metadata.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def setup_outputs(self):
        return [self.work / "metadata.csv", *sorted((self.work / "audio").glob("*.wav"))]

    def prepare(self):
        shutil.rmtree(self.work / "features", ignore_errors=True)

    def run_op(self):
        cli("extract-features", "--config", self.config, "--workers", 1)

    def tracks(self):
        return [t for t, *_ in clip_plan(self.n_clips)]

    def outputs(self):
        features = self.work / "features"
        return [features / "1to9.csv", *(features / "mel" / f"{t}.mel" for t in self.tracks())]

    def check_first(self):
        ids, width, values = read_float_table(self.work / "features" / "1to9.csv")
        require(ids == sorted(self.tracks()), "feature CSV rows != corpus tracks")
        require(width == N_FEATURES and values.shape == (len(ids), N_FEATURES),
                f"feature vectors are not {N_FEATURES} wide")
        require(bool(np.all(np.isfinite(values))), "non-finite feature value")
        mels = {}
        for track in self.tracks():
            data = (self.work / "features" / "mel" / f"{track}.mel").read_bytes()
            magic, version, n_mels, n_frames = struct.unpack_from("<4sIII", data)
            require(magic == b"MELF" and (n_mels, n_frames) == (N_MELS, MEL_FRAMES),
                    f"{track}: mel is {n_mels}x{n_frames}, not {N_MELS}x{MEL_FRAMES}")
            mel = np.frombuffer(data, dtype="<f4", offset=16)
            require(mel.size == N_MELS * MEL_FRAMES and bool(np.all(np.isfinite(mel))),
                    f"{track}: bad mel payload")
            mels[track] = float(np.abs(mel.astype(np.float64)).sum())
        self.golden["feature_abs_sums"] = family_abs_sums(ids, values)
        self.golden["mel_abs_sums"] = mels

    def finish(self, op_seconds):
        return {
            "extract_s": (float(np.median(op_seconds)), "s"),
            self.throughput: (len(self.tracks()) / float(np.median(op_seconds)), "1/s"),
        }


def family_abs_sums(ids, values) -> dict:
    """Per track, the sum of |value| over each feature family's columns."""
    from matt.dsp import FAMILY_BASE_DIMS, FAMILY_ORDER

    out = {}
    for track, row in zip(ids, values):
        pos = 0
        sums = []
        for family in FAMILY_ORDER:
            width = 7 * FAMILY_BASE_DIMS[family]
            sums.append(float(np.abs(row[pos:pos + width]).sum()))
            pos += width
        out[track] = sums
    return out


# -- infer: forward-only scoring with an independent reference -- #

def reference_probabilities(params: dict, bag: np.ndarray) -> np.ndarray:
    """Attention-MIL forward of one (m, D) bag, written apart from matt.model."""
    n_layers = sum(1 for k in params if k.startswith("enc_w"))
    h = bag
    for i in range(n_layers):
        h = h @ params[f"enc_w{i}"].T + params[f"enc_b{i}"][:, 0]
        if i < n_layers - 1:
            h = np.tanh(h)
    d = h.shape[1]
    w = params["att_w"][0]
    logits = np.tanh(h @ w[:d] + w[d:] @ params["att_q"][:, 0]) + params["att_b"][0, 0]
    a = np.exp(logits - logits.max())
    a /= a.sum()
    scores = params["out_m"] @ (h.T @ a)
    p = np.exp(scores - scores.max())
    return p / p.sum()


class Infer(Workload):
    name = "infer"
    op = "matt evaluate --mode bag, matt evaluate --mode segment, matt predict (all tracks)"
    unit = "unit scored per second (test bags + test segments + predicted tracks)"
    throughput = "units_per_s"

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        for mode in ("bag", "segment"):
            write_config(self.work / f"{mode}.ini", self.seed, hidden_dims=(INFER_HIDDEN,),
                         epochs=INFER_EPOCHS, report_dir=f"reports/{mode}")
        self.config = self.work / "bag.ini"
        cli("gen-synth", "--config", self.config)
        cli("train", "--config", self.config)

    def setup_outputs(self):
        return [self.work / "metadata.csv", self.work / "features" / "synth.csv",
                self.work / "checkpoints" / "matt.ckpt"]

    def prepare(self):
        shutil.rmtree(self.work / "reports", ignore_errors=True)
        (self.work / "predictions.csv").unlink(missing_ok=True)

    def run_op(self):
        for mode in ("bag", "segment"):
            cli("evaluate", "--config", self.work / f"{mode}.ini", "--mode", mode)
        cli("predict", "--config", self.config, "--out", self.work / "predictions.csv")

    def outputs(self):
        reports = [self.work / "reports" / m / f for m in ("bag", "segment")
                   for f in ("report.txt", "topk.csv", "pr.csv")]
        return [*reports, self.work / "predictions.csv"]

    def check_first(self):
        rows = read_metadata(self.work / "metadata.csv")
        genres = list(dict.fromkeys(r[3] for r in rows))
        ids, _, features = read_float_table(self.work / "features" / "synth.csv")
        index = {t: i for i, t in enumerate(ids)}
        params = check_checkpoint_round_trip(self.work / "checkpoints" / "matt.ckpt",
                                             self.work / "roundtrip.ckpt")

        # predict: every track, top-5 equal to the reference to printed precision
        lines = (self.work / "predictions.csv").read_text(encoding="utf-8").splitlines()
        require(len(lines) == len(rows) == len(ids), "prediction count != track count")
        top1_sum = 0.0
        for line in lines:
            track, top, top_p, top5, attention = line.split(",")
            ref = reference_probabilities(params, features[index[track]][np.newaxis, :])
            require(abs(ref.sum() - 1.0) < 1e-12, f"{track}: probabilities do not sum to 1")
            order = np.lexsort((np.arange(ref.size), -ref))[:5]
            printed = [(g, float(p)) for g, p in (item.split(":") for item in top5.split(";"))]
            require(np.allclose([p for _, p in printed], ref[order], rtol=1e-7, atol=0),
                    f"{track}: probabilities differ from the reference")
            near_tie = ref[order[0]] - ref[order[1]] < 1e-9
            require(near_tie or top == genres[order[0]], f"{track}: wrong top genre")
            require(attention == "1", f"{track}: singleton attention is {attention}")
            top1_sum += float(top_p)

        # evaluate: unit counts and overall accuracy against the reference
        test = [r for r in rows if r[4] == "test"]
        bags = {}
        for r in test:
            bags.setdefault((r[2], r[1]), []).append(r)
        units = {"bag": [(m, m[0][3]) for m in bags.values()],
                 "segment": [([r], r[3]) for r in test]}
        for mode, members in units.items():
            report = read_report(self.work / "reports" / mode / "report.txt")
            require(report["units"] == len(members), f"{mode}: unit count != test split")
            hits = sum(
                int(np.argmax(reference_probabilities(
                    params, features[[index[r[0]] for r in bag]]))) == genres.index(gold)
                for bag, gold in members
            )
            require(abs(report["overall_accuracy"] - hits / len(members)) <= 1.01 / len(members),
                    f"{mode}: accuracy differs from the reference")
            self.golden[f"{mode}_hits"] = round(report["overall_accuracy"] * len(members))
            self.golden[f"{mode}_average_precision"] = report["average_precision"]
        self.tail_top2, tail_units = read_tail_top2(
            read_report(self.work / "reports" / "bag" / "report.txt"))
        self.golden["tail_top2_hits"] = round((self.tail_top2 or 0.0) * tail_units)
        self.golden["predict_top1_sum"] = top1_sum
        self.n_units = len(lines) + sum(len(m) for m in units.values())

    def finish(self, op_seconds):
        return {
            "infer_s": (float(np.median(op_seconds)), "s"),
            self.throughput: (self.n_units / float(np.median(op_seconds)), "1/s"),
            "units": (self.n_units, "count"),
            "tail_top2": (self.tail_top2, "fraction"),
        }


WORKLOADS = {w.name: w for w in (TrainBags, TrainSegments, Extract, Infer)}


# -- stored references for the default seed -- #

def compare_golden(values: dict, golden: dict) -> list[str]:
    """Problems where ``values`` leave ``golden`` by more than reassociation can.

    Losses, probabilities and feature sums are compared to a relative 1e-6:
    the files print 9 significant digits and float32 features round at about
    6e-8. Hit counts may move by one, because a reassociated near-tie can
    flip one argmax.
    """
    problems = []
    for key, want in golden.items():
        got = values.get(key)
        if key.endswith("_hits"):
            ok = got is not None and abs(got - want) <= 1
        elif isinstance(want, dict):
            ok = got is not None and set(got) == set(want) and all(
                np.allclose(got[k], want[k], rtol=1e-6, atol=0) for k in want)
        else:
            ok = got is not None and math.isclose(got, want, rel_tol=1e-6)
        if not ok:
            problems.append(f"{key}: {got} differs from the stored {want}")
    return problems
