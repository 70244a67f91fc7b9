import json
import multiprocessing
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import matt.dataset
from matt.checkpoint import load_checkpoint, save_checkpoint
from matt.cli import _load_config, build_parser, main
from matt.config import RunConfig, load_run_config
from matt.dsp import read_feature_csv, read_mel_cache, write_feature_csv, write_wav
from matt.dsp.cache import _read_sidecar
from matt.errors import InvalidConfig
from matt.model import AGGREGATORS
from matt.numeric import ParamStore
from matt.synthetic import SynthConfig
from matt.training import TrainConfig

RATE = 44100

CONFIG_TEMPLATE = """\
[paths]
audio_dir = audio
metadata = metadata.csv
feature_dir = features
checkpoint_dir = ckpt
report_dir = reports

[run]
seed = 7

[features]
feature_set = {feature_set}

[encoder]
hidden_dims =
embedding_dim = 4

[train]
epochs = {epochs}
bags_per_batch = 4
learning_rate = 0.01
early_stop_patience = 50

[eval]
mode = bag
subsets = 100,200
ks = 1,2
"""

METADATA = """\
track_id,album_id,artist_id,genre,split
trk00,alb1,artA,rock,train
trk01,alb1,artA,rock,validation
trk02,alb2,artB,jazz,train
trk03,,artB,jazz,test
"""


@pytest.fixture()
def corpus(tmp_path):
    """Four 1.2 s tracks, two genres, one track with missing album metadata."""
    (tmp_path / "audio").mkdir()
    rng = np.random.default_rng(0)
    t = np.arange(int(1.2 * RATE)) / RATE
    for i, freq in enumerate((220.0, 247.0, 660.0, 702.0)):
        sig = 0.4 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(t.size)
        sig = np.clip(sig, -1, 1).astype(np.float32)
        channels = np.stack([sig, sig]) if i % 2 else sig[np.newaxis, :]
        write_wav(tmp_path / "audio" / f"trk{i:02d}.wav", channels, RATE, float32=(i < 2))
    (tmp_path / "metadata.csv").write_text(METADATA, encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG_TEMPLATE.format(feature_set="3+6", epochs=5), encoding="utf-8")
    return tmp_path, cfg


def run(*argv):
    return main([str(a) for a in argv])


def test_extract_features_end_to_end(corpus):
    root, cfg = corpus
    assert run("extract-features", "--config", cfg, "--workers", 2) == 0
    track_ids, values = read_feature_csv(root / "features" / "3+6.csv")
    assert track_ids == ["trk00", "trk01", "trk02", "trk03"]
    assert values.shape == (4, 189) and values.dtype == np.float32
    mel = read_mel_cache(root / "features" / "mel" / "trk00.mel")
    assert mel.shape == (96, 1360)


def test_extract_features_resumes_and_reproduces(corpus):
    root, cfg = corpus
    assert run("extract-features", "--config", cfg, "--workers", 1) == 0
    first = (root / "features" / "3+6.csv").read_bytes()
    # drop one part: only that track is recomputed, output identical
    (root / "features" / "parts" / "trk02.part").unlink()
    (root / "features" / "mel" / "trk02.mel").unlink()
    assert run("extract-features", "--config", cfg, "--workers", 1) == 0
    assert (root / "features" / "3+6.csv").read_bytes() == first


def test_missing_audio_file_fails_validation(corpus):
    root, cfg = corpus
    (root / "audio" / "trk03.wav").unlink()
    assert run("extract-features", "--config", cfg, "--workers", 1) == 1


def test_extract_features_rejects_a_geometry_without_contrast_bins(tmp_path, capsys):
    rate = 8000  # Nyquist 4000 Hz: the 6400-12800 Hz contrast band has no bin
    (tmp_path / "audio").mkdir()
    t = np.arange(rate) / rate
    write_wav(tmp_path / "audio" / "trk00.wav", 0.3 * np.sin(2 * np.pi * 440.0 * t), rate)
    (tmp_path / "metadata.csv").write_text(METADATA.splitlines()[0] + "\ntrk00,alb1,artA,rock,train\n")
    cfg = tmp_path / "run.cfg"
    text = CONFIG_TEMPLATE.format(feature_set="1to9", epochs=1)
    cfg.write_text(text.replace("[features]\n", f"[features]\nsample_rate = {rate}\n"))
    assert run("extract-features", "--config", cfg, "--workers", 1) == 1
    err = capsys.readouterr().err
    assert f"sample_rate {rate} Hz with n_fft 2048" in err
    assert "internal error" not in err
    assert not (tmp_path / "features").exists()  # rejected before anything is written


@pytest.mark.parametrize("rate", [0, -44100])
def test_extract_features_rejects_a_non_positive_sample_rate(tmp_path, capsys, rate):
    (tmp_path / "audio").mkdir()
    (tmp_path / "metadata.csv").write_text(METADATA.splitlines()[0] + "\ntrk00,alb1,artA,rock,train\n")
    cfg = tmp_path / "run.cfg"
    text = CONFIG_TEMPLATE.format(feature_set="1to9", epochs=1)
    cfg.write_text(text.replace("[features]\n", f"[features]\nsample_rate = {rate}\n"))
    assert run("extract-features", "--config", cfg, "--workers", 1) == 1
    err = capsys.readouterr().err
    assert f"sample rate must be positive, got {rate}" in err
    assert "internal error" not in err
    assert not (tmp_path / "features").exists()


def test_extract_features_pool_never_exceeds_the_remaining_tracks(corpus, monkeypatch):
    root, cfg = corpus
    sizes = []

    class InProcessPool:
        """Records the requested size and runs every task here: no process starts."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    assert run("extract-features", "--config", cfg, "--workers", 64) == 0
    for left in (("trk01", "trk02"), ("trk03",)):
        for track in left:
            (root / "features" / "parts" / f"{track}.part").unlink()
        assert run("extract-features", "--config", cfg, "--workers", 64) == 0
    assert sizes == [4, 2]  # the one-track resume runs without a pool


def test_wav_cut_inside_a_sample_fails_validation(corpus, capsys):
    root, cfg = corpus
    wav = root / "audio" / "trk01.wav"
    wav.write_bytes(wav.read_bytes()[:-1])
    assert run("extract-features", "--config", cfg, "--workers", 1) == 1
    err = capsys.readouterr().err
    assert str(wav) in err and "internal error" not in err


@pytest.mark.parametrize("track, cut", [("trk00", 800), ("trk03", 2)])
def test_wav_shorter_than_its_header_fails_validation(corpus, capsys, track, cut):
    # trk00 is float32 mono cut by 200 frames; trk03 is int16 stereo cut by one
    # sample, half a frame
    root, cfg = corpus
    wav = root / "audio" / f"{track}.wav"
    wav.write_bytes(wav.read_bytes()[:-cut])
    assert run("extract-features", "--config", cfg, "--workers", 1) == 1
    err = capsys.readouterr().err
    assert str(wav) in err and "internal error" not in err


@pytest.mark.parametrize(
    "command",
    [["build-bags"], ["extract-features", "--workers", 1]],
    ids=["build-bags", "extract-features"],
)
def test_header_only_metadata_fails_validation(corpus, capsys, command):
    root, cfg = corpus
    (root / "metadata.csv").write_text(METADATA.splitlines()[0] + "\n", encoding="utf-8")
    assert run(*command, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert f"{root / 'metadata.csv'}: no rows after the header" in err
    assert not (root / "reports").exists() and not (root / "features").exists()


def test_build_bags_writes_csv(corpus):
    root, cfg = corpus
    assert run("build-bags", "--config", cfg) == 0
    lines = (root / "reports" / "bags.csv").read_text().splitlines()
    assert lines[0] == "artist_id,album_id,split,genre,track_ids"
    assert len(lines) == 5  # four bags: split purity + singleton fallback


def test_train_evaluate_predict_workflow(corpus):
    root, cfg = corpus
    assert run("extract-features", "--config", cfg, "--workers", 1) == 0
    assert run("train", "--config", cfg) == 0
    assert (root / "ckpt" / "matt.ckpt").exists()
    assert (root / "ckpt" / "matt_trainlog.csv").exists()

    assert run("evaluate", "--config", cfg) == 0
    report = (root / "reports" / "report.txt").read_text()
    assert "overall_accuracy" in report
    assert (root / "reports" / "topk.csv").exists()
    assert (root / "reports" / "pr.csv").exists()

    out = root / "pred.csv"
    assert run("predict", "--config", cfg, "--tracks", "trk03", "--out", out) == 0
    line = out.read_text().strip()
    fields = line.split(",")
    assert fields[0] == "trk03"
    assert fields[1] in ("rock", "jazz")
    assert 0.0 < float(fields[2]) <= 1.0


def test_train_segment_level_baseline(corpus):
    root, cfg = corpus
    assert run("extract-features", "--config", cfg, "--workers", 1) == 0
    assert run("train", "--config", cfg, "--segment-level") == 0
    assert (root / "ckpt" / "baseline.ckpt").exists()


def test_train_segment_level_ignores_the_aggregator(tmp_path):
    """Every segment is its own bag, weighted exactly 1 by either aggregator:
    --segment-level writes the same checkpoint and train log with each."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=4)
        + "\n[synth]\nn_genres = 3\nhead_count = 8\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 4\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg) == 0
    written = {}
    for aggregator in AGGREGATORS:
        assert run("train", "--config", cfg, "--segment-level", "--aggregator", aggregator) == 0
        log = (tmp_path / "ckpt" / "baseline_trainlog.csv").read_text(encoding="utf-8")
        written[aggregator] = (
            (tmp_path / "ckpt" / "baseline.ckpt").read_bytes(),
            [line.rsplit(",", 1)[0] for line in log.splitlines()],  # without seconds
        )
    assert len(written["matt"][1]) == 5
    assert written["matt"] == written["mean"]


def test_scoring_singletons_ignores_the_aggregator(tmp_path, monkeypatch):
    """Segment-mode evaluate and predict score one-member bags, weighted
    exactly 1 by either aggregator: one matt.ckpt writes the same reports
    and predictions with each."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=4)
        + "\n[synth]\nn_genres = 3\nhead_count = 8\nfeature_dim = 5\n"
        + "bag_size_min = 2\nbag_size_max = 4\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)  # predict's --out is relative
    assert run("gen-synth", "--config", cfg) == 0
    assert run("train", "--config", cfg, "--aggregator", "matt") == 0
    written = {}
    for aggregator in AGGREGATORS:
        assert run("evaluate", "--config", cfg, "--mode", "segment",
                   "--aggregator", aggregator) == 0
        out = f"predictions_{aggregator}.csv"
        assert run("predict", "--config", cfg, "--out", out, "--aggregator", aggregator) == 0
        written[aggregator] = [
            (tmp_path / "reports" / name).read_bytes()
            for name in ("report.txt", "topk.csv", "pr.csv")
        ] + [(tmp_path / out).read_bytes()]
    assert b"mode: segment" in written["matt"][0]
    assert written["matt"] == written["mean"]


@pytest.mark.parametrize("command", ["gen-synth", "train", "grad-check"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_negative_seed_fails_validation(tmp_path, capsys, command, source):
    cfg = tmp_path / "run.cfg"
    text = CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
    if source == "config":
        text = text.replace("seed = 7\n", "seed = -1\n")
    cfg.write_text(text, encoding="utf-8")
    flags = ("--seed", "-1") if source == "flag" else ()
    assert run(command, "--config", cfg, *flags) == 1
    assert capsys.readouterr().err == "matt: seed must be >= 0, got -1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_evaluate_segment_mode_flag(corpus):
    root, cfg = corpus
    assert run("extract-features", "--config", cfg, "--workers", 1) == 0
    assert run("train", "--config", cfg, "--aggregator", "matt") == 0
    assert run("evaluate", "--config", cfg, "--mode", "segment") == 0
    assert "mode: segment" in (root / "reports" / "report.txt").read_text()


def test_evaluate_segment_mode_builds_no_album_bags(tmp_path, capsys):
    """Segment mode reads no album or artist metadata: a test album that mixes
    genres stops bag mode under the strict label policy, but not segment mode."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2).replace(
            "[train]\n", "[train]\nlabel_policy = strict\n")
        + "\n[synth]\nn_genres = 3\nhead_count = 6\nfeature_dim = 5\n"
        + "bag_size_min = 2\nbag_size_max = 3\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 0
    meta = tmp_path / "metadata.csv"
    lines = meta.read_text(encoding="utf-8").splitlines()
    # relabel one member of the first test album with another genre
    at = next(i for i, ln in enumerate(lines) if ln.endswith(",test"))
    track, album, artist, genre, split = lines[at].split(",")
    other = next(ln.split(",")[3] for ln in lines[1:] if ln.split(",")[3] != genre)
    lines[at] = ",".join((track, album, artist, other, split))
    meta.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()

    assert run("evaluate", "--config", cfg, "--mode", "bag") == 1
    assert "mixes genres" in capsys.readouterr().err
    assert run("evaluate", "--config", cfg, "--mode", "segment") == 0
    report = (tmp_path / "reports" / "report.txt").read_text(encoding="utf-8")
    assert "mode: segment" in report


def test_grad_check_command(corpus):
    _, cfg = corpus
    assert run("grad-check", "--config", cfg) == 0


def test_gen_synth_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
        + "\n[synth]\nn_genres = 3\nhead_count = 6\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 3\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg, "--seed", 7) == 0
    meta1 = (tmp_path / "metadata.csv").read_bytes()
    feat1 = (tmp_path / "features" / "synth.csv").read_bytes()
    manifest = json.loads((tmp_path / "features" / "synth.json").read_text())
    assert manifest["seed"] == 7
    assert run("gen-synth", "--config", cfg, "--seed", 7) == 0
    assert (tmp_path / "metadata.csv").read_bytes() == meta1
    assert (tmp_path / "features" / "synth.csv").read_bytes() == feat1


def test_gen_synth_train_evaluate_pipeline(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=6)
        + "\n[synth]\nn_genres = 3\nhead_count = 8\nfeature_dim = 5\n"
        + "bag_size_min = 2\nbag_size_max = 4\nnoise_rate = 0.1\nzipf_exponent = 0.7\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 0
    assert run("evaluate", "--config", cfg) == 0
    assert run("evaluate", "--config", cfg, "--mode", "segment") == 0


def test_evaluate_segment_mode_builds_the_segment_view_once(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
        + "\n[synth]\nn_genres = 3\nhead_count = 6\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 3\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 0
    original = matt.dataset.segment_bags
    calls = []

    def counting(table):
        calls.append(table)
        return original(table)

    # every matt module that bound segment_bags at import calls the counter
    for name, module in list(sys.modules.items()):
        if name.startswith("matt") and getattr(module, "segment_bags", None) is original:
            monkeypatch.setattr(module, "segment_bags", counting)
    assert run("evaluate", "--config", cfg, "--mode", "segment") == 0
    assert len(calls) == 1


def test_evaluate_on_a_truncated_checkpoint_fails_validation(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
        + "\n[synth]\nn_genres = 3\nhead_count = 6\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 3\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 0
    ckpt = tmp_path / "ckpt" / "matt.ckpt"
    good = ckpt.read_bytes()
    for cut in (10, 16, 24):  # the header, a parameter name, its shape
        ckpt.write_bytes(good[:cut])
        capsys.readouterr()
        assert run("evaluate", "--config", cfg) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "internal error" not in err


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_a_checkpoint_with_a_nan_fails_validation(tmp_path, capsys, command):
    """One NaN in out_m used to score as Top@1 = 1 and print as nan."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
        + "\n[synth]\nn_genres = 3\nhead_count = 6\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 3\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 0
    ckpt = tmp_path / "ckpt" / "matt.ckpt"
    store = ParamStore()
    for name, value in load_checkpoint(ckpt).items():
        store.add(name, value)
    store.values["out_m"][1, 0] = np.nan
    save_checkpoint(ckpt, store)
    capsys.readouterr()
    out = ("--out", tmp_path / "p.csv") if command == "predict" else ()
    assert run(command, "--config", cfg, *out) == 1
    err = capsys.readouterr().err
    assert err == f"matt: {ckpt}: parameter 'out_m' holds a non-finite value\n"
    assert not (tmp_path / "reports").exists() and not (tmp_path / "p.csv").exists()


def test_an_early_stop_patience_below_one_fails_validation(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    text = CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
    cfg.write_text(text.replace("early_stop_patience = 50", "early_stop_patience = -3"),
                   encoding="utf-8")
    assert run("gen-synth", "--config", cfg) == 1
    assert capsys.readouterr().err == "matt: early_stop_patience must be >= 1, got -3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("target", ["feature-cache", "checkpoint"])
def test_a_directory_in_place_of_an_input_file_fails_validation(tmp_path, capsys, target):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
        + "\n[synth]\nn_genres = 3\nhead_count = 6\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 3\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 0
    if target == "feature-cache":
        path = tmp_path / "features" / "synth.csv"
        path.unlink()
        path.mkdir()
        argv = ["evaluate", "--config", cfg]
    else:
        path = tmp_path / "ckpt"
        argv = ["evaluate", "--config", cfg, "--checkpoint", path]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "internal error" not in err


def test_unknown_command_and_flag_exit_one(capsys):
    assert pytest.raises(SystemExit, run, "frobnicate").value.code == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert pytest.raises(SystemExit, run, "train", "--config", "x", "--bogus").value.code == 1


def test_missing_config_fails_validation(tmp_path):
    assert run("train", "--config", tmp_path / "none.cfg") == 1


def test_missing_features_fail_validation(corpus):
    _, cfg = corpus
    assert run("train", "--config", cfg) == 1  # extract-features not run


def test_help_documents_every_flag(capsys):
    parser = build_parser()
    sub_actions = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    commands = sub_actions[0].choices
    assert set(commands) == {
        "extract-features", "build-bags", "gen-synth", "train",
        "evaluate", "predict", "grad-check",
    }
    for name, sub in commands.items():
        help_text = sub.format_help()
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in help_text, f"{name}: {opt} undocumented"


def test_invalid_config_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="nope", epochs=1), encoding="utf-8"
    )
    assert run("build-bags", "--config", cfg) == 1


# -- config file reading -- #

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config(tmp_path) -> Path:
    """The README's example config block, written next to nothing else."""
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    path = tmp_path / "run.cfg"
    path.write_text(block.group(1), encoding="utf-8")
    return path


def test_readme_example_config_loads(tmp_path):
    # the settings it gave before `#` became its comment marker
    path = readme_config(tmp_path)
    cfg = load_run_config(path)
    assert cfg == RunConfig(
        audio_dir=tmp_path / "audio",
        metadata=tmp_path / "metadata.csv",
        feature_dir=tmp_path / "features",
        checkpoint_dir=tmp_path / "checkpoints",
        report_dir=tmp_path / "reports",
        feature_set="1to9",
        sample_rate=44100,
        n_fft=2048,
        hop=1024,
        label_policy="majority",
        eval_mode="bag",
        subsets=(100, 200),
        ks=(2, 3, 5),
        train=TrainConfig(
            epochs=50,
            bags_per_batch=32,
            optimizer="adam",
            learning_rate=0.001,
            seed=7,
            early_stop_patience=10,
            aggregator="matt",
            hidden_dims=(),
            embedding_dim=16,
            class_weighting=False,
        ),
        synth=SynthConfig(
            n_genres=16,
            zipf_exponent=1.2,
            head_count=400,
            bag_size_range=(3, 10),
            feature_dim=32,
            centroid_separation=1.0,
            noise_rate=0.4,
        ),
    )
    # the [run] seed is the generator's seed too
    assert run("gen-synth", "--config", path) == 0
    manifest = json.loads((tmp_path / "features" / "synth.json").read_text())
    assert manifest == {
        "n_genres": 16,
        "zipf_exponent": 1.2,
        "head_count": 400,
        "bag_size_range": [3, 10],
        "feature_dim": 32,
        "centroid_separation": 1.0,
        "noise_rate": 0.4,
        "seed": 7,
    }


def test_every_config_key_reaches_its_field(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "[paths]\naudio_dir = a\nmetadata = m.csv\nfeature_dir = f\n"
        "checkpoint_dir = c\nreport_dir = r\n"
        "[run]\nseed = 11\n"
        "[features]\nfeature_set = 3+6\nsample_rate = 22050\nn_fft = 1024\nhop = 512\n"
        "[encoder]\nhidden_dims = 8, 4\nembedding_dim = 5\n"
        "[train]\nepochs = 3\nbags_per_batch = 2\noptimizer = sgd\nlearning_rate = 0.5\n"
        "early_stop_patience = 4\nlabel_policy = strict\naggregator = mean\n"
        "class_weighting = yes\n"
        "[eval]\nmode = segment\nsubsets = 10\nks = 1,4\n"
        "[synth]\nn_genres = 5\nzipf_exponent = 2\nhead_count = 9\nbag_size_min = 2\n"
        "bag_size_max = 6\nfeature_dim = 3\ncentroid_separation = 0.5\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    cfg = load_run_config(path)
    assert (cfg.audio_dir, cfg.metadata, cfg.feature_dir, cfg.checkpoint_dir, cfg.report_dir) == (
        tmp_path / "a", tmp_path / "m.csv", tmp_path / "f", tmp_path / "c", tmp_path / "r"
    )
    assert (cfg.feature_set, cfg.sample_rate, cfg.n_fft, cfg.hop) == ("3+6", 22050, 1024, 512)
    assert (cfg.label_policy, cfg.eval_mode, cfg.subsets, cfg.ks) == (
        "strict", "segment", (10,), (1, 4)
    )
    assert cfg.feature_config().stft.n_fft == 1024
    assert cfg.train == TrainConfig(
        epochs=3, bags_per_batch=2, optimizer="sgd", learning_rate=0.5, seed=11,
        early_stop_patience=4, aggregator="mean", hidden_dims=(8, 4), embedding_dim=5,
        class_weighting=True,
    )
    assert cfg.synth == SynthConfig(
        n_genres=5, zipf_exponent=2.0, head_count=9, bag_size_range=(2, 6), feature_dim=3,
        centroid_separation=0.5, noise_rate=0.1,
    )
    assert isinstance(cfg.synth.zipf_exponent, float)


@pytest.mark.parametrize(
    "text, names",
    [
        ("[train]\nepochs = two\n", "[train] epochs"),
        ("[encoder]\nhidden_dims = 8,x\n", "[encoder] hidden_dims"),
        ("[train]\nlearning_rate = fast\n", "[train] learning_rate"),
        # float() reads these, but no setting is meant to be non-finite
        ("[synth]\nzipf_exponent = nan\n", "[synth] zipf_exponent"),
        ("[train]\nlearning_rate = inf\n", "[train] learning_rate"),
        ("[train]\nlearning_rate = 1e999\n", "[train] learning_rate"),
        ("[train]\nclass_weighting = maybe\n", "[train] class_weighting"),
        ("[eval]\nks = 1;2\n", "[eval] ks"),
        ("[synth]\nbag_size_max = 4.5\n", "[synth] bag_size_max"),
        ("[paths]\nreport_dir = 100%\n", "[paths] report_dir"),
        ("epochs = 3\n", "no section headers"),
        ("[train]\nlearning_rte = 0.5\n", "[train] learning_rte: unknown key"),
        ("[bogus]\n", "unknown section [bogus]"),
        # a [DEFAULT] key is a key of every section, and with no section of none
        ("[DEFAULT]\nseed = 3\n[run]\n[paths]\n", "[paths] seed: unknown key"),
        ("[DEFAULT]\nepochs = 3\n", "[DEFAULT] epochs: unknown key"),
    ],
)
def test_malformed_config_value_fails_validation(tmp_path, capsys, text, names):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InvalidConfig) as info:
        load_run_config(path)
    assert str(path) in str(info.value)
    assert names in str(info.value)
    assert run("build-bags", "--config", path) == 1
    assert "internal error" not in capsys.readouterr().err


def test_an_empty_config_file_gives_the_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("", encoding="utf-8")
    assert load_run_config(path).train == TrainConfig()


def test_flags_override_config_settings(corpus):
    _, cfg_path = corpus
    args = build_parser().parse_args(
        ["train", "--config", str(cfg_path), "--seed", "3", "--epochs", "9",
         "--aggregator", "mean", "--feature-set", "1to9"]
    )
    cfg = _load_config(args)
    assert (cfg.train.seed, cfg.train.epochs, cfg.train.aggregator) == (3, 9, "mean")
    assert cfg.feature_set == "1to9"
    assert cfg.train.learning_rate == 0.01  # untouched keys keep the file's value
    evaluate = _load_config(build_parser().parse_args(
        ["evaluate", "--config", str(cfg_path), "--mode", "segment"]
    ))
    assert (evaluate.eval_mode, evaluate.label_policy) == ("segment", "majority")
    bags = _load_config(build_parser().parse_args(
        ["build-bags", "--config", str(cfg_path), "--label-policy", "strict"]
    ))
    assert (bags.label_policy, bags.eval_mode) == ("strict", "bag")


# -- bad feature caches -- #

def test_non_numeric_feature_value_fails_validation(corpus, capsys):
    root, cfg = corpus
    (root / "features").mkdir()
    (root / "features" / "3+6.csv").write_text(
        "track_id,a,b\ntrk00,1.0,2.0\ntrk01,1.0,abc\n", encoding="utf-8"
    )
    assert run("train", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert "3+6.csv" in err and "trk01" in err


def test_duplicate_feature_row_fails_validation(corpus, capsys):
    root, cfg = corpus
    (root / "features").mkdir()
    (root / "features" / "3+6.csv").write_text(
        "track_id,a,b\ntrk00,1.0,2.0\ntrk01,1.0,2.0\ntrk00,3.0,4.0\n", encoding="utf-8"
    )
    assert run("train", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert "3+6.csv: duplicate track 'trk00'" in err


@pytest.mark.parametrize("target", ["metadata.csv", "features/3+6.csv"])
def test_non_utf8_input_fails_validation(corpus, capsys, target):
    root, cfg = corpus
    (root / "features").mkdir()
    (root / "features" / "3+6.csv").write_text("track_id,a\ntrk00,1.0\n", encoding="utf-8")
    path = root / target
    path.write_bytes(path.read_bytes().replace(b"trk00", b"trk\xe90"))
    assert run("train", "--config", cfg) == 1
    err = capsys.readouterr().err
    assert f"{target}: line 2 is not UTF-8 (byte 0xe9)" in err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "first_cell, message",
    [
        (b"abc", "parts: track 'trk01': 'abc' is not a number"),
        (b"1\xe9", "trk01.part: line 1 is not UTF-8 (byte 0xe9)"),
    ],
    ids=["non-numeric", "non-utf8"],
)
def test_corrupt_part_on_resume_fails_validation(corpus, capsys, first_cell, message):
    root, cfg = corpus
    assert run("extract-features", "--config", cfg, "--workers", 1) == 0
    part = root / "features" / "parts" / "trk01.part"
    track_id, _, values = part.read_bytes().partition(b",")
    part.write_bytes(track_id + b"," + first_cell + b"," + values.partition(b",")[2])
    capsys.readouterr()
    assert run("extract-features", "--config", cfg, "--workers", 1) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "internal error" not in err


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_header_only_feature_cache_fails_validation(corpus, capsys, command):
    root, cfg = corpus
    assert run("extract-features", "--config", cfg, "--workers", 1) == 0
    assert run("train", "--config", cfg, "--epochs", 1) == 0
    csv = root / "features" / "3+6.csv"
    csv.write_text(csv.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    assert run(command, "--config", cfg) == 1
    assert "3+6.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, split",
    [
        (("train",), "validation"),
        (("train", "--segment-level"), "validation"),
        (("evaluate", "--mode", "bag"), "test"),
        (("evaluate", "--mode", "segment"), "test"),
        (("predict", "--out", "predictions.csv", "--tracks"), "test"),
    ],
    ids=["train", "train-segment-level", "evaluate-bag", "evaluate-segment", "predict"],
)
def test_missing_feature_row_fails_validation(tmp_path, capsys, monkeypatch, command, split):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
        + "\n[synth]\nn_genres = 3\nhead_count = 8\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 4\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)  # predict's --out is relative
    assert run("gen-synth", "--config", cfg) == 0
    if command[0] != "train":
        assert run("train", "--config", cfg) == 0
    trained = sorted((tmp_path / "ckpt").glob("*")) if command[0] != "train" else []
    rows = (tmp_path / "metadata.csv").read_text(encoding="utf-8").splitlines()[1:]
    track = [r.split(",")[0] for r in rows if r.endswith("," + split)][-1]
    csv = tmp_path / "features" / "synth.csv"
    lines = csv.read_text(encoding="utf-8").splitlines()
    kept = [ln for ln in lines if not ln.startswith(track + ",")]
    assert len(kept) == len(lines) - 1
    csv.write_text("\n".join(kept) + "\n", encoding="utf-8")
    capsys.readouterr()

    argv = [*command, track] if command[0] == "predict" else command
    assert run(*argv, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert err == f"matt: no features for segment {track!r}\n"
    # rejected before any work: no checkpoint, report or prediction written
    assert sorted((tmp_path / "ckpt").glob("*")) == trained
    assert not (tmp_path / "reports").exists()
    assert not (tmp_path / "predictions.csv").exists()


@pytest.mark.parametrize("source", ["text", "sidecar"])
@pytest.mark.parametrize(
    "command, split",
    [
        (("train",), "train"),
        (("evaluate", "--mode", "bag"), "test"),
        (("predict", "--out", "predictions.csv"), "test"),
    ],
    ids=["train", "evaluate", "predict"],
)
def test_a_non_finite_feature_value_fails_validation(tmp_path, capsys, monkeypatch, command,
                                                     split, source):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
        + "\n[synth]\nn_genres = 3\nhead_count = 8\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 4\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)  # predict's --out is relative
    assert run("gen-synth", "--config", cfg) == 0
    if command[0] != "train":
        assert run("train", "--config", cfg) == 0
    trained = sorted((tmp_path / "ckpt").glob("*")) if command[0] != "train" else []
    rows = (tmp_path / "metadata.csv").read_text(encoding="utf-8").splitlines()[1:]
    track = [r.split(",")[0] for r in rows if r.endswith("," + split)][-1]
    csv = tmp_path / "features" / "synth.csv"
    if source == "text":
        # an edited CSV no longer matches its sidecar, so it is parsed as text
        lines = csv.read_text(encoding="utf-8").splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(track + ","))
        lines[at] = ",".join([track, "nan", *lines[at].split(",")[2:]])
        csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert _read_sidecar(csv) is None
    else:
        ids, values = read_feature_csv(csv)
        values[ids.index(track), 2] = np.inf
        write_feature_csv(csv, [f"synth_dim_{i}" for i in range(5)], ids, values)
        assert _read_sidecar(csv) is not None
    capsys.readouterr()

    assert run(*command, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert err == f"matt: {csv}: track {track!r} has a non-finite feature value\n"
    # rejected before any work: no checkpoint, report or prediction written
    assert sorted((tmp_path / "ckpt").glob("*")) == trained
    assert not (tmp_path / "reports").exists()
    assert not (tmp_path / "predictions.csv").exists()


def trained_synth(tmp_path):
    """A config over a small gen-synth dataset with its checkpoint trained."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        CONFIG_TEMPLATE.format(feature_set="synth", epochs=2)
        + "\n[synth]\nn_genres = 3\nhead_count = 6\nfeature_dim = 5\n"
        + "bag_size_min = 1\nbag_size_max = 3\nnoise_rate = 0.1\n",
        encoding="utf-8",
    )
    assert run("gen-synth", "--config", cfg) == 0
    assert run("train", "--config", cfg) == 0
    return cfg


def tree(root: Path) -> dict:
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_an_unwritable_predictions_path_fails_validation(tmp_path, capsys, target):
    cfg = trained_synth(tmp_path)
    out = tmp_path / "missing" / "p.csv" if target == "missing-directory" else tmp_path / "out"
    if target == "directory":
        out.mkdir()
    before = tree(tmp_path)
    capsys.readouterr()
    assert run("predict", "--config", cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"matt: cannot write predictions {out}: ") and "internal error" not in err
    assert tree(tmp_path) == before  # no partial file


@pytest.mark.parametrize("command, directory", [("evaluate", "reports"), ("train", "ckpt")])
def test_a_file_in_place_of_an_output_directory_fails_validation(tmp_path, capsys, command,
                                                                  directory):
    cfg = trained_synth(tmp_path)
    path = tmp_path / directory
    if path.is_dir():
        for p in path.iterdir():
            p.unlink()
        path.rmdir()
    path.write_text("not a directory\n", encoding="utf-8")
    before = tree(tmp_path)
    capsys.readouterr()
    assert run(command, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert err == f"matt: cannot create directory {path}: File exists\n"
    assert tree(tmp_path) == before


@pytest.mark.parametrize("command, output", [
    ("train", "ckpt/matt.ckpt"),
    ("train", "ckpt/matt_trainlog.csv"),
    ("evaluate", "reports/pr.csv"),
    ("build-bags", "reports/bags.csv"),
    ("gen-synth", "metadata.csv"),
    ("gen-synth", "features/synth.csv"),
    ("gen-synth", "features/synth.csv.bin"),
    ("gen-synth", "features/synth.json"),
])
def test_a_directory_in_place_of_an_output_file_fails_before_the_work(tmp_path, capsys,
                                                                      monkeypatch, command,
                                                                      output):
    cfg = trained_synth(tmp_path)
    if command == "train":
        for old in (tmp_path / "ckpt").iterdir():
            old.unlink()  # so a checkpoint or log written before the failure shows
    path = tmp_path / output
    path.unlink(missing_ok=True)
    path.mkdir(parents=True)
    before = tree(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError(f"{command} ran its work")

    work = {"train": "train", "evaluate": "evaluate", "build-bags": "build_bags",
            "gen-synth": "generate_synthetic"}[command]
    monkeypatch.setattr(f"matt.cli.{work}", no_work)
    capsys.readouterr()
    assert run(command, "--config", cfg) == 1
    err = capsys.readouterr().err
    assert err == f"matt: cannot write {path}: Is a directory\n"
    assert tree(tmp_path) == before  # no output file, and no other


@pytest.mark.parametrize("output", ["3+6.csv", "3+6.csv.bin"])
def test_extract_features_checks_its_output_files_before_the_work(corpus, capsys, monkeypatch,
                                                                  output):
    root, cfg = corpus
    path = root / "features" / output
    path.mkdir(parents=True)
    before = tree(root)

    def no_work(*args, **kwargs):
        raise AssertionError("extract-features ran its work")

    monkeypatch.setattr("matt.cli._extract_one", no_work)
    capsys.readouterr()
    assert run("extract-features", "--config", cfg, "--workers", 1) == 1
    err = capsys.readouterr().err
    assert err == f"matt: cannot write {path}: Is a directory\n"
    assert tree(root) == before  # no parts, no mel caches and no .tmp file
