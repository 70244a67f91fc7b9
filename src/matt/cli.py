"""Command-line surface for the pipeline.

Commands: extract-features, build-bags, gen-synth, train, evaluate, predict,
grad-check. Every command takes --config pointing at a plain-text config file;
flags override config keys. All randomness derives from the single configured
seed, and artifact files are reproducible byte for byte from (inputs, config,
seed). Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import KEYS, RunConfig, load_run_config, with_keys
from .dataset import (LABEL_POLICIES, align_features, build_bags, load_metadata, save_bags_csv,
                      segment_bags)
from .dsp import (
    downmix_and_validate,
    extract_feature_sets,
    feature_set_columns,
    feature_set_length,
    read_feature_csv,
    read_wav,
    write_feature_csv,
    write_mel_cache,
)
from .dsp.cache import format_feature_rows, parse_feature_rows, sidecar_path
from .dsp.summarize import set_columns
from .errors import (
    EmptyFeature,
    NonFiniteFeature,
    NotUtf8,
    RuntimeFailure,
    SampleRateMismatch,
    ValidationError,
)
from .evaluation import EVAL_MODES, evaluate
from .model import AGGREGATORS
from .numeric import finite_difference_check
from .synthetic import generate_synthetic
from .textfmt import BLOCK, WIDTH, float_cells, join_rows, side_by_side, text_cells
from .training import new_model, nll_losses, train

log = logging.getLogger("matt")

LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class CliParser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def worker_count(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 worker, got {text}")
    return int(text)


def tolerance(text: str) -> float:
    if not 0 < float(text) < math.inf:  # nan fails every comparison
        raise argparse.ArgumentTypeError(f"need a finite tolerance > 0, got {text}")
    return float(text)


def build_parser() -> CliParser:
    parser = CliParser(prog="matt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"matt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--seed", type=int, help="override the configured seed")
        return p

    p = add("extract-features", "extract and cache audio features for every track")
    p.add_argument("--feature-set", help="feature set to assemble (default from config)")
    p.add_argument("--workers", type=worker_count, default=os.cpu_count(),
                   help="parallel extraction workers (default: logical cores)")

    p = add("build-bags", "group segments into album-artist bags and write bags.csv")
    p.add_argument("--label-policy", choices=LABEL_POLICIES,
                   help="bag label policy (default from config)")

    add("gen-synth", "generate the synthetic long-tail dataset and feature store")

    p = add("train", "train a genre classifier on bags")
    p.add_argument("--aggregator", choices=AGGREGATORS,
                   help="bag aggregation (default from config)")
    p.add_argument("--segment-level", action="store_true",
                   help="train the per-segment baseline (every segment its own bag)")
    p.add_argument("--epochs", type=int, help="override epoch count")
    p.add_argument("--feature-set", help="feature set to train on (default from config)")

    p = add("evaluate", "evaluate a checkpoint and write report files")
    p.add_argument("--mode", choices=EVAL_MODES, help="evaluation unit")
    p.add_argument("--checkpoint", help="checkpoint path (default from train)")
    p.add_argument("--feature-set", help="feature set (default from config)")
    p.add_argument("--aggregator", choices=AGGREGATORS)

    p = add("predict", "write per-track predictions from a checkpoint")
    p.add_argument("--checkpoint", help="checkpoint path (default from train)")
    p.add_argument("--tracks", help="comma-separated track ids (default: all cached)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--feature-set", help="feature set (default from config)")
    p.add_argument("--aggregator", choices=AGGREGATORS)

    p = add("grad-check", "finite-difference check the model gradients")
    p.add_argument("--feature-set", help="feature set fixing the input width")
    p.add_argument("--tolerance", type=tolerance, default=1e-4)
    return parser


def _load_config(args) -> RunConfig:
    """The config file, then each flag named like a config key that was given."""
    flags = {key: getattr(args, key) for key in KEYS if getattr(args, key, None) is not None}
    return with_keys(load_run_config(args.config), flags)


def _make_dirs(*dirs: Path, files=()):
    """Set up a command's outputs before its work: check that no output
    file's path is a directory, then create each output directory and the
    directory of each output file. A path that fails is named in a
    ValidationError (exit 1), and a file path that is a directory fails
    before any directory is made."""
    for path in files:
        if path.is_dir():
            raise ValidationError(f"cannot write {path}: Is a directory")
    for path in (*dirs, *(path.parent for path in files)):
        try:
            path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(f"cannot create directory {path}: {exc.strerror}") from exc


# -- extract-features -- #

def _extract_one(task) -> str:
    """Worker: read one WAV, write its feature part and mel cache atomically."""
    track_id, wav_path, part_path, mel_path, (sample_rate, stft_cfg) = task
    channels, rate = read_wav(wav_path)
    if rate != sample_rate:
        raise SampleRateMismatch(f"{wav_path}: {rate} Hz, configured {sample_rate} Hz")
    signal = downmix_and_validate(channels, rate)
    del channels  # frees a stereo track's decoded samples before extraction
    result = extract_feature_sets(signal, stft_cfg)
    vector = result.vector.astype(np.float32)
    tmp = f"{part_path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(format_feature_rows([track_id], vector[np.newaxis, :]))
    os.replace(tmp, part_path)
    write_mel_cache(mel_path, result.mel)
    return track_id


def cmd_extract_features(args) -> int:
    cfg = _load_config(args)
    if cfg.feature_set == "synth":
        raise ValidationError("feature_set 'synth' comes from gen-synth, not extraction")
    table = load_metadata(cfg.metadata)
    parts_dir = cfg.feature_dir / "parts"
    mel_dir = cfg.feature_dir / "mel"
    out = cfg.feature_csv()
    _make_dirs(parts_dir, mel_dir, files=(out, sidecar_path(out)))

    tasks = []
    for track_id in table.track_ids:
        part = parts_dir / f"{track_id}.part"
        mel = mel_dir / f"{track_id}.mel"
        if part.exists() and mel.exists():
            continue  # resume: already extracted
        wav = cfg.audio_dir / f"{track_id}.wav"
        if not wav.exists():
            raise ValidationError(f"missing audio file {wav}")
        tasks.append((track_id, str(wav), str(part), str(mel), (cfg.sample_rate, cfg.stft)))

    if tasks:
        workers = min(args.workers or 1, len(tasks))
        if workers == 1:
            for task in tasks:
                _extract_one(task)
        else:
            import multiprocessing

            with multiprocessing.Pool(workers) as pool:
                for _ in pool.imap_unordered(_extract_one, tasks):
                    pass
    log.info("extracted %d new tracks", len(tasks))

    # assemble the requested set from the per-track parts
    lines = []
    for track_id in table.track_ids:
        part = parts_dir / f"{track_id}.part"
        try:
            lines.append(part.read_text(encoding="utf-8").strip())
        except UnicodeDecodeError:
            raise NotUtf8.in_file(part) from None
    track_ids, vectors = parse_feature_rows(lines, feature_set_length("1to9"), parts_dir)
    write_feature_csv(out, feature_set_columns(cfg.feature_set), track_ids,
                      vectors[:, set_columns(cfg.feature_set)])
    print(f"wrote {out} ({len(track_ids)} tracks) and {len(track_ids)} mel caches")
    return 0


# -- other commands -- #

def cmd_build_bags(args) -> int:
    cfg = _load_config(args)
    table = load_metadata(cfg.metadata)
    out = cfg.report_dir / "bags.csv"
    _make_dirs(files=(out,))
    bags = build_bags(table, label_policy=cfg.label_policy)
    save_bags_csv(out, bags)
    sizes = np.diff(bags.starts, append=len(bags.rows))
    print(
        f"wrote {out}: {len(sizes)} bags over {len(bags.rows)} segments "
        f"(max bag {sizes.max()}, genres {len(table.vocabulary)})"
    )
    return 0


def cmd_gen_synth(args) -> int:
    cfg = _load_config(args)
    synth = replace(cfg.synth, seed=cfg.train.seed)
    csv, manifest_path = cfg.feature_dir / "synth.csv", cfg.feature_dir / "synth.json"
    _make_dirs(files=(cfg.metadata, csv, sidecar_path(csv), manifest_path))
    data = generate_synthetic(synth)

    cfg.metadata.write_text("\n".join(data.metadata_lines) + "\n", encoding="utf-8")

    columns = [f"synth_dim_{i}" for i in range(synth.feature_dim)]
    write_feature_csv(csv, columns, data.bags.table.track_ids, data.features)
    manifest = dict(sorted(vars(synth).items()))
    manifest["bag_size_range"] = list(synth.bag_size_range)
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                             encoding="utf-8")
    print(
        f"wrote {cfg.metadata} ({len(data.bags.rows)} segments, "
        f"{len(data.bags.starts)} bags) and {csv}"
    )
    return 0


def _load_features(cfg: RunConfig):
    path = cfg.feature_csv()
    if not path.exists():
        writer = "gen-synth" if cfg.feature_set == "synth" else "extract-features"
        raise ValidationError(f"feature cache {path} not found; run {writer}")
    track_ids, values = read_feature_csv(path)
    if not track_ids:
        raise EmptyFeature(f"feature cache {path} has a header but no tracks")
    # a float64 sum of float32 values cannot overflow, so it is finite exactly
    # when every value is; only a non-finite sum needs the row scan
    if not math.isfinite(values.sum(dtype=np.float64)):
        row = int(np.argmin(np.isfinite(values).all(axis=1)))
        raise NonFiniteFeature(
            f"{path}: track {track_ids[row]!r} has a non-finite feature value"
        )
    return track_ids, values


def cmd_train(args) -> int:
    cfg = _load_config(args)
    table = load_metadata(cfg.metadata)
    X = align_features(table.track_ids, *_load_features(cfg))
    if args.segment_level:
        bags, name = segment_bags(table), "baseline.ckpt"
    else:
        bags, name = build_bags(table, label_policy=cfg.label_policy), "matt.ckpt"
    out = cfg.checkpoint_dir / name
    log_csv = cfg.checkpoint_dir / f"{out.stem}_trainlog.csv"
    _make_dirs(files=(out, log_csv))
    model, train_log = train(bags, X, cfg.train)
    save_checkpoint(out, model.params)
    train_log.write_csv(log_csv)
    last = train_log.epochs[-1] if train_log.epochs else (0, float("nan"), 0.0, 0.0)
    print(f"wrote {out} after {len(train_log.epochs)} epochs "
          f"(loss {last[1]:.4f}, val acc {last[2]:.4f})")
    return 0


def _restore_model(cfg: RunConfig, args, table, input_dim: int):
    path = Path(args.checkpoint) if args.checkpoint else cfg.checkpoint_dir / "matt.ckpt"
    if not path.exists():
        raise ValidationError(f"checkpoint {path} not found; run train")
    raw = load_checkpoint(path)
    model = new_model(cfg.train, input_dim, len(table.vocabulary))
    model.load_params(raw)
    return model


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    table = load_metadata(cfg.metadata)
    X = align_features(table.track_ids, *_load_features(cfg))
    model = _restore_model(cfg, args, table, X.shape[1])
    # segment mode reads no album or artist metadata, so it builds no album bags
    bags = (segment_bags(table) if cfg.eval_mode == "segment"
            else build_bags(table, label_policy=cfg.label_policy))
    text, topk, pr = outputs = [cfg.report_dir / f for f in ("report.txt", "topk.csv", "pr.csv")]
    _make_dirs(files=outputs)
    report = evaluate(model, bags, X, mode=cfg.eval_mode, subsets=cfg.subsets, ks=cfg.ks)
    report.write_text(text)
    report.write_topk_csv(topk)
    report.write_pr_csv(pr)
    print(
        f"{cfg.eval_mode} accuracy {report.overall_accuracy:.4f}, "
        f"AP {report.average_precision:.4f}, reports in {cfg.report_dir}"
    )
    return 0


def write_predictions(fh, track_ids, names, probabilities, weights):
    """Write to the binary file fh one line per track, a block of tracks at
    a time: its id, top genre and its probability, the top five as
    genre:probability pairs joined by ';', and the attention weight, each
    number as %.9g of its exact double."""
    # five argmax passes, each pick masked out; argmax returns the lowest
    # genre id among equal maxima, as a stable descending sort would
    k = min(5, probabilities.shape[1])
    top = np.empty((len(probabilities), k), dtype=np.intp)
    rest = probabilities.copy()
    every = np.arange(len(rest))
    for j in range(k):
        top[:, j] = rest.argmax(axis=1)
        rest[every, top[:, j]] = -np.inf
    name_cells = text_cells(names)
    weights = np.asarray(weights, dtype=np.float64)[:, np.newaxis]
    rows = max(1, BLOCK // (k + 1))
    for i in range(0, len(track_ids), rows):
        order = top[i : i + rows]
        scores = float_cells(np.take_along_axis(probabilities[i : i + rows], order, axis=1),
                             b";" * (k - 1) + b",")
        fh.write(join_rows(
            text_cells(track_ids[i : i + rows]), b",", name_cells[order[:, 0]], b",",
            scores[:, 0, : WIDTH - 1], b",", side_by_side(name_cells[order], b":", scores),
            float_cells(weights[i : i + rows], b"\n"),
        ))


def format_predictions(track_ids, names, probabilities, weights) -> str:
    """What write_predictions writes, as one string."""
    text = io.BytesIO()
    write_predictions(text, track_ids, names, probabilities, weights)
    return text.getvalue().decode("utf-8")


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    table = load_metadata(cfg.metadata)
    ids, values = _load_features(cfg)
    model = _restore_model(cfg, args, table, values.shape[1])
    names = table.vocabulary.names
    track_ids = args.tracks.split(",") if args.tracks else sorted(ids)
    # every track is its own bag: one packed pass scores them all
    X = align_features(track_ids, ids, values).astype(np.float64)
    probabilities = model.forward_packed(X, np.arange(len(X)))
    del X, values  # the rows are not needed while formatting
    # a singleton bag's attention weight is exactly 1
    weights = np.ones(len(track_ids))
    if not args.out:
        sys.stdout.write(format_predictions(track_ids, names, probabilities, weights))
        return 0
    try:
        fh = open(args.out, "wb")
    except OSError as exc:
        raise ValidationError(f"cannot write predictions {args.out}: {exc.strerror}") from exc
    with fh:
        write_predictions(fh, track_ids, names, probabilities, weights)
    print(f"wrote {args.out} ({len(track_ids)} predictions)")
    return 0


def cmd_grad_check(args) -> int:
    cfg = _load_config(args)
    if cfg.feature_set == "synth":
        input_dim = cfg.synth.feature_dim
    else:
        input_dim = feature_set_length(cfg.feature_set)
    seed = cfg.train.seed
    model = new_model(cfg.train, input_dim, n_genres=16)
    rng = np.random.default_rng(seed)
    all_ok = True
    for m in (1, 2, 7):
        # a packed batch of three bags of m members: the pass train() runs
        X = rng.standard_normal((3 * m, input_dim))
        starts = np.arange(0, 3 * m, m)
        golds = rng.integers(0, 16, size=3)

        def loss_fn():
            return nll_losses(model.forward_packed(X, starts), golds)[0].sum()

        model.params.zero_grads()
        probabilities, cache = model.forward_packed(X, starts, keep_cache=True)
        model.backward_packed(cache, nll_losses(probabilities, golds)[1])
        report = finite_difference_check(
            loss_fn, model.params, tolerance=args.tolerance, max_elements=200, seed=seed
        )
        worst = max(r.max_rel_error for r in report.values())
        ok = all(r.passed for r in report.values())
        all_ok = all_ok and ok
        print(f"bag size {m}: max rel error {worst:.3e} "
              f"[{'pass' if ok else 'FAIL'} at {args.tolerance:g}]")
    if not all_ok:
        raise RuntimeFailure("gradient check failed")
    return 0


COMMANDS = {
    "extract-features": cmd_extract_features,
    "build-bags": cmd_build_bags,
    "gen-synth": cmd_gen_synth,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "grad-check": cmd_grad_check,
}


def main(argv=None) -> int:
    level = LOG_LEVELS.get(os.environ.get("MATT_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"matt: {exc}", file=sys.stderr)
        return 1
    except RuntimeFailure as exc:
        print(f"matt: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected: runtime error
        log.exception("unhandled error")
        print(f"matt: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
