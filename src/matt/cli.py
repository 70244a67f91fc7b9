"""Command-line surface for the pipeline.

Commands: extract-features, build-bags, gen-synth, train, evaluate, predict,
grad-check. Every command takes --config pointing at a plain-text config file;
flags override config keys. All randomness derives from the single configured
seed, and artifact files are reproducible byte for byte from (inputs, config,
seed). Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import KEYS, RunConfig, load_run_config, with_keys
from .dataset import LABEL_POLICIES, build_bags, load_metadata, save_bags_csv, segment_bags
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
from .dsp.cache import format_feature_rows, parse_feature_rows
from .dsp.summarize import set_columns
from .errors import (
    EmptyFeature,
    NotUtf8,
    RuntimeFailure,
    SampleRateMismatch,
    ValidationError,
)
from .evaluation import EVAL_MODES, evaluate
from .model import AGGREGATORS
from .numeric import finite_difference_check
from .synthetic import generate_synthetic
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
    p.add_argument("--workers", type=int, default=os.cpu_count(),
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
    p.add_argument("--tolerance", type=float, default=1e-4)
    return parser


def _load_config(args) -> RunConfig:
    """The config file, then each flag named like a config key that was given."""
    flags = {key: getattr(args, key) for key in KEYS if getattr(args, key, None) is not None}
    return with_keys(load_run_config(args.config), flags).validate()


# -- extract-features -- #

def _extract_one(task) -> str:
    """Worker: read one WAV, write its feature part and mel cache atomically."""
    track_id, wav_path, part_path, mel_path, feat_cfg = task
    channels, rate = read_wav(wav_path)
    if rate != feat_cfg.sample_rate:
        raise SampleRateMismatch(
            f"{wav_path}: {rate} Hz, configured {feat_cfg.sample_rate} Hz"
        )
    signal = downmix_and_validate(channels, rate)
    result = extract_feature_sets(signal, feat_cfg)
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
    feat_cfg = cfg.feature_config()
    table = load_metadata(cfg.metadata)
    parts_dir = cfg.feature_dir / "parts"
    mel_dir = cfg.feature_dir / "mel"
    parts_dir.mkdir(parents=True, exist_ok=True)
    mel_dir.mkdir(parents=True, exist_ok=True)

    tasks = []
    for track_id in table.track_ids:
        part = parts_dir / f"{track_id}.part"
        mel = mel_dir / f"{track_id}.mel"
        if part.exists() and mel.exists():
            continue  # resume: already extracted
        wav = cfg.audio_dir / f"{track_id}.wav"
        if not wav.exists():
            raise ValidationError(f"missing audio file {wav}")
        tasks.append((track_id, str(wav), str(part), str(mel), feat_cfg))

    if tasks:
        workers = min(max(1, args.workers or 1), len(tasks))
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
    vectors = parse_feature_rows(lines, feature_set_length("1to9"), parts_dir)
    columns = set_columns(cfg.feature_set)
    rows = {tid: vec[columns] for tid, vec in vectors.items()}
    out = cfg.feature_csv()
    write_feature_csv(out, feature_set_columns(cfg.feature_set), rows)
    print(f"wrote {out} ({len(rows)} tracks) and {len(vectors)} mel caches")
    return 0


# -- other commands -- #

def cmd_build_bags(args) -> int:
    cfg = _load_config(args)
    table = load_metadata(cfg.metadata)
    bags = build_bags(table, label_policy=cfg.label_policy)
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.report_dir / "bags.csv"
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
    data = generate_synthetic(synth)
    cfg.metadata.parent.mkdir(parents=True, exist_ok=True)
    cfg.feature_dir.mkdir(parents=True, exist_ok=True)

    cfg.metadata.write_text("\n".join(data.metadata_lines) + "\n", encoding="utf-8")

    columns = [f"synth_dim_{i}" for i in range(synth.feature_dim)]
    write_feature_csv(cfg.feature_dir / "synth.csv", columns, data.features)
    manifest = dict(sorted(vars(synth).items()))
    manifest["bag_size_range"] = list(synth.bag_size_range)
    (cfg.feature_dir / "synth.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {cfg.metadata} ({len(data.bags.rows)} segments, "
        f"{len(data.bags.starts)} bags) and {cfg.feature_dir / 'synth.csv'}"
    )
    return 0


def _load_features(cfg: RunConfig):
    path = cfg.feature_csv()
    if not path.exists():
        raise ValidationError(f"feature cache {path} not found; run extract-features")
    features = read_feature_csv(path)
    if not features:
        raise EmptyFeature(f"feature cache {path} has a header but no tracks")
    return features


def cmd_train(args) -> int:
    cfg = _load_config(args)
    table = load_metadata(cfg.metadata)
    features = _load_features(cfg)
    if args.segment_level:
        bags, name = segment_bags(table), "baseline.ckpt"
    else:
        bags, name = build_bags(table, label_policy=cfg.label_policy), "matt.ckpt"
    model, train_log = train(bags, features, cfg.train)
    cfg.checkpoint_dir.mkdir(parents=True, exist_ok=True)
    out = cfg.checkpoint_dir / name
    save_checkpoint(out, model.params)
    train_log.write_csv(cfg.checkpoint_dir / f"{out.stem}_trainlog.csv")
    last = train_log.epochs[-1] if train_log.epochs else (0, float("nan"), 0.0, 0.0)
    print(f"wrote {out} after {len(train_log.epochs)} epochs "
          f"(loss {last[1]:.4f}, val acc {last[2]:.4f})")
    return 0


def _restore_model(cfg: RunConfig, args, table, features):
    path = Path(args.checkpoint) if args.checkpoint else cfg.checkpoint_dir / "matt.ckpt"
    if not path.exists():
        raise ValidationError(f"checkpoint {path} not found; run train")
    raw = load_checkpoint(path)
    model = new_model(cfg.train, len(next(iter(features.values()))), len(table.vocabulary))
    model.load_params(raw)
    return model


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    table = load_metadata(cfg.metadata)
    features = _load_features(cfg)
    model = _restore_model(cfg, args, table, features)
    # segment mode reads no album or artist metadata, so it builds no album bags
    bags = (segment_bags(table) if cfg.eval_mode == "segment"
            else build_bags(table, label_policy=cfg.label_policy))
    report = evaluate(
        model, bags, features, mode=cfg.eval_mode, subsets=cfg.subsets, ks=cfg.ks
    )
    cfg.report_dir.mkdir(parents=True, exist_ok=True)
    report.write_text(cfg.report_dir / "report.txt")
    report.write_topk_csv(cfg.report_dir / "topk.csv")
    report.write_pr_csv(cfg.report_dir / "pr.csv")
    print(
        f"{cfg.eval_mode} accuracy {report.overall_accuracy:.4f}, "
        f"AP {report.average_precision:.4f}, reports in {cfg.report_dir}"
    )
    return 0


def format_predictions(track_ids, names, probabilities, weights) -> str:
    """One line per track: id, top genre and its probability, the top five
    as genre:probability pairs joined by ';', and the attention weight.

    The body is one % over a flat (n_tracks, 4 + 2k) cell matrix, with the
    same %.9g as the feature cache.
    """
    top = np.argsort(-probabilities, axis=1, kind="stable")[:, :5]
    k = top.shape[1]
    top_names = np.array(names, dtype=object)[top]
    top_probabilities = np.take_along_axis(probabilities, top, axis=1)
    cells = np.empty((len(track_ids), 4 + 2 * k), dtype=object)
    cells[:, 0] = track_ids
    cells[:, 1] = top_names[:, 0]
    cells[:, 2] = top_probabilities[:, 0]
    cells[:, 3:-1:2] = top_names
    cells[:, 4::2] = top_probabilities
    cells[:, -1] = weights
    line = "%s,%s,%.9g," + ";".join(["%s:%.9g"] * k) + ",%.9g\n"
    return line * len(track_ids) % tuple(cells.ravel().tolist())


def cmd_predict(args) -> int:
    cfg = _load_config(args)
    table = load_metadata(cfg.metadata)
    features = _load_features(cfg)
    model = _restore_model(cfg, args, table, features)
    names = table.vocabulary.names
    if args.tracks:
        track_ids = args.tracks.split(",")
        missing = [t for t in track_ids if t not in features]
        if missing:
            raise ValidationError(f"no cached features for {missing}")
    else:
        track_ids = sorted(features)
    # every track is its own bag: one packed pass scores them all
    X = np.array([features[t] for t in track_ids], dtype=np.float64)
    probabilities = model.forward_packed(X, np.arange(len(X)))
    del X  # the rows are not needed while formatting
    # a singleton bag's attention weight is exactly 1
    text = format_predictions(track_ids, names, probabilities, np.ones(len(track_ids)))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({len(track_ids)} predictions)")
    else:
        sys.stdout.write(text)
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
