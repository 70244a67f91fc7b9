"""Desk-scale long-tail benchmark on synthetic bags.

For each seed: generate a synthetic long-tail dataset, train the attention
model on bags and the baseline on individual segments, then evaluate
- the attention model bag-level (its native mode),
- the attention model segment-level (the metadata-free case),
- the baseline segment-level,
- the Bayes oracle bag-level (the ceiling).

With artifacts=True each seed writes checkpoints and reports under out_dir,
so a second run with the same seeds can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .checkpoint import save_checkpoint
from .dataset import segment_bags
from .evaluation import EvalReport, evaluate
from .synthetic import SynthConfig, generate_synthetic
from .training import TrainConfig, train

BENCHMARK_SEEDS = (1, 2, 3, 4, 5)
BENCHMARK_SYNTH = SynthConfig()  # 16 genres, zipf 1.2, head 400, bags 3-10, dim 32, noise 0.4

# settings tuned on the synthetic task; the linear encoder generalizes much
# better than hidden layers at this noise level
BENCHMARK_TRAIN = TrainConfig(
    epochs=250,
    bags_per_batch=32,
    learning_rate=3e-2,
    early_stop_patience=50,
    hidden_dims=(),
    embedding_dim=16,
)


@dataclass(frozen=True)
class SeedResult:
    seed: int
    matt_model: object
    base_model: object
    matt_bag: EvalReport
    matt_segment: EvalReport
    base_segment: EvalReport
    oracle_bag: EvalReport


def run_seed(
    synth_cfg: SynthConfig,
    train_cfg: TrainConfig,
    seed: int,
    out_dir=None,
) -> SeedResult:
    data = generate_synthetic(replace(synth_cfg, seed=seed))
    seeded = replace(train_cfg, seed=seed)
    segments = segment_bags(data.bags.table)
    matt_model, _ = train(data.bags, data.features, seeded)
    base_model, _ = train(segments, data.features, seeded)
    result = SeedResult(
        seed=seed,
        matt_model=matt_model,
        base_model=base_model,
        matt_bag=evaluate(matt_model, data.bags, data.features, mode="bag"),
        matt_segment=evaluate(matt_model, segments, data.features, mode="segment"),
        base_segment=evaluate(base_model, segments, data.features, mode="segment"),
        oracle_bag=evaluate(data.oracle, data.bags, data.features, mode="bag"),
    )
    if out_dir is not None:
        write_seed_artifacts(Path(out_dir), result)
    return result


def write_seed_artifacts(out_dir: Path, result: SeedResult):
    """Checkpoints and reports; all bytes are a pure function of the seed."""
    seed_dir = out_dir / f"seed{result.seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(seed_dir / "matt.ckpt", result.matt_model.params)
    save_checkpoint(seed_dir / "baseline.ckpt", result.base_model.params)
    for name, report in (
        ("matt_bag", result.matt_bag),
        ("matt_segment", result.matt_segment),
        ("base_segment", result.base_segment),
        ("oracle_bag", result.oracle_bag),
    ):
        report.write_text(seed_dir / f"{name}.txt")
        report.write_topk_csv(seed_dir / f"{name}_topk.csv")
        report.write_pr_csv(seed_dir / f"{name}_pr.csv")


def run_benchmark(
    synth_cfg: SynthConfig = BENCHMARK_SYNTH,
    train_cfg: TrainConfig = BENCHMARK_TRAIN,
    seeds=BENCHMARK_SEEDS,
    out_dir=None,
) -> list[SeedResult]:
    return [run_seed(synth_cfg, train_cfg, seed, out_dir=out_dir) for seed in seeds]
