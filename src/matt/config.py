"""Plain-text run configuration: `key = value` pairs under [section] headers.

Paths are resolved relative to the config file's directory. KEYS is the
whole schema: a section or key it lacks is an error, so a typo cannot fall
back to a default. Command-line flags, named like their keys, override them
after the file is parsed.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dataset import LABEL_POLICIES
from .errors import InvalidConfig
from .dsp import FEATURE_SETS
from .dsp.stft import StftConfig
from .dsp.summarize import FeatureConfig
from .evaluation import EVAL_MODES, TAIL_SUBSETS, TOP_KS
from .model import AGGREGATORS
from .synthetic import SynthConfig
from .training import TrainConfig

# config key -> ([section], owner, field[, index]). The owner is the RunConfig
# (None) or its `train` or `synth` part; an index sets one element of a tuple
# field. Keys are unique across sections, and a flag is named like its key.
KEYS = {
    "audio_dir": ("paths", None, "audio_dir"),
    "metadata": ("paths", None, "metadata"),
    "feature_dir": ("paths", None, "feature_dir"),
    "checkpoint_dir": ("paths", None, "checkpoint_dir"),
    "report_dir": ("paths", None, "report_dir"),
    "feature_set": ("features", None, "feature_set"),
    "sample_rate": ("features", None, "sample_rate"),
    "n_fft": ("features", None, "n_fft"),
    "hop": ("features", None, "hop"),
    "seed": ("run", "train", "seed"),
    "hidden_dims": ("encoder", "train", "hidden_dims"),
    "embedding_dim": ("encoder", "train", "embedding_dim"),
    "label_policy": ("train", None, "label_policy"),
    "epochs": ("train", "train", "epochs"),
    "bags_per_batch": ("train", "train", "bags_per_batch"),
    "optimizer": ("train", "train", "optimizer"),
    "learning_rate": ("train", "train", "learning_rate"),
    "early_stop_patience": ("train", "train", "early_stop_patience"),
    "aggregator": ("train", "train", "aggregator"),
    "class_weighting": ("train", "train", "class_weighting"),
    "mode": ("eval", None, "eval_mode"),
    "subsets": ("eval", None, "subsets"),
    "ks": ("eval", None, "ks"),
    "n_genres": ("synth", "synth", "n_genres"),
    "zipf_exponent": ("synth", "synth", "zipf_exponent"),
    "head_count": ("synth", "synth", "head_count"),
    "feature_dim": ("synth", "synth", "feature_dim"),
    "centroid_separation": ("synth", "synth", "centroid_separation"),
    "noise_rate": ("synth", "synth", "noise_rate"),
    "bag_size_min": ("synth", "synth", "bag_size_range", 0),
    "bag_size_max": ("synth", "synth", "bag_size_range", 1),
}
SECTIONS = {section for section, *_ in KEYS.values()}


@dataclass(frozen=True)
class RunConfig:
    """Everything one command needs. The run seed is `train.seed`; gen-synth
    passes it to the generator, so `synth.seed` is never read."""

    audio_dir: Path = Path("audio")
    metadata: Path = Path("metadata.csv")
    feature_dir: Path = Path("features")
    checkpoint_dir: Path = Path("checkpoints")
    report_dir: Path = Path("reports")
    feature_set: str = "1to9"
    sample_rate: int = 44100
    n_fft: int = 2048
    hop: int = 1024
    label_policy: str = "majority"
    eval_mode: str = "bag"
    subsets: tuple[int, ...] = TAIL_SUBSETS
    ks: tuple[int, ...] = TOP_KS
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self):
        if self.feature_set not in FEATURE_SETS and self.feature_set != "synth":
            raise InvalidConfig(
                f"unknown feature_set {self.feature_set!r}; "
                f"expected one of {sorted(FEATURE_SETS)} or 'synth'"
            )
        if self.train.aggregator not in AGGREGATORS:
            raise InvalidConfig(f"unknown aggregator {self.train.aggregator!r}")
        if self.eval_mode not in EVAL_MODES:
            raise InvalidConfig(f"unknown eval mode {self.eval_mode!r}")
        if self.label_policy not in LABEL_POLICIES:
            raise InvalidConfig(f"unknown label_policy {self.label_policy!r}")
        return self

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            sample_rate=self.sample_rate,
            stft=StftConfig(n_fft=self.n_fft, hop=self.hop),
        )

    def feature_csv(self) -> Path:
        return self.feature_dir / f"{self.feature_set}.csv"


def _typed(text: str, default, where: str):
    """Parse text as the type of default: bool, comma-separated int tuple,
    or whatever type(default) accepts (int, float, str, Path). A float must
    be finite."""
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        if isinstance(default, tuple):
            return tuple(int(p) for p in text.split(",")) if text.strip() else ()
        value = type(default)(text)
    except (KeyError, ValueError):
        kind = "comma list of int" if isinstance(default, tuple) else type(default).__name__
        raise InvalidConfig(f"{where}: {text!r} is not a valid {kind}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise InvalidConfig(f"{where}: {text!r} is not a finite number")
    return value


def with_keys(cfg: RunConfig, values: dict) -> RunConfig:
    """cfg with the field of each config key in values set to its typed value."""
    parts = {None: cfg, "train": cfg.train, "synth": cfg.synth}
    fields = {owner: {} for owner in parts}  # owner -> {field: value}
    for key, value in values.items():
        _, owner, name, *index = KEYS[key]
        if index:
            whole = list(fields[owner].get(name, getattr(parts[owner], name)))
            whole[index[0]] = value
            value = tuple(whole)
        fields[owner][name] = value
    return replace(
        cfg,
        **fields[None],
        train=replace(cfg.train, **fields["train"]),
        synth=replace(cfg.synth, **fields["synth"]),
    )


def load_run_config(path) -> RunConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path):
            raise InvalidConfig(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise InvalidConfig(f"{path}: {exc}") from None

    cfg = RunConfig()
    values = {}
    # a [DEFAULT] key is a key of every section; with no section, of none
    for section in parser.sections() or [parser.default_section]:
        if section not in SECTIONS and section != parser.default_section:
            raise InvalidConfig(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            where = f"{path}: [{section}] {key}"
            if key not in KEYS or KEYS[key][0] != section:
                raise InvalidConfig(f"{where}: unknown key")
            try:
                text = parser.get(section, key)
            except configparser.InterpolationError as exc:
                raise InvalidConfig(f"{where}: {exc}") from None
            _, owner, name, *index = KEYS[key]
            default = getattr(cfg if owner is None else getattr(cfg, owner), name)
            values[key] = _typed(text, default[index[0]] if index else default, where)
    cfg = with_keys(cfg, values)
    # paths are relative to the config file's directory, defaults included
    paths = {name: path.parent / v for name, v in vars(cfg).items() if isinstance(v, Path)}
    return replace(cfg, **paths).validate()
