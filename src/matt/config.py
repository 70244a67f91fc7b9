"""Plain-text run configuration: `key = value` pairs under [section] headers.

Paths are resolved relative to the config file's directory. A section or
key that nothing reads is an error, so a typo cannot fall back to a default.
Command-line flags override individual keys after the file is parsed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import InvalidConfig
from .dsp import FEATURE_SETS
from .dsp.stft import StftConfig
from .dsp.summarize import FeatureConfig
from .synthetic import SynthConfig
from .training import TrainConfig

EVAL_MODES = ("bag", "segment")

# config file keys per section; the field each sets is named like the key
PATH_KEYS = ("audio_dir", "metadata", "feature_dir", "checkpoint_dir", "report_dir")
TRAIN_KEYS = (
    "epochs",
    "bags_per_batch",
    "optimizer",
    "learning_rate",
    "early_stop_patience",
    "aggregator",
    "class_weighting",
)
SYNTH_KEYS = (
    "n_genres",
    "zipf_exponent",
    "head_count",
    "feature_dim",
    "centroid_separation",
    "noise_rate",
)


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
    subsets: tuple[int, ...] = (100, 200)
    ks: tuple[int, ...] = (2, 3, 5)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def validate(self):
        if self.feature_set not in FEATURE_SETS and self.feature_set != "synth":
            raise InvalidConfig(
                f"unknown feature_set {self.feature_set!r}; "
                f"expected one of {sorted(FEATURE_SETS)} or 'synth'"
            )
        if self.train.aggregator not in ("matt", "mean"):
            raise InvalidConfig(f"unknown aggregator {self.train.aggregator!r}")
        if self.eval_mode not in EVAL_MODES:
            raise InvalidConfig(f"unknown eval mode {self.eval_mode!r}")
        if self.label_policy not in ("strict", "majority"):
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
    or whatever type(default) accepts (int, float, str, Path)."""
    try:
        if isinstance(default, bool):
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        if isinstance(default, tuple):
            return tuple(int(p) for p in text.split(",")) if text.strip() else ()
        return type(default)(text)
    except (KeyError, ValueError):
        kind = "comma list of int" if isinstance(default, tuple) else type(default).__name__
        raise InvalidConfig(f"{where}: {text!r} is not a valid {kind}") from None


def load_run_config(path) -> RunConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        if not parser.read(path):
            raise InvalidConfig(f"cannot read config file {path}")
    except configparser.Error as exc:
        raise InvalidConfig(f"{path}: {exc}") from None

    known = {parser.default_section: set()}  # section -> the keys read from it

    def read(section: str, defaults: dict, *keys, **renamed) -> dict:
        """{field: value} for each key set in [section], typed like the field's
        default. A key sets the field of its own name; renamed maps key -> field."""
        out = {}
        fields = {**{key: key for key in keys}, **renamed}
        known.setdefault(section, set()).update(fields)
        for key, name in fields.items():
            if parser.has_option(section, key):
                where = f"{path}: [{section}] {key}"
                try:
                    text = parser.get(section, key)
                except configparser.InterpolationError as exc:
                    raise InvalidConfig(f"{where}: {exc}") from None
                out[name] = _typed(text, defaults[name], where)
        return out

    cfg = RunConfig()
    run = vars(cfg)
    paths = {**run, **read("paths", run, *PATH_KEYS)}
    train = vars(cfg.train)
    synth = vars(cfg.synth)
    bounds = dict(zip(("bag_size_min", "bag_size_max"), cfg.synth.bag_size_range))
    bounds.update(read("synth", bounds, *bounds))
    cfg = replace(
        cfg,
        **{key: path.parent / paths[key] for key in PATH_KEYS},
        **read("features", run, "feature_set", "sample_rate", "n_fft", "hop"),
        **read("train", run, "label_policy"),
        **read("eval", run, "subsets", "ks", mode="eval_mode"),
        train=replace(
            cfg.train,
            **read("run", train, "seed"),
            **read("encoder", train, "hidden_dims", "embedding_dim"),
            **read("train", train, *TRAIN_KEYS),
        ),
        synth=replace(
            cfg.synth,
            **read("synth", synth, *SYNTH_KEYS),
            bag_size_range=(bounds["bag_size_min"], bounds["bag_size_max"]),
        ),
    )
    # a [DEFAULT] key is a key of every section; with no section, of none
    for section in parser.sections() or [parser.default_section]:
        if section not in known:
            raise InvalidConfig(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise InvalidConfig(f"{path}: [{section}] {key}: unknown key")
    return cfg.validate()
