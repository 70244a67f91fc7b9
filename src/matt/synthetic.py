"""Seeded synthetic long-tail bag generator with a Bayes-optimal oracle.

Genre g's training bag count follows a power law head_count * g^-zipf_exponent
(g starting at 1); validation and test get a fixed per-genre bag count so tail
metrics stay measurable. Segment features are the genre centroid plus unit
Gaussian noise, except that with probability noise_rate a segment is replaced
by a zero-mean background draw carrying no genre information. Everything is a
pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import METADATA_HEADER, BagSet, build_bags, parse_metadata_lines
from .errors import InfeasibleConfig, InvalidConfig
from .numeric import softmax


@dataclass(frozen=True)
class SynthConfig:
    n_genres: int = 16
    zipf_exponent: float = 1.2
    head_count: int = 400
    bag_size_range: tuple[int, int] = (3, 10)
    feature_dim: int = 32
    centroid_separation: float = 1.0
    noise_rate: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if self.n_genres < 2 or self.head_count < 1 or self.feature_dim < 1:
            raise InvalidConfig("counts must be positive (and n_genres >= 2)")
        lo, hi = self.bag_size_range
        if not 1 <= lo <= hi:
            raise InvalidConfig(f"bad bag_size_range {self.bag_size_range}")
        if not 0.0 <= self.noise_rate < 1.0:
            raise InvalidConfig(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")

    def genre_log_prior(self) -> np.ndarray:
        """Log of the generative genre law, proportional to (g+1)^-zipf_exponent."""
        weights = (np.arange(self.n_genres) + 1.0) ** (-self.zipf_exponent)
        return np.log(weights / weights.sum())


def _simplex_centroids(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n unit vectors with pairwise dot -1/(n-1), randomly rotated in R^dim."""
    corners = np.eye(n) - 1.0 / n
    # rows span an (n-1)-dim subspace; normalize and embed into R^dim
    corners /= np.linalg.norm(corners[0])
    embedded = np.zeros((n, dim))
    embedded[:, :n] = corners
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return embedded @ q.T


def make_centroids(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm genre centroids with pairwise distance >= centroid_separation."""
    n, dim = cfg.n_genres, cfg.feature_dim
    if n <= dim:
        centroids = _simplex_centroids(n, dim, rng)
    else:
        centroids = None
        for _ in range(200):
            cand = rng.standard_normal((n, dim))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            if _min_pairwise_distance(cand) >= cfg.centroid_separation:
                centroids = cand
                break
        if centroids is None:
            raise InfeasibleConfig(
                f"cannot place {n} unit centroids in {dim} dims at separation "
                f"{cfg.centroid_separation}"
            )
    if _min_pairwise_distance(centroids) < cfg.centroid_separation:
        raise InfeasibleConfig(
            f"best achievable separation {_min_pairwise_distance(centroids):.4f} < "
            f"{cfg.centroid_separation}"
        )
    return centroids


def _min_pairwise_distance(points: np.ndarray) -> float:
    diffs = points[:, np.newaxis, :] - points[np.newaxis, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    n = points.shape[0]
    return float(dists[~np.eye(n, dtype=bool)].min())


def train_bag_counts(cfg: SynthConfig) -> list[int]:
    return [
        max(1, round(cfg.head_count * (g + 1) ** (-cfg.zipf_exponent)))
        for g in range(cfg.n_genres)
    ]


# validation and test are balanced per genre: only training carries the
# long-tail law, and fixed-size evaluation sets keep the tail metrics
# measurable at desk scale
VAL_BAGS_PER_GENRE = 16
TEST_BAGS_PER_GENRE = 40


def split_bag_counts(cfg: SynthConfig):
    """Per-genre (train, validation, test) bag counts."""
    return [
        (n_train, VAL_BAGS_PER_GENRE, TEST_BAGS_PER_GENRE)
        for n_train in train_bag_counts(cfg)
    ]


class BayesOracle:
    """Posterior over genres under the true generative model.

    The prior is the generator's long-tail genre law; each segment's
    likelihood is the mixture
    (1 - noise_rate) * N(x; centroid_g, I) + noise_rate * N(x; 0, I),
    and bag members are independent given the genre.
    """

    def __init__(self, centroids: np.ndarray, noise_rate: float, log_prior: np.ndarray):
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.noise_rate = float(noise_rate)
        self.log_prior = np.asarray(log_prior, dtype=np.float64)

    def forward_packed(self, features: np.ndarray, starts) -> np.ndarray:
        """(B, G) posteriors of B packed bags: the model interface evaluate() calls.

        Every member row's log-likelihood comes from one broadcast, and
        np.add.reduceat sums a bag's rows from its start in `starts`.
        """
        x = np.asarray(features, dtype=np.float64)
        # log N(x; mu, I) up to a genre-independent constant
        gaps = x[:, np.newaxis, :] - self.centroids[np.newaxis, :, :]
        log_per_segment = -0.5 * (gaps**2).sum(axis=2)  # (n_rows, G)
        if self.noise_rate:
            log_background = -0.5 * (x**2).sum(axis=1, keepdims=True)  # (n_rows, 1)
            log_per_segment = np.logaddexp(
                np.log1p(-self.noise_rate) + log_per_segment,
                np.log(self.noise_rate) + log_background,
            )
        return softmax(self.log_prior + np.add.reduceat(log_per_segment, starts, axis=0))


@dataclass(frozen=True)
class SyntheticData:
    bags: BagSet
    features: np.ndarray  # (n, D) float32: row i belongs to bags.table row i
    oracle: BayesOracle
    metadata_lines: list[str]  # the table as metadata.csv lines, header first


def generate_synthetic(cfg: SynthConfig) -> SyntheticData:
    """Generate bags, per-segment features, and the matching Bayes oracle."""
    rng = np.random.default_rng(cfg.seed)
    centroids = make_centroids(cfg, rng)
    lo, hi = cfg.bag_size_range
    counts = split_bag_counts(cfg)

    lines = [METADATA_HEADER]
    rows = []  # rows[i] is the vector of metadata row i
    for g in range(cfg.n_genres):
        genre = f"genre{g + 1:02d}"
        n_train, n_val, n_test = counts[g]
        plan = [("train", n_train), ("validation", n_val), ("test", n_test)]
        for split, n_bags in plan:
            for b in range(n_bags):
                artist = f"art-{g + 1:02d}-{split[:2]}-{b:04d}"
                album = f"alb-{g + 1:02d}-{split[:2]}-{b:04d}"
                size = int(rng.integers(lo, hi + 1))
                for s in range(size):
                    track = f"t{g + 1:02d}{split[:2]}{b:04d}x{s:02d}"
                    if rng.random() < cfg.noise_rate:
                        vec = rng.standard_normal(cfg.feature_dim)
                    else:
                        vec = centroids[g] + rng.standard_normal(cfg.feature_dim)
                    rows.append(vec.astype(np.float32))
                    lines.append(f"{track},{album},{artist},{genre},{split}")

    table = parse_metadata_lines(lines, source=f"synthetic(seed={cfg.seed})")
    bags = build_bags(table, label_policy="strict")
    return SyntheticData(
        bags=bags,
        features=np.array(rows, dtype=np.float32),
        oracle=BayesOracle(centroids, cfg.noise_rate, cfg.genre_log_prior()),
        metadata_lines=lines,
    )
