import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matt.dataset import build_bags, parse_metadata_lines, segment_bags
from matt.errors import EmptyEval, InvalidK
from matt.evaluation import accuracy, evaluate, gold_ranks, pr_curve, top_k_accuracy
from matt.model import EncoderConfig, MattModel
from matt.synthetic import SynthConfig, generate_synthetic
from matt.training import pack_bags


def one_hot(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def test_accuracy_all_correct():
    preds = [one_hot(g, 4) for g in (0, 1, 2, 3)]
    assert accuracy(preds, [0, 1, 2, 3]) == 1.0


def test_accuracy_chance_level_on_random_predictions():
    rng = np.random.default_rng(0)
    n = 4000
    golds = rng.integers(0, 2, size=n).tolist()
    preds = [softish(rng) for _ in range(n)]
    acc = accuracy(preds, golds)
    assert abs(acc - 0.5) < 0.03


def softish(rng):
    x = rng.standard_normal(2)
    e = np.exp(x - x.max())
    return e / e.sum()


def test_accuracy_tie_breaks_to_lowest_genre():
    preds = [np.array([0.5, 0.5])]
    assert accuracy(preds, [0]) == 1.0
    assert accuracy(preds, [1]) == 0.0


def test_empty_eval_rejected():
    with pytest.raises(EmptyEval):
        accuracy([], [])
    with pytest.raises(EmptyEval):
        top_k_accuracy([], [], 1)


def test_top_k_equals_accuracy_at_one_and_saturates_at_g():
    rng = np.random.default_rng(1)
    preds = [softmaxed(rng.standard_normal(5)) for _ in range(50)]
    golds = rng.integers(0, 5, size=50).tolist()
    assert top_k_accuracy(preds, golds, 1) == accuracy(preds, golds)
    assert top_k_accuracy(preds, golds, 5) == 1.0


def softmaxed(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def test_top_k_monotone_in_k():
    rng = np.random.default_rng(2)
    preds = [softmaxed(rng.standard_normal(6)) for _ in range(80)]
    golds = rng.integers(0, 6, size=80).tolist()
    values = [top_k_accuracy(preds, golds, k) for k in range(1, 7)]
    assert values == sorted(values)


def test_top_k_out_of_range_rejected():
    preds = [one_hot(0, 3)]
    with pytest.raises(InvalidK):
        top_k_accuracy(preds, [0], 0)
    with pytest.raises(InvalidK):
        top_k_accuracy(preds, [0], 4)


def test_pr_curve_perfect_classifier():
    preds = [one_hot(g, 3) for g in (0, 1, 2, 0)]
    points, ap = pr_curve(preds, [0, 1, 2, 0])
    assert ap == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 for _, p, r in points)


def test_pr_curve_random_scores_ap_near_rate():
    rng = np.random.default_rng(3)
    n, g = 3000, 5
    preds = [softmaxed(rng.standard_normal(g) * 0.01) for _ in range(n)]
    golds = rng.integers(0, g, size=n).tolist()
    _, ap = pr_curve(preds, golds)
    assert abs(ap - 1.0 / g) < 0.02


def test_pr_first_point_is_top_scored_pair():
    preds = [np.array([0.9, 0.1]), np.array([0.6, 0.4])]
    points, _ = pr_curve(preds, [0, 1])
    threshold, precision, recall = points[0]
    assert threshold == 0.9
    assert precision == 1.0  # the single best-scored pair is a true positive
    assert recall == pytest.approx(0.5)


def test_pr_recall_monotone_as_threshold_falls():
    rng = np.random.default_rng(4)
    preds = [softmaxed(rng.standard_normal(4)) for _ in range(100)]
    golds = rng.integers(0, 4, size=100).tolist()
    points, _ = pr_curve(preds, golds)
    thresholds = [t for t, _, _ in points]
    recalls = [r for _, _, r in points]
    assert thresholds == sorted(thresholds, reverse=True)
    assert recalls == sorted(recalls)
    assert recalls[-1] == pytest.approx(1.0)


def synth_setup():
    data = generate_synthetic(
        SynthConfig(
            n_genres=3,
            zipf_exponent=1.0,
            head_count=8,
            bag_size_range=(1, 3),
            feature_dim=5,
            centroid_separation=1.0,
            noise_rate=0.0,
            seed=7,
        )
    )
    model = MattModel(
        EncoderConfig(input_dim=5, hidden_dims=(), output_dim=4),
        n_genres=3,
        seed=1,
    )
    return data, model


def test_evaluate_report_shape():
    data, model = synth_setup()
    report = evaluate(model, data.bags, data.features, mode="bag", subsets=(100, 200), ks=(2, 3))
    assert report.mode == "bag"
    assert 0.0 <= report.overall_accuracy <= 1.0
    assert 0.0 <= report.average_precision <= 1.0
    # 2 subsets x 2 ks, all genres are tail at this scale
    assert set(report.top_k) == {(100, 2), (100, 3), (200, 2), (200, 3)}


def test_default_topk_grid_is_two_by_three():
    # every genre is tail at this scale, so both default subsets are populated
    data = generate_synthetic(
        SynthConfig(
            n_genres=6,
            zipf_exponent=1.0,
            head_count=6,
            bag_size_range=(1, 3),
            feature_dim=5,
            centroid_separation=1.0,
            noise_rate=0.0,
            seed=8,
        )
    )
    model = MattModel(
        EncoderConfig(input_dim=5, hidden_dims=(), output_dim=4), n_genres=6, seed=1
    )
    report = evaluate(model, data.bags, data.features)
    assert set(report.top_k) == {
        (100, 2), (100, 3), (100, 5), (200, 2), (200, 3), (200, 5),
    }


def test_bag_mode_on_singletons_equals_segment_mode():
    HEADER = "track_id,album_id,artist_id,genre,split"
    rows = [HEADER] + [f"t{i},,,g{i % 2},test" for i in range(8)]
    table = parse_metadata_lines(rows)
    bags = build_bags(table)  # all singletons (missing metadata)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 5)).astype(np.float32)  # row i is t{i}'s
    model = MattModel(
        EncoderConfig(input_dim=5, hidden_dims=(), output_dim=3), n_genres=2, seed=2
    )
    bag_report = evaluate(model, bags, X, mode="bag", ks=(1, 2))
    seg_report = evaluate(model, segment_bags(table), X, mode="segment", ks=(1, 2))
    assert bag_report.overall_accuracy == seg_report.overall_accuracy
    assert bag_report.top_k == seg_report.top_k
    assert np.array_equal(bag_report.pr_points, seg_report.pr_points)


class MeanOfMembers:
    """A model whose posterior is the mean of its members' feature rows."""

    def forward_packed(self, X, starts):
        sizes = np.diff(starts, append=len(X))
        return np.add.reduceat(X, starts, axis=0) / sizes[:, np.newaxis]


def test_segment_mode_scores_each_segment_against_its_own_genre():
    # a test album of rock, rock and jazz: the majority policy labels the bag
    # rock, but in segment mode the jazz segment's gold is jazz
    HEADER = "track_id,album_id,artist_id,genre,split"
    table = parse_metadata_lines(
        [HEADER, "t1,alb,art,rock,test", "t2,alb,art,rock,test", "t3,alb,art,jazz,test"])
    bags = build_bags(table, label_policy="majority")
    # each segment's features are the one-hot vector of its own genre
    X = np.eye(2, dtype=np.float32)[list(table.genre_ids)]
    bag_report = evaluate(MeanOfMembers(), bags, X, mode="bag", ks=(1,))
    seg_report = evaluate(MeanOfMembers(), segment_bags(table), X, mode="segment", ks=(1,))
    assert (bag_report.n_units, bag_report.overall_accuracy) == (1, 1.0)
    assert (seg_report.n_units, seg_report.overall_accuracy) == (3, 1.0)
    assert seg_report.average_precision == 1.0


def shuffled_id_bags(seed=4):
    """Strict album bags of 1 to 4 segments over a table whose track ids sort
    in another order than the test bags' members do."""
    rng = np.random.default_rng(seed)
    names = rng.permutation(64).tolist()
    rows, vectors = ["track_id,album_id,artist_id,genre,split"], []
    for album in range(16):
        split = "train" if album < 4 else "test"
        for _ in range(rng.integers(1, 5)):
            track = f"t{names.pop():02d}"
            rows.append(f"{track},alb{album},art{album},g{album % 3},{split}")
            vectors.append(rng.standard_normal(5).astype(np.float32))
    return build_bags(parse_metadata_lines(rows), label_policy="strict"), np.array(vectors)


@pytest.mark.parametrize("hidden_dims", [(), (6,)])
def test_segment_report_equals_the_bag_member_order_report(hidden_dims):
    """Segment mode scores the test segments in track id order. Scored in
    the order of the test bags' members instead, each against its bag's label
    (the same as its own genre on strict data), every report figure is equal."""
    bags, X = shuffled_id_bags()
    model = MattModel(
        EncoderConfig(input_dim=5, hidden_dims=hidden_dims, output_dim=4), n_genres=3, seed=3
    )
    report = evaluate(model, segment_bags(bags.table), X, mode="segment", ks=(1, 2))
    test = bags.split("test")
    members, starts = pack_bags(test, X)
    member_ids = [bags.table.track_ids[i] for i in test.rows.tolist()]
    assert member_ids != sorted(member_ids)
    probabilities = model.forward_packed(members, np.arange(len(members)))
    golds = np.repeat(test.genre_ids, np.diff(starts, append=len(members)))
    assert report.n_units == len(golds)
    assert report.overall_accuracy == accuracy(probabilities, golds)
    points, average_precision = pr_curve(probabilities, golds)
    assert np.array_equal(report.pr_points, points)
    assert report.average_precision == average_precision
    for subset in (100, 200):
        tail = bags.table.vocabulary.tail_mask(subset)[golds]
        assert report.subset_sizes[subset] == np.count_nonzero(tail)
        for k in (1, 2):
            assert report.top_k[(subset, k)] == top_k_accuracy(probabilities[tail], golds[tail], k)


def test_report_files_deterministic(tmp_path):
    data, model = synth_setup()
    report = evaluate(model, data.bags, data.features, mode="bag", ks=(2,))
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        report.write_text(d / "report.txt")
        report.write_topk_csv(d / "topk.csv")
        report.write_pr_csv(d / "pr.csv")
    for name in ("report.txt", "topk.csv", "pr.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_empty_subset_is_omitted():
    data, model = synth_setup()
    report = evaluate(model, data.bags, data.features, mode="bag", subsets=(1,), ks=(2,))
    assert report.top_k == {}
    assert report.subset_sizes == {1: 0}


def _loop_reference(preds, golds, k):
    """Per-unit loops the matrix metrics replaced: accuracy, Top@K, PR and AP."""
    hits = sum(1 for p, g in zip(preds, golds) if int(np.argmax(p)) == g)
    top_hits = sum(
        1 for p, g in zip(preds, golds)
        if g in np.lexsort((np.arange(len(p)), -p))[:k].tolist()
    )
    pairs = [(float(prob), int(genre == g)) for p, g in zip(preds, golds)
             for genre, prob in enumerate(p)]
    scores = np.array([s for s, _ in pairs])
    labels = np.array([y for _, y in pairs])
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    tp_cum = np.cumsum(labels)
    points, ap, prev_recall = [], 0.0, 0.0
    for i in np.flatnonzero(np.diff(scores, append=-np.inf)):
        precision, recall = tp_cum[i] / (i + 1), tp_cum[i] / labels.sum()
        points.append((float(scores[i]), float(precision), float(recall)))
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return hits / len(golds), top_hits / len(golds), points, float(ap)


@pytest.mark.parametrize("seed", range(5))
def test_matrix_metrics_equal_the_per_unit_loops_exactly(seed):
    rng = np.random.default_rng(seed)
    n, g = (4133, 16) if seed == 4 else (300, 7)
    raw = rng.random((n, g))
    if seed % 2:
        raw = np.round(raw, 1) + 0.01  # many exact ties within and across rows
    preds = raw / raw.sum(axis=1, keepdims=True)
    if seed == 4:
        # the segment mode's pair count, with ties in every group the
        # unstable rank order can reach
        preds = np.round(preds, 3)
    golds = rng.integers(0, g, size=n)
    acc, top3, points, ap = _loop_reference(list(preds), golds.tolist(), 3)
    assert accuracy(preds, golds) == acc
    assert top_k_accuracy(preds, golds, 3) == top3
    curve, curve_ap = pr_curve(preds, golds)
    assert np.array_equal(curve, points) and curve_ap == ap


def reference_top_k(probabilities, golds, k):
    """Top@K through a stable argsort of -P, the way evaluate used to rank."""
    top = np.argsort(-probabilities, axis=1, kind="stable")[:, :k]
    return np.count_nonzero((top == golds[:, np.newaxis]).any(axis=1)) / len(golds)


@settings(max_examples=200, deadline=None)
@given(
    n_genres=st.integers(2, 8),
    levels=st.integers(1, 4),
    n_units=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_gold_rank_top_k_equals_the_stable_argsort_reference(n_genres, levels, n_units, seed):
    """Probabilities drawn from a few levels tie often, also with the gold;
    ties rank the lower genre id first in both."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, size=(n_units, n_genres)).astype(np.float64)
    probabilities = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
    golds = rng.integers(0, n_genres, size=n_units)
    ranks = gold_ranks(probabilities, golds)
    positions = np.argsort(-probabilities, axis=1, kind="stable")
    assert np.array_equal(ranks, np.flatnonzero(positions == golds[:, np.newaxis]) % n_genres)
    for k in range(1, n_genres + 1):
        assert top_k_accuracy(probabilities, golds, k) == reference_top_k(probabilities, golds, k)
