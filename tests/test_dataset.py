import numpy as np
import pytest

from matt.dataset import (
    build_bags,
    load_metadata,
    parse_metadata_lines,
    save_bags_csv,
)
from matt.errors import (
    BadHeader,
    BadSplit,
    DuplicateTrack,
    InconsistentBagLabel,
    InvalidConfig,
)

HEADER = "track_id,album_id,artist_id,genre,split"


def table_of(*rows):
    return parse_metadata_lines([HEADER, *rows])


def test_vocabulary_counts_and_order():
    table = table_of(
        "t1,a1,p1,rock,train",
        "t2,a1,p1,jazz,train",
        "t3,a2,p2,rock,test",
    )
    assert table.vocabulary.names == ("rock", "jazz")
    assert table.vocabulary.train_counts == (1, 1)
    assert len(table) == 3


def test_unknown_split_rejected():
    with pytest.raises(BadSplit):
        table_of("t1,a1,p1,rock,dev")


def test_bad_header_rejected():
    with pytest.raises(BadHeader):
        parse_metadata_lines(["track_id,album,artist,genre,split", "t1,a,p,rock,train"])


def test_header_only_metadata_rejected(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text(HEADER + "\n\n", encoding="utf-8")
    with pytest.raises(BadHeader, match=f"^{path}: no rows after the header$"):
        load_metadata(path)


def test_duplicate_track_rejected():
    with pytest.raises(DuplicateTrack):
        table_of("t1,a1,p1,rock,train", "t1,a1,p1,rock,train")


def test_metadata_file_round_trip(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text(HEADER + "\nt1,a1,p1,rock,train\n", encoding="utf-8")
    table = load_metadata(path)
    assert table.records[0].track_id == "t1"


def test_same_key_same_genre_makes_one_bag():
    table = table_of(
        "t1,a1,p1,rock,train",
        "t2,a1,p1,rock,train",
        "t3,a1,p1,rock,train",
        "t4,a1,p1,rock,train",
    )
    bags = build_bags(table)
    assert len(bags.bags) == 1
    assert bags.bags[0].segment_ids == ("t1", "t2", "t3", "t4")


def test_strict_policy_rejects_mixed_labels():
    table = table_of("t1,a1,p1,rock,train", "t2,a1,p1,jazz,train")
    with pytest.raises(InconsistentBagLabel):
        build_bags(table, label_policy="strict")


def test_majority_policy_breaks_ties_to_lowest_genre_id(caplog):
    table = table_of(
        "t1,a1,p1,rock,train",
        "t2,a1,p1,jazz,train",
        "t3,a1,p1,jazz,train",
        "t4,a1,p1,rock,train",
    )
    with caplog.at_level("WARNING"):
        bags = build_bags(table, label_policy="majority")
    assert bags.bags[0].genre_id == 0  # rock appeared first, tie broken low
    assert any("majority" in rec.message for rec in caplog.records)


def test_missing_metadata_makes_singleton_bags():
    table = table_of(
        "t1,,p1,rock,train",
        "t2,,p1,rock,train",
        "t3,a1,,rock,train",
    )
    bags = build_bags(table)
    assert len(bags.bags) == 3
    assert all(len(b) == 1 for b in bags.bags)


def test_bags_never_cross_splits():
    table = table_of(
        "t1,a1,p1,rock,train",
        "t2,a1,p1,rock,test",
        "t3,a1,p1,rock,validation",
    )
    bags = build_bags(table)
    assert len(bags.bags) == 3
    assert {b.split for b in bags.bags} == {"train", "validation", "test"}


def test_bags_partition_segments_randomized():
    rng = np.random.default_rng(11)
    rows = []
    for i in range(300):
        album = f"a{rng.integers(0, 20)}" if rng.random() > 0.1 else ""
        artist = f"p{rng.integers(0, 10)}" if rng.random() > 0.1 else ""
        genre = f"g{rng.integers(0, 5)}"
        split = ("train", "validation", "test")[rng.integers(0, 3)]
        rows.append(f"t{i:03d},{album},{artist},{genre},{split}")
    table = table_of(*rows)
    bags = build_bags(table)
    seen = [tid for b in bags.bags for tid in b.segment_ids]
    assert len(seen) == 300
    assert len(set(seen)) == 300
    for bag in bags.bags:
        assert list(bag.segment_ids) == sorted(bag.segment_ids)


def test_build_bags_is_deterministic():
    rows = ["t%d,a%d,p1,rock,train" % (i, i % 3) for i in range(30)]
    t1 = table_of(*rows)
    t2 = table_of(*reversed(rows))
    # same records in a different file order produce the same sorted bags
    b1 = build_bags(t1)
    b2 = build_bags(t2)
    assert [b.key for b in b1.bags] == [b.key for b in b2.bags]
    assert [b.segment_ids for b in b1.bags] == [b.segment_ids for b in b2.bags]


def test_bad_label_policy_rejected():
    with pytest.raises(InvalidConfig):
        build_bags(table_of("t1,a1,p1,rock,train"), label_policy="vote")


def test_long_tail_subset_thresholds():
    rows = ["thead%02d,ah%d,ph,rock,train" % (i, i) for i in range(150)]
    rows += ["ttail%02d,at%d,pt,jazz,train" % (i, i) for i in range(50)]
    rows += ["tx1,ah0,ph,rock,test", "tx2,at0,pt,jazz,test"]
    vocab = build_bags(table_of(*rows)).vocabulary
    assert vocab.train_counts == (150, 50)
    assert vocab.tail_mask(1000).tolist() == [True, True]  # above every count
    assert vocab.tail_mask(0).tolist() == [False, False]
    assert vocab.tail_mask(50).tolist() == [False, False]  # strictly fewer
    assert vocab.tail_mask(51).tolist() == [False, True]
    assert vocab.tail_mask(100).tolist() == [False, True]
    assert vocab.tail_mask(151).tolist() == [True, True]
    # monotone in the threshold
    sizes = [int(vocab.tail_mask(t).sum()) for t in (0, 10, 51, 100, 151, 1000)]
    assert sizes == sorted(sizes)


def test_save_bags_csv(tmp_path):
    table = table_of("t1,a1,p1,rock,train", "t2,a1,p1,rock,train")
    bags = build_bags(table)
    out = tmp_path / "bags.csv"
    save_bags_csv(out, bags)
    lines = out.read_text().splitlines()
    assert lines[0] == "artist_id,album_id,split,genre,track_ids"
    assert lines[1] == "p1,a1,train,rock,t1;t2"
