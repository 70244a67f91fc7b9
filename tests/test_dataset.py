import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bag_list
from matt.dataset import (
    SPLITS,
    GenreVocabulary,
    SegmentTable,
    build_bags,
    load_metadata,
    parse_metadata_lines,
    save_bags_csv,
    segment_bags,
)
from matt.errors import (
    BadHeader,
    BadSplit,
    DuplicateTrack,
    InconsistentBagLabel,
    InvalidConfig,
    ValidationError,
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


def test_empty_genre_rejected_naming_the_file_and_track():
    with pytest.raises(BadHeader, match=r"^<memory>: empty genre for 't2'$"):
        table_of("t1,a,p,rock,train", "t2,a,p, ,train")


def test_duplicate_track_rejected():
    with pytest.raises(DuplicateTrack):
        table_of("t1,a1,p1,rock,train", "t1,a1,p1,rock,train")


def test_metadata_file_round_trip(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text(HEADER + "\nt1,a1,p1,rock,train\n", encoding="utf-8")
    table = load_metadata(path)
    assert table.track_ids == ("t1",)
    assert (table.album_ids, table.artist_ids, table.genre_ids) == (("a1",), ("p1",), (0,))
    assert table.splits == ("train",)


def test_same_key_same_genre_makes_one_bag():
    table = table_of(
        "t1,a1,p1,rock,train",
        "t2,a1,p1,rock,train",
        "t3,a1,p1,rock,train",
        "t4,a1,p1,rock,train",
    )
    bags = bag_list(build_bags(table))
    assert len(bags) == 1
    assert bags[0][1] == ("t1", "t2", "t3", "t4")


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
    assert bags.genre_ids.tolist() == [0]  # rock appeared first, tie broken low
    assert any("majority" in rec.message for rec in caplog.records)


def test_missing_metadata_makes_singleton_bags():
    table = table_of(
        "t1,,p1,rock,train",
        "t2,,p1,rock,train",
        "t3,a1,,rock,train",
    )
    bags = bag_list(build_bags(table))
    assert len(bags) == 3
    assert all(len(members) == 1 for _, members, _ in bags)


def test_bags_never_cross_splits():
    table = table_of(
        "t1,a1,p1,rock,train",
        "t2,a1,p1,rock,test",
        "t3,a1,p1,rock,validation",
    )
    bags = bag_list(build_bags(table))
    assert len(bags) == 3
    assert {key[2] for key, _, _ in bags} == {"train", "validation", "test"}


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
    bags = bag_list(build_bags(table))
    seen = [tid for _, members, _ in bags for tid in members]
    assert len(seen) == 300
    assert len(set(seen)) == 300
    for _, members, _ in bags:
        assert list(members) == sorted(members)


def test_build_bags_is_deterministic():
    rows = ["t%d,a%d,p1,rock,train" % (i, i % 3) for i in range(30)]
    t1 = table_of(*rows)
    t2 = table_of(*reversed(rows))
    # same records in a different file order produce the same sorted bags
    assert bag_list(build_bags(t1)) == bag_list(build_bags(t2))


def test_bad_label_policy_rejected():
    with pytest.raises(InvalidConfig):
        build_bags(table_of("t1,a1,p1,rock,train"), label_policy="vote")


def test_long_tail_subset_thresholds():
    rows = ["thead%02d,ah%d,ph,rock,train" % (i, i) for i in range(150)]
    rows += ["ttail%02d,at%d,pt,jazz,train" % (i, i) for i in range(50)]
    rows += ["tx1,ah0,ph,rock,test", "tx2,at0,pt,jazz,test"]
    vocab = build_bags(table_of(*rows)).table.vocabulary
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


# -- the per-row reference: the parser and bag builders the columnar ones
# replaced, kept here so the columnar ones are proven equal to them. A bag is
# (key, member track ids, genre id), as bag_list reads a BagSet -- #

def reference_parse(lines, source="<memory>"):
    """(records, names, train_counts); a record is (track, album, artist, genre_id, split)."""
    rows = [ln.rstrip("\n") for ln in lines]
    rows = [ln for ln in rows if ln.strip()]
    if not rows or rows[0].strip() != HEADER:
        raise BadHeader(f"{source}: expected header {HEADER!r}")
    names, genre_index, seen, records = [], {}, set(), []
    for ln in rows[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise BadHeader(f"{source}: row has {len(parts)} fields: {ln!r}")
        track_id, album_id, artist_id, genre, split = [p.strip() for p in parts]
        if not track_id:
            raise BadHeader(f"{source}: empty track_id")
        if track_id in seen:
            raise DuplicateTrack(f"{source}: duplicate track_id {track_id!r}")
        seen.add(track_id)
        if split not in SPLITS:
            raise BadSplit(f"{source}: unknown split {split!r} for {track_id!r}")
        if not genre:
            raise BadHeader(f"{source}: empty genre for {track_id!r}")
        if genre not in genre_index:
            genre_index[genre] = len(names)
            names.append(genre)
        records.append((track_id, album_id, artist_id, genre_index[genre], split))
    if not records:
        raise BadHeader(f"{source}: no rows after the header")
    counts = [0] * len(names)
    for rec in records:
        if rec[4] == "train":
            counts[rec[3]] += 1
    return records, tuple(names), tuple(counts)


def reference_load(path):
    with open(path, encoding="utf-8") as fh:
        return reference_parse(fh, source=str(path))


def reference_build_bags(records, label_policy):
    """(bags, warnings): the bags in order, and each majority warning's text."""
    groups = {}
    for rec in records:
        track_id, album_id, artist_id, _, split = rec
        private = "" if artist_id and album_id else track_id
        groups.setdefault((artist_id, album_id, split, private), []).append(rec)
    bags, warnings = [], []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: r[0])
        labels = [r[3] for r in members]
        distinct = sorted(set(labels))
        if len(distinct) == 1:
            genre_id = distinct[0]
        elif label_policy == "strict":
            raise InconsistentBagLabel(
                f"bag {key[:3]} mixes genres {distinct} across {len(members)} segments"
            )
        else:
            top = max(labels.count(g) for g in distinct)
            genre_id = min(g for g in distinct if labels.count(g) == top)
            warnings.append(
                f"bag {key[:3]} mixes genres {distinct}; majority label {genre_id} chosen"
            )
        bags.append((key[:3], tuple(r[0] for r in members), genre_id))
    return bags, warnings


def reference_singletons(records):
    return [
        ((artist_id, album_id, split), (track_id,), genre_id)
        for track_id, album_id, artist_id, genre_id, split in sorted(records, key=lambda r: r[0])
    ]


def outcome(fn, *args):
    """fn(*args), or the class and message of the ValidationError it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


def build_bags_logged(table, label_policy):
    """(bags, warnings) from build_bags, with the text of each warning it logs."""
    records = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("matt.dataset")
    logger.addHandler(handler)
    try:
        bags = build_bags(table, label_policy)
    finally:
        logger.removeHandler(handler)
    return bag_list(bags), [r.getMessage() for r in records]


def assert_table_equals_reference(table, expected):
    records, names, counts = expected
    assert (table.vocabulary.names, table.vocabulary.train_counts) == (names, counts)
    columns = (table.track_ids, table.album_ids, table.artist_ids, table.genre_ids, table.splits)
    assert columns == tuple(zip(*records))
    for policy in ("strict", "majority"):
        assert outcome(build_bags_logged, table, policy) == outcome(
            reference_build_bags, records, policy
        )
    assert bag_list(segment_bags(table)) == reference_singletons(records)


def padded(values):
    """Cells drawn from values, some padded with spaces or tabs."""
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    return st.tuples(pad, st.sampled_from(values), pad).map("".join)


# few albums, artists and genres, so bags share members, mix labels and tie;
# a repeated value is drawn more often
CLEAN_ROW = st.tuples(
    padded(["", "a1", "a1", "a2"]),
    padded(["", "p1", "p1", "p2"]),
    padded(["rock", "jazz", "pop"]),
    padded(SPLITS),
)
FAULTS = {
    "duplicate id": lambda row, other: [other[0], *row[1:]],
    "empty id": lambda row, other: [" ", *row[1:]],
    "unknown split": lambda row, other: [*row[:4], "dev"],
    "empty genre": lambda row, other: [*row[:3], "", row[4]],
    "extra field": lambda row, other: [*row, "x"],
    "missing field": lambda row, other: row[:4],
}


@st.composite
def metadata_lines(draw):
    """Header and rows in shuffled order, with blank lines and up to three faults."""
    n = draw(st.integers(1, 14))
    ids = draw(st.lists(padded([f"t{i}" for i in range(20)]), min_size=n, max_size=n,
                        unique_by=str.strip))
    rows = [[track_id, *draw(CLEAN_ROW)] for track_id in ids]
    # faults land on the first three rows, so one row often has several;
    # the shuffle below still puts them anywhere in the file
    faults = draw(st.lists(st.tuples(
        st.sampled_from(sorted(FAULTS)), st.integers(0, min(n, 3) - 1), st.integers(0, n - 1)
    ), max_size=3))
    # faults that change a row's field count go last, so every other finds five
    for kind, where, other in sorted(faults, key=lambda f: f[0].endswith("field")):
        rows[where] = FAULTS[kind](rows[where], rows[other])
    lines = [",".join(row) for row in draw(st.permutations(rows))]
    for at, blank in draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from(["", " ", "\t "])),
                                   max_size=3)):
        lines.insert(at, blank)
    return [HEADER, *lines]


@settings(max_examples=300, deadline=None)
@given(lines=metadata_lines())
def test_columnar_parse_and_bags_equal_the_per_row_reference(lines):
    expected = outcome(reference_parse, lines)
    table = outcome(parse_metadata_lines, lines)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert table == expected  # the same error for the same first bad row
    else:
        assert_table_equals_reference(table, expected)


@settings(max_examples=60, deadline=None)
@given(lines=metadata_lines(), newline=st.sampled_from(["\n", "\r\n"]),
       final=st.booleans())
def test_load_metadata_equals_the_per_row_reference(tmp_path_factory, lines, newline, final):
    path = tmp_path_factory.mktemp("meta") / "metadata.csv"
    path.write_bytes((newline.join(lines) + newline * final).encode("utf-8"))
    expected = outcome(reference_load, path)
    table = outcome(load_metadata, path)
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert table == expected
    else:
        assert_table_equals_reference(table, expected)


# -- the segment-level view from one index sort, and splits of packed bags -- #

def reference_segment_bags(table):
    """The segment-level view from one sort of whole (track, ...) rows."""
    track_ids, *key_columns, genre_ids = zip(*sorted(
        zip(table.track_ids, table.artist_ids, table.album_ids, table.splits, table.genre_ids)))
    return list(zip(zip(*key_columns), zip(track_ids), genre_ids))


@st.composite
def segment_tables(draw):
    """Columnar tables of 1 to 25 rows; ids sort as strings ("t10" < "t2"),
    and artist or album ids may be empty."""
    track_ids = draw(st.lists(st.sampled_from([f"t{i}" for i in range(40)]) | st.text(
        "ab1 ", min_size=1, max_size=3), min_size=1, max_size=25, unique=True))
    n = len(track_ids)
    column = lambda values: st.lists(st.sampled_from(values), min_size=n, max_size=n)  # noqa: E731
    vocabulary = GenreVocabulary(("rock", "jazz", "pop"), (0, 0, 0))
    return SegmentTable(
        track_ids=tuple(track_ids),
        album_ids=tuple(draw(column(["", "p1", "p2"]))),
        artist_ids=tuple(draw(column(["", "a1", "a2"]))),
        genre_ids=tuple(draw(column([0, 1, 2]))),
        splits=tuple(draw(column(list(SPLITS)))),
        vocabulary=vocabulary,
    )


ONE_ROW = SegmentTable(("t1",), ("",), ("",), (2,), ("test",),
                       GenreVocabulary(("rock", "jazz", "pop"), (0, 0, 0)))


@settings(max_examples=200, deadline=None)
@example(table=ONE_ROW)
@given(table=segment_tables())
def test_segment_bags_equals_the_row_sort_reference(table):
    bags = segment_bags(table)
    assert bags.table is table
    assert bags.starts.tolist() == list(range(len(table)))
    assert bag_list(bags) == reference_segment_bags(table)


@settings(max_examples=200, deadline=None)
@example(table=ONE_ROW)
@given(table=segment_tables())
def test_split_equals_the_reference_bags_of_that_split(table):
    records = list(zip(table.track_ids, table.album_ids, table.artist_ids, table.genre_ids,
                       table.splits))
    cases = [(segment_bags(table), reference_segment_bags(table))]
    for policy in ("majority", "strict"):
        expected = outcome(reference_build_bags, records, policy)
        if not isinstance(expected[0], type):  # strict meeting a mixed bag raises
            cases.append((build_bags(table, policy), expected[0]))
    for bags, reference in cases:
        for split in SPLITS:
            part = bags.split(split)
            assert part.table is table
            assert part.starts[:1].tolist() in ([], [0])
            assert bag_list(part) == [bag for bag in reference if bag[0][2] == split]
            assert bag_list(part.split(split)) == bag_list(part)
