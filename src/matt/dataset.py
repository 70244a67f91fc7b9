"""Metadata ingestion and album-artist bag construction.

A bag groups every segment sharing (artist_id, album_id, split) under one
genre label; segments with missing artist or album metadata become singleton
bags. Bags never cross splits, so training can't leak into test through a
shared album.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import (
    BadHeader,
    BadSplit,
    DuplicateTrack,
    InconsistentBagLabel,
    InvalidConfig,
    MissingFeature,
    NotUtf8,
    ValidationError,
)

log = logging.getLogger(__name__)

METADATA_HEADER = "track_id,album_id,artist_id,genre,split"
SPLITS = ("train", "validation", "test")
SPLIT_CODES = {name: code for code, name in enumerate(SPLITS)}
LABEL_POLICIES = ("strict", "majority")


@dataclass(frozen=True)
class GenreVocabulary:
    """Genre names in order of first appearance, with training segment counts."""

    names: tuple[str, ...]
    train_counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.names)

    def tail_mask(self, max_train_count: int) -> np.ndarray:
        """Boolean per genre id: fewer than max_train_count training segments."""
        return np.array(self.train_counts) < max_train_count


@dataclass(frozen=True)
class SegmentTable:
    """Metadata stored by column in file order: row i is entry i of each column.

    split_codes[i] is splits[i]'s index in SPLITS, so a split is one comparison.
    """

    track_ids: tuple[str, ...]
    album_ids: tuple[str, ...]
    artist_ids: tuple[str, ...]
    genre_ids: tuple[int, ...]
    splits: tuple[str, ...]
    vocabulary: GenreVocabulary
    split_codes: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.track_ids)


@dataclass(frozen=True, eq=False)
class BagSet:
    """Bags packed as the model takes them: bag b is the table rows
    rows[starts[b]:starts[b + 1]] (to the end for the last bag), labelled
    genre_ids[b]; its key (artist_id, album_id, split) is in any of its rows.

    Making one with a label outside the table's genres raises InvalidConfig,
    so the code that trains and scores bags takes their labels as valid."""

    table: SegmentTable
    rows: np.ndarray  # (n,) table row indices, bag after bag
    starts: np.ndarray  # (B,) each bag's first entry in rows
    genre_ids: np.ndarray  # (B,) bag labels

    def __post_init__(self):
        n_genres = len(self.table.vocabulary)
        if len(self.genre_ids):
            low, high = int(self.genre_ids.min()), int(self.genre_ids.max())
            if low < 0 or high >= n_genres:
                bad = low if low < 0 else high
                raise InvalidConfig(f"gold genre {bad} out of range for {n_genres} genres")

    def take(self, index) -> BagSet:
        """The bags at index, in that order, packed afresh."""
        sizes = np.diff(self.starts, append=len(self.rows))[index]
        starts = np.cumsum(sizes) - sizes
        rows = self.rows[(self.starts[index] - starts).repeat(sizes) + np.arange(sizes.sum())]
        return BagSet(self.table, rows, starts, self.genre_ids[index])

    def split(self, name: str) -> BagSet:
        """The bags of one split, in order, packed afresh."""
        code = SPLIT_CODES[name]
        return self.take(np.flatnonzero(self.table.split_codes[self.rows[self.starts]] == code))


def parse_metadata_lines(lines, source: str = "<memory>"):
    """Parse header + rows into a columnar SegmentTable, split in one pass and
    checked a column at a time; the first bad row in file order raises."""
    rows = list(filter(str.strip, lines))
    if not rows or rows[0].strip() != METADATA_HEADER:
        raise BadHeader(f"{source}: expected header {METADATA_HEADER!r}")
    # rows before the first one with a wrong field count are checked first, so
    # an earlier bad row wins; the header has five fields and is skipped below
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows))
    wrong = np.flatnonzero(commas != 4)
    n = int(wrong[0]) if len(wrong) else len(rows)
    fields = ",".join(rows[:n]).split(",")
    track_ids, album_ids, artist_ids, genres, splits = (
        tuple(map(str.strip, fields[c::5])) for c in range(5, 10)
    )
    # one pass over each column: every genre's first row, every split's code
    # (-1 if unknown) and the set of track ids; a failed check scans the rows
    first_row = {}
    firsts = np.fromiter(map(first_row.setdefault, genres, range(len(genres))), np.intp,
                         len(genres))
    codes = np.fromiter(map(SPLIT_CODES.get, splits, repeat(-1)), np.int8, len(splits))
    unique = set(track_ids)
    if len(unique) < len(track_ids) or "" in unique or "" in first_row or (codes < 0).any():
        _raise_first_bad_row(source, track_ids, genres, splits)
    if n < len(rows):
        ln = rows[n].rstrip("\n")
        raise BadHeader(f"{source}: row has {ln.count(',') + 1} fields: {ln!r}")
    if not track_ids:
        raise BadHeader(f"{source}: no rows after the header")
    # genre ids follow first appearance, which is the order of the first rows
    genre_ids = np.searchsorted(np.fromiter(first_row.values(), np.intp, len(first_row)), firsts)
    train_counts = np.bincount(genre_ids[codes == SPLIT_CODES["train"]], minlength=len(first_row))
    vocabulary = GenreVocabulary(tuple(first_row), tuple(train_counts.tolist()))
    return SegmentTable(track_ids, album_ids, artist_ids, tuple(genre_ids.tolist()), splits,
                        vocabulary, codes)


def _raise_first_bad_row(source: str, track_ids, genres, splits):
    """Raise for the first row with a missing or repeated id, an unknown split
    or a missing genre."""
    seen: set[str] = set()
    for track_id, genre, split in zip(track_ids, genres, splits):
        if not track_id:
            raise BadHeader(f"{source}: empty track_id")
        if track_id in seen:
            raise DuplicateTrack(f"{source}: duplicate track_id {track_id!r}")
        seen.add(track_id)
        if split not in SPLITS:
            raise BadSplit(f"{source}: unknown split {split!r} for {track_id!r}")
        if not genre:
            raise BadHeader(f"{source}: empty genre for {track_id!r}")


def load_metadata(path) -> SegmentTable:
    """The table of a metadata file; a UTF-8 byte-order mark before the
    header, as spreadsheet programs write one, is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return parse_metadata_lines(fh, source=str(path))
    except OSError as exc:
        raise ValidationError(f"cannot read metadata {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise NotUtf8.in_file(path) from None


def build_bags(table: SegmentTable, label_policy: str = "majority") -> BagSet:
    """Group segments into album-artist bags within each split.

    Bags come in (artist_id, album_id, split) order and members in track id
    order. Segments with an empty artist or album id become singleton bags.
    When a bag's members disagree on genre, "majority" picks the most common
    label (ties broken by lowest genre_id, with a warning); "strict" raises.
    """
    if label_policy not in LABEL_POLICIES:
        raise InvalidConfig(f"unknown label policy {label_policy!r}")
    n = len(table)
    # one hash per row names each row's key by the key's first row; ranking
    # the distinct keys in sorted order leaves only integers to compare
    first_row = {}
    keyed = zip(table.artist_ids, table.album_ids, table.splits)
    firsts = np.fromiter(map(first_row.setdefault, keyed, range(n)), np.intp, n)
    keys = sorted(first_row)
    rank = np.empty(n, dtype=np.intp)
    rank[np.fromiter(map(first_row.__getitem__, keys), np.intp, len(keys))] = range(len(keys))
    key_rank = rank[firsts]
    # members in track id order, then bags in key order by a stable sort
    by_track = _track_order(table)
    rows = by_track[np.argsort(key_rank[by_track], kind="stable")]
    ranks = key_rank[rows]
    # a bag starts where the key changes, and at every row missing its artist
    # or album: such a segment is its own bag
    complete = np.fromiter((bool(artist and album) for artist, album, _ in keys), bool,
                           len(keys))
    start = ~complete[ranks]
    start[:1] = True
    start[1:] |= ranks[1:] != ranks[:-1]
    starts = np.flatnonzero(start)
    bag_of = np.cumsum(start) - 1
    genres = np.fromiter(table.genre_ids, np.intp, n)[rows]
    genre_ids = genres[starts]
    mixed = np.flatnonzero(np.bincount(bag_of[genres != genre_ids[bag_of]], minlength=len(starts)))
    if len(mixed):
        genre_ids[mixed] = _majority_labels(table, rows[starts[mixed]], mixed, bag_of, genres,
                                            label_policy)
    return BagSet(table, rows, starts, genre_ids)


def _majority_labels(table, first_rows, mixed, bag_of, genres, label_policy) -> list[int]:
    """The majority label of each mixed bag (first_rows[i] is a row of bag
    mixed[i]), warning for each in bag order; "strict" raises for the first
    instead. One (mixed bag, genre) count table holds them all, its genres in
    id order, so argmax keeps the lowest id on a tie; bags whose members agree
    take no room in it."""
    members = np.isin(bag_of, mixed)
    ids, codes = np.unique(genres[members], return_inverse=True)
    slots = np.searchsorted(mixed, bag_of[members]) * len(ids) + codes
    counts = np.bincount(slots, minlength=len(mixed) * len(ids)).reshape(len(mixed), len(ids))
    labels = ids[counts.argmax(axis=1)].tolist()
    for first, label, bag_counts in zip(first_rows.tolist(), labels, counts):
        key = (table.artist_ids[first], table.album_ids[first], table.splits[first])
        distinct = ids[bag_counts > 0].tolist()
        if label_policy == "strict":
            raise InconsistentBagLabel(
                f"bag {key} mixes genres {distinct} across {int(bag_counts.sum())} segments"
            )
        log.warning("bag %s mixes genres %s; majority label %d chosen", key, distinct, label)
    return labels


def segment_bags(table: SegmentTable) -> BagSet:
    """Every segment as its own bag with its own genre, in track id order."""
    rows = _track_order(table)
    return BagSet(table, rows, np.arange(len(rows)), np.fromiter(table.genre_ids, np.intp)[rows])


def _track_order(table: SegmentTable) -> np.ndarray:
    """The table's rows in track id order."""
    return np.fromiter(sorted(range(len(table)), key=table.track_ids.__getitem__), np.intp,
                       len(table))


def align_features(wanted_ids, track_ids, values: np.ndarray) -> np.ndarray:
    """The rows of values (row i belongs to track_ids[i]) for wanted_ids, in
    order. A wanted id with no row raises MissingFeature naming the first."""
    row_of = dict(zip(track_ids, range(len(track_ids))))
    try:
        index = np.fromiter(map(row_of.__getitem__, wanted_ids), np.intp, len(wanted_ids))
    except KeyError as exc:
        raise MissingFeature(f"no features for segment {exc.args[0]!r}") from None
    return values[index]


def save_bags_csv(path, bags: BagSet):
    t = bags.table
    lines = ["artist_id,album_id,split,genre,track_ids"]
    for members, genre_id in zip(np.split(bags.rows, bags.starts[1:]), bags.genre_ids.tolist()):
        first = members[0]
        ids = ";".join(map(t.track_ids.__getitem__, members.tolist()))
        lines.append(f"{t.artist_ids[first]},{t.album_ids[first]},{t.splits[first]},"
                     f"{t.vocabulary.names[genre_id]},{ids}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
