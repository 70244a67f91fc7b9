"""Metadata ingestion and album-artist bag construction.

A bag groups every segment sharing (artist_id, album_id, split) under one
genre label; segments with missing artist or album metadata become singleton
bags. Bags never cross splits, so training can't leak into test through a
shared album.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, groupby, repeat
from operator import itemgetter

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
    split_codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        codes = map(SPLIT_CODES.__getitem__, self.splits)
        object.__setattr__(self, "split_codes", np.fromiter(codes, np.int8, len(self.splits)))

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
    n = next((i for i, ln in enumerate(rows) if ln.count(",") != 4), len(rows))
    fields = ",".join(rows[:n]).split(",")
    track_ids, album_ids, artist_ids, genres, splits = (
        tuple(map(str.strip, fields[c::5])) for c in range(5, 10)
    )
    _check_columns(source, track_ids, genres, splits)
    if n < len(rows):
        ln = rows[n].rstrip("\n")
        raise BadHeader(f"{source}: row has {ln.count(',') + 1} fields: {ln!r}")
    if not track_ids:
        raise BadHeader(f"{source}: no rows after the header")
    genre_index = {name: i for i, name in enumerate(dict.fromkeys(genres))}
    train = Counter(compress(genres, map("train".__eq__, splits)))
    vocabulary = GenreVocabulary(tuple(genre_index), tuple(map(train.__getitem__, genre_index)))
    genre_ids = tuple(map(genre_index.__getitem__, genres))
    return SegmentTable(track_ids, album_ids, artist_ids, genre_ids, splits, vocabulary)


def _check_columns(source: str, track_ids, genres, splits):
    """Check whole columns; when one fails, raise for the first bad row."""
    unique = set(track_ids)
    if (len(unique) == len(track_ids) and "" not in unique and "" not in genres
            and set(splits).issubset(SPLITS)):
        return
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
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_metadata_lines(fh, source=str(path))
    except OSError as exc:
        raise ValidationError(f"cannot read metadata {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise NotUtf8.in_file(path) from None


def build_bags(table: SegmentTable, label_policy: str = "majority") -> BagSet:
    """Group segments into album-artist bags within each split.

    Segments with an empty artist or album id become singleton bags. When a
    bag's members disagree on genre, "majority" picks the most common label
    (ties broken by lowest genre_id, with a warning); "strict" raises.
    """
    if label_policy not in LABEL_POLICIES:
        raise InvalidConfig(f"unknown label policy {label_policy!r}")
    # one sort orders bags by (artist, album, split) and members by track id;
    # track ids are unique, so the row index is never compared
    order = sorted(zip(table.artist_ids, table.album_ids, table.splits, table.track_ids,
                       range(len(table))))
    rows, sizes, genre_ids = [], [], []
    for key, run in groupby(order, itemgetter(0, 1, 2)):
        members = [r[4] for r in run]
        labels = list(map(table.genre_ids.__getitem__, members))
        rows += members
        if not (key[0] and key[1]):
            # missing metadata: every segment is its own bag
            sizes += repeat(1, len(members))
            genre_ids += labels
            continue
        distinct = sorted(set(labels))
        if len(distinct) == 1:
            genre_id = distinct[0]
        elif label_policy == "strict":
            raise InconsistentBagLabel(
                f"bag {key} mixes genres {distinct} across {len(labels)} segments"
            )
        else:
            genre_id = max(distinct, key=labels.count)  # a tie keeps the first, lowest id
            log.warning(
                "bag %s mixes genres %s; majority label %d chosen", key, distinct, genre_id
            )
        sizes.append(len(members))
        genre_ids.append(genre_id)
    sizes = np.array(sizes, dtype=np.intp)
    return BagSet(table, np.array(rows, dtype=np.intp), np.cumsum(sizes) - sizes,
                  np.array(genre_ids, dtype=np.intp))


def segment_bags(table: SegmentTable) -> BagSet:
    """Every segment as its own bag with its own genre, in track id order."""
    rows = np.array(sorted(range(len(table)), key=table.track_ids.__getitem__), dtype=np.intp)
    return BagSet(table, rows, np.arange(len(rows)), np.array(table.genre_ids)[rows])


def align_features(wanted_ids, track_ids, values: np.ndarray) -> np.ndarray:
    """The rows of values (row i belongs to track_ids[i]) for wanted_ids, in
    order. A wanted id with no row raises MissingFeature naming the first."""
    row_of = dict(zip(track_ids, range(len(track_ids))))
    try:
        return values[list(map(row_of.__getitem__, wanted_ids))]
    except KeyError as exc:
        raise MissingFeature(f"no features for segment {exc.args[0]!r}") from None


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
