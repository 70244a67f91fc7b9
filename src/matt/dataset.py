"""Metadata ingestion and album-artist bag construction.

A bag groups every segment sharing (artist_id, album_id, split) under one
genre label; segments with missing artist or album metadata become singleton
bags. Bags never cross splits, so training can't leak into test through a
shared album.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import compress, groupby, repeat
from operator import itemgetter

import numpy as np

from .errors import (
    BadHeader,
    BadSplit,
    DuplicateTrack,
    InconsistentBagLabel,
    InvalidConfig,
    NotUtf8,
    ValidationError,
)

log = logging.getLogger(__name__)

METADATA_HEADER = "track_id,album_id,artist_id,genre,split"
SPLITS = ("train", "validation", "test")
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
    """Metadata stored by column in file order: row i is entry i of each column."""

    track_ids: tuple[str, ...]
    album_ids: tuple[str, ...]
    artist_ids: tuple[str, ...]
    genre_ids: tuple[int, ...]
    splits: tuple[str, ...]
    vocabulary: GenreVocabulary

    def __len__(self) -> int:
        return len(self.track_ids)


@dataclass(frozen=True, slots=True)
class Bag:
    key: tuple[str, str, str]  # (artist_id, album_id, split)
    segment_ids: tuple[str, ...]
    genre_id: int

    @property
    def split(self) -> str:
        return self.key[2]

    def __len__(self) -> int:
        return len(self.segment_ids)


@dataclass(frozen=True)
class BagSet:
    bags: tuple[Bag, ...]
    vocabulary: GenreVocabulary

    def split_bags(self, split: str) -> list[Bag]:
        return [b for b in self.bags if b.split == split]


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
    # track ids are unique, so the genre column is never compared
    rows = sorted(zip(table.artist_ids, table.album_ids, table.splits, table.track_ids,
                      table.genre_ids))
    bags = []
    for key, run in groupby(rows, itemgetter(0, 1, 2)):
        *_, segment_ids, labels = zip(*run)
        if not (key[0] and key[1]):
            # missing metadata: every segment is its own bag
            bags.extend(map(Bag, repeat(key), zip(segment_ids), labels))
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
        bags.append(Bag(key=key, segment_ids=segment_ids, genre_id=genre_id))
    return BagSet(bags=tuple(bags), vocabulary=table.vocabulary)


def save_bags_csv(path, bags: BagSet):
    lines = ["artist_id,album_id,split,genre,track_ids"]
    for b in bags.bags:
        genre = bags.vocabulary.names[b.genre_id]
        lines.append(f"{b.key[0]},{b.key[1]},{b.key[2]},{genre}," + ";".join(b.segment_ids))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
