"""Metadata ingestion and album-artist bag construction.

A bag groups every segment sharing (artist_id, album_id, split) under one
genre label; segments with missing artist or album metadata become singleton
bags. Bags never cross splits, so training can't leak into test through a
shared album.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

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


class SegmentRecord(NamedTuple):
    """One metadata row; a tuple, so building one per row costs no per-field setattr."""

    track_id: str
    album_id: str
    artist_id: str
    genre_id: int
    split: str


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
    records: tuple[SegmentRecord, ...]
    vocabulary: GenreVocabulary

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
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
    """Parse header + rows into a SegmentTable; builds the vocabulary on the fly."""
    rows = [ln.rstrip("\n") for ln in lines]
    rows = [ln for ln in rows if ln.strip()]
    if not rows or rows[0].strip() != METADATA_HEADER:
        raise BadHeader(f"{source}: expected header {METADATA_HEADER!r}")
    names: list[str] = []
    genre_index: dict[str, int] = {}
    seen: set[str] = set()
    records = []
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
        if genre not in genre_index:
            genre_index[genre] = len(names)
            names.append(genre)
        records.append(SegmentRecord(track_id, album_id, artist_id, genre_index[genre], split))
    if not records:
        raise BadHeader(f"{source}: no rows after the header")
    counts = [0] * len(names)
    for rec in records:
        if rec.split == "train":
            counts[rec.genre_id] += 1
    vocab = GenreVocabulary(names=tuple(names), train_counts=tuple(counts))
    return SegmentTable(records=tuple(records), vocabulary=vocab)


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
    if label_policy not in ("strict", "majority"):
        raise InvalidConfig(f"unknown label policy {label_policy!r}")
    groups: dict[tuple, list[SegmentRecord]] = {}
    for rec in table.records:
        if rec.artist_id and rec.album_id:
            key = (rec.artist_id, rec.album_id, rec.split, "")
        else:
            # missing metadata: private key component keeps the bag singleton
            key = (rec.artist_id, rec.album_id, rec.split, rec.track_id)
        groups.setdefault(key, []).append(rec)

    bags = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: r.track_id)
        labels = [r.genre_id for r in members]
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
            log.warning(
                "bag %s mixes genres %s; majority label %d chosen", key[:3], distinct, genre_id
            )
        bags.append(
            Bag(
                key=key[:3],
                segment_ids=tuple(r.track_id for r in members),
                genre_id=genre_id,
            )
        )
    return BagSet(bags=tuple(bags), vocabulary=table.vocabulary)


def save_bags_csv(path, bags: BagSet):
    lines = ["artist_id,album_id,split,genre,track_ids"]
    for b in bags.bags:
        genre = bags.vocabulary.names[b.genre_id]
        lines.append(f"{b.key[0]},{b.key[1]},{b.key[2]},{genre}," + ";".join(b.segment_ids))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
