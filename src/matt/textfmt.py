"""Bulk text output: float64 values as the exact bytes of `"%.9g" % v`.

The feature cache, the `.part` rows, `pr.csv` and the predictions print every
value as `%.9g` of its exact double. `float_cells` computes that text for a
whole array at once:

- digits: with `e = floor(log10|x|)` and `P` the correctly rounded double of
  `10**(8 - e)`, `y = |x| * P` is within ~3e-7 of the exact product, so where
  `y` is more than 1e-6 from a half-integer and `rint(y)` is in [10^8, 10^9),
  `rint(y)` is the correctly rounded 9-digit significand.
- escape: every other value (near a half-integer, rounding across a decade,
  0, inf, NaN, |x| outside [1e-299, 1e300)) is printed with `%` itself, one
  value at a time.
- layout: fixed for `e` in [-4, 8], otherwise scientific with a 2- or 3-digit
  exponent; trailing zeros, and a point with nothing after it, are dropped.

Cells are fixed-width rows of bytes padded with PAD, a byte that UTF-8 text
never holds: `join_rows` drops it wherever it is, and keeps every byte of a
text cell, NUL included.
"""

from __future__ import annotations

import math

import numpy as np

PAD = 0xFF
WIDTH = 17  # the longest %.9g text, "-1.23456789e-308", and a separator
BLOCK = 4096  # values per call: bounds the per-value temporaries (~0.2 KB each)
_GATHER = 512  # cells per gather: keeps its index (8 bytes per byte of cell) at 70 KB

# e + _E_BIAS indexes the per-exponent tables, for e in [-300, 300]
_E_BIAS = 300
_EXPONENTS = range(-_E_BIAS, _E_BIAS + 1)
_SCALE = np.array([float(f"1e{8 - e}") for e in _EXPONENTS])

# A cell is gathered from six 4-byte source words: the three 3-digit groups
# of the significand (each with a PAD after it), the exponent's sign and 3
# digits, the sign of the value with ".0e", and the separator with 3 PADs.
_GROUP_WORDS = [b"%03d\xff" % i for i in range(1000)]
_EXP_WORDS = [b"%c%03d" % (b"-+"[e >= 0], abs(e)) for e in _EXPONENTS]
_SIGN_WORDS = [b"\xff.0e", b"-.0e"]
_SEP_WORDS = [bytes([c]) + b"\xff\xff\xff" for c in range(256)]
_EXP_WORD = len(_GROUP_WORDS)  # + e + _E_BIAS
_SIGN_WORD = _EXP_WORD + len(_EXP_WORDS)  # + signbit
_SEP_WORD = _SIGN_WORD + len(_SIGN_WORDS)  # + separator
_WORDS = np.frombuffer(b"".join(_GROUP_WORDS + _EXP_WORDS + _SIGN_WORDS + _SEP_WORDS), np.uint32)
_SOURCE = 24  # source bytes per value
# where each byte of a cell comes from in a value's source bytes
_DIGIT_AT = [4 * (i // 3) + i % 3 for i in range(9)]  # the i-th significant digit
_PAD_AT, _EXP_AT, _SIGN_AT, _POINT_AT, _ZERO_AT, _E_AT, _SEP_AT = 3, 12, 16, 17, 18, 19, 20
_OFFSETS = np.arange(0, _GATHER * _SOURCE, _SOURCE)[:, np.newaxis]

# significant digits left in a 3-digit group once trailing zeros go, as the
# first, second and third group (0 for an all-zero second or third group)
_KEPT_1 = np.array([len((b"%03d" % i).rstrip(b"0")) for i in range(1000)])
_KEPT_2 = np.where(_KEPT_1 > 0, _KEPT_1 + 3, 0)
_KEPT_3 = np.where(_KEPT_1 > 0, _KEPT_1 + 6, 0)


def _layout(e: int, digits: int) -> list[int]:
    """Where each byte of the cell of a value with exponent e and that many
    significant digits comes from."""
    significand = _DIGIT_AT[:digits]
    if -4 <= e < 0:
        body = [_ZERO_AT, _POINT_AT] + [_ZERO_AT] * (-e - 1) + significand
    elif 0 <= e <= 8:
        fraction = significand[e + 1 :]
        body = significand[: e + 1] + [_ZERO_AT] * (e + 1 - digits)
        body += [_POINT_AT] + fraction if fraction else []
    else:
        fraction = [_POINT_AT] + significand[1:] if digits > 1 else []
        exponent = [_EXP_AT + i for i in range(1 if abs(e) >= 100 else 2, 4)]
        body = significand[:1] + fraction + [_E_AT, _EXP_AT] + exponent
    return [_SIGN_AT] + body + [_PAD_AT] * (WIDTH - 2 - len(body)) + [_SEP_AT]


def _class(e: int) -> int:
    """The exponent that stands for e's layout: e itself where it is fixed,
    else +-10 or +-100 by its sign and exponent width."""
    return e if -4 <= e <= 8 else int(math.copysign(10 if abs(e) < 100 else 100, e))


# one layout per class and count of significant digits (none for 0), and
# each exponent's first layout
_CLASSES = [*range(-4, 9), -10, -100, 10, 100]
_LAYOUTS = np.array([_layout(e, max(d, 1)) for e in _CLASSES for d in range(10)])
_CLASS = np.array([10 * _CLASSES.index(_class(e)) for e in _EXPONENTS])


def float_cells(values, separators: bytes) -> np.ndarray:
    """values.shape + (WIDTH,) uint8: each value's `"%.9g" % v` in ASCII,
    then the separator of its column of the last axis (one byte per column,
    or one for all), padded with PAD. Its temporaries grow with the count,
    so callers pass at most BLOCK values at a time."""
    with np.errstate(invalid="ignore"):  # widening a signalling NaN sets the flag
        values = np.asarray(values, dtype=np.float64)
    x = values.ravel()
    a = np.abs(x)
    fast = (a >= 1e-299) & (a < 1e300)  # False for NaN
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    e += _E_BIAS
    y = a * _SCALE.take(e)
    d = np.rint(y)
    escape = ~fast | (np.abs(y - d) > 0.5 - 1e-6) | (d < 1e8) | (d >= 1e9)
    d[escape] = 1e8
    words = np.empty((len(x), 6), dtype=np.intp)
    high, words[:, 2] = np.divmod(d.astype(np.intp), 1000)
    np.divmod(high, 1000, out=(words[:, 0], words[:, 1]))
    np.add(e, _EXP_WORD, out=words[:, 3])
    np.add(np.signbit(x), _SIGN_WORD, out=words[:, 4])
    separator = np.frombuffer(separators, np.uint8).astype(np.intp)
    words.reshape(values.shape + (6,))[..., 5] = _SEP_WORD + separator
    source = _WORDS.take(words).view(np.uint8).ravel()
    kept = np.maximum(_KEPT_1.take(words[:, 0]), _KEPT_2.take(words[:, 1]))
    np.maximum(kept, _KEPT_3.take(words[:, 2]), out=kept)
    layout = _CLASS.take(e) + kept
    cells = np.empty((len(x), WIDTH), dtype=np.uint8)
    for i in range(0, len(x), _GATHER):
        index = _LAYOUTS.take(layout[i : i + _GATHER], axis=0)
        index += _OFFSETS[: len(index)]
        source[i * _SOURCE :].take(index, out=cells[i : i + _GATHER], mode="clip")
    escaped = np.flatnonzero(escape)
    if len(escaped):
        texts = text_cells(("%.9g " * len(escaped) % tuple(x[escaped].tolist())).split())
        cells[escaped, : WIDTH - 1] = PAD
        cells[escaped, : texts.shape[1]] = texts
    return cells.reshape(values.shape + (WIDTH,))


def text_cells(strings) -> np.ndarray:
    """(len(strings), width) uint8: row i is the UTF-8 of strings[i], padded."""
    encoded = [s.encode("utf-8") for s in strings]
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    width = int(lengths.max(initial=0))
    chars = np.full((len(encoded), width), PAD, dtype=np.uint8)
    chars[np.arange(width) < lengths[:, np.newaxis]] = np.frombuffer(b"".join(encoded), np.uint8)
    return chars


def side_by_side(*pieces) -> np.ndarray:
    """The pieces (cell arrays, or bytes for the same bytes everywhere)
    concatenated along their last axis, broadcast over the leading ones."""
    arrays = [np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p for p in pieces]
    shape = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    return np.concatenate([np.broadcast_to(a, shape + a.shape[-1:]) for a in arrays], axis=-1)


def join_rows(*pieces) -> bytes:
    """The text of (rows, ...) cell arrays and bytes pieces side by side: row
    by row, each row's cells in turn, without the padding."""
    rows = next(len(p) for p in pieces if not isinstance(p, bytes))
    flat = [p if isinstance(p, bytes) else p.reshape(rows, math.prod(p.shape[1:])) for p in pieces]
    return side_by_side(*flat).tobytes().translate(None, bytes([PAD]))
