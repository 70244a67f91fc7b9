"""The whole-file readers and writers against the per-cell loops they replaced.

Each reference below is the loop the fast path replaced, kept here so the fast
path is proven equal to it: bitwise for the feature cache read, byte for byte
for the feature cache write, pr.csv and predict output. The feature cache's
binary sidecar is proven equal to the text parse it stands in for, and never
served for a CSV it was not written with.
"""

import hashlib
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matt.cli import format_predictions
from matt.dataset import load_metadata
from matt.dsp import read_feature_csv, write_feature_csv
from matt.dsp.cache import (
    FEATURE_MAGIC,
    FEATURE_VERSION,
    SIDECAR_HEAD,
    format_feature_rows,
    parse_feature_rows,
)
from matt.errors import CorruptAudio, DuplicateTrack, NotUtf8, ShapeError
from matt.evaluation import EvalReport
from matt.textfmt import BLOCK


def format_value(x: float) -> str:
    """The per-cell format every reference below writes a number with."""
    return "%.9g" % x


def reference_write_feature_csv(path, columns, track_ids, values):
    rows = dict(zip(track_ids, values))
    lines = ["track_id," + ",".join(columns)]
    for track_id in sorted(rows):
        vector = np.asarray(rows[track_id], dtype=np.float32)
        lines.append(track_id + "," + ",".join(format_value(float(v)) for v in vector))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_read_feature_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    n_cols = lines[0].count(",")
    ids, rows = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        assert len(parts) == n_cols + 1
        ids.append(parts[0])
        with np.errstate(over="ignore"):  # beyond float32 range is inf, as in the loader
            rows.append(np.array([float(p) for p in parts[1:]], dtype=np.float32))
    return ids, np.array(rows, dtype=np.float32).reshape(len(ids), n_cols)


def assert_same_table(table, reference):
    """Same ids in the same order and a float32 matrix of the same shape,
    bitwise equal."""
    (ids, values), (reference_ids, reference_values) = table, reference
    assert ids == reference_ids
    assert values.dtype == np.float32 and values.shape == reference_values.shape
    assert values.tobytes() == reference_values.tobytes()


def read_served_and_parsed(path):
    """The sidecar read, with the text parser barred from running, and the
    text parse of the same CSV after the sidecar is deleted."""
    with mock.patch("matt.dsp.cache.parse_feature_rows", side_effect=AssertionError("parsed")):
        served = read_feature_csv(path)
    Path(f"{path}.bin").unlink()
    return served, read_feature_csv(path)


def read_parsed(path):
    """read_feature_csv, asserting that it parsed the text and wrote nothing."""
    before = {p: p.read_bytes() for p in Path(path).parent.iterdir()}
    with mock.patch(
        "matt.dsp.cache.parse_feature_rows", wraps=parse_feature_rows
    ) as parser:
        table = read_feature_csv(path)
    assert parser.called, "the sidecar was served"
    assert {p: p.read_bytes() for p in Path(path).parent.iterdir()} == before
    return table


def reference_pr_csv(points) -> str:
    body = "".join(f"{t:.9g},{p:.9g},{r:.9g}\n" for t, p, r in points)
    return "threshold,precision,recall\n" + body


def reference_predictions(track_ids, names, probabilities, weights) -> str:
    top = np.argsort(-probabilities, axis=1, kind="stable")[:, :5]
    lines = []
    for track_id, p, order, weight in zip(track_ids, probabilities, top, weights):
        top5 = ";".join(f"{names[g]}:{format_value(float(p[g]))}" for g in order)
        lines.append(
            f"{track_id},{names[int(order[0])]},{format_value(float(p[order[0]]))},"
            f"{top5},{format_value(float(weight))}"
        )
    return "\n".join(lines) + "\n"


F32 = np.finfo(np.float32)
SPECIAL_FLOAT32 = [
    0.0, -0.0, np.nan, np.inf, -np.inf,
    float(F32.max), -float(F32.max), float(F32.tiny), -float(F32.tiny),
    float(F32.smallest_subnormal), -float(F32.smallest_subnormal),
    float(np.float32(F32.tiny) * np.float32(0.75)),  # a larger subnormal
]

float32_cells = st.one_of(
    st.sampled_from(SPECIAL_FLOAT32), st.floats(width=32, allow_nan=True)
).map(format_value)
# 17 significant digits: more than float32 holds, so the parse must round once
seventeen_digit_cells = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda x: "%.17g" % x
)
cells = st.tuples(
    st.one_of(float32_cells, seventeen_digit_cells),
    st.sampled_from(["", " ", "  ", "\t"]),
    st.sampled_from(["", " ", "\t "]),
).map(lambda t: t[1] + t[0] + t[2])


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n_rows=st.integers(1, 6),
    n_values=st.integers(1, 7),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_feature_csv_equals_the_per_cell_reference_bitwise(
    tmp_path_factory, data, n_rows, n_values, newline
):
    ids = data.draw(
        st.lists(
            st.text("abcxyz019_-.", min_size=1, max_size=6), min_size=n_rows,
            max_size=n_rows, unique=True,
        )
    )
    header = "track_id," + ",".join(f"f_mean_{i}" for i in range(n_values))
    rows = [
        track_id + "," + ",".join(data.draw(st.lists(cells, min_size=n_values, max_size=n_values)))
        for track_id in ids
    ]
    path = tmp_path_factory.mktemp("cache") / "set.csv"
    path.write_bytes(newline.join([header, *rows, ""]).encode("utf-8"))

    assert_same_table(read_feature_csv(path), reference_read_feature_csv(path))


# float32 values whose %.9g text is a rounding edge: the last digit rounds
# up to a new decade or exponent, or the value is one ulp from a round number
NINE_DIGIT_EDGES = [
    0.1, 1.0 / 3.0, 0.99999994, 1.00000012, 123456789.0, 999999999.0, 9.99999975e-6,
    99999.9961, 16777217.0, 1e10, 4.2949673e9, 2.5e-38, 1e-40, 3.4028235e38,
]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.sampled_from(SPECIAL_FLOAT32 + NINE_DIGIT_EDGES),
            st.floats(width=32, allow_nan=True),
            # float64 within float32 range: rounded to float32 on write
            st.floats(-float(F32.max), float(F32.max)),
        ),
        min_size=1, max_size=60,
    ),
    n_columns=st.integers(1, 6),
)
def test_feature_csv_write_equals_the_per_cell_reference(tmp_path_factory, values, n_columns):
    n_rows = -(-len(values) // n_columns)
    cells = (values * n_columns)[: n_rows * n_columns]
    ids = [f"t{i:02d}{'ab'[i % 2]}" for i in range(n_rows)]
    values = np.array(cells).reshape(n_rows, n_columns)
    columns = [f"f_mean_{i}" for i in range(n_columns)]
    out = tmp_path_factory.mktemp("write")
    write_feature_csv(out / "fast.csv", columns, ids, values)
    reference_write_feature_csv(out / "reference.csv", columns, ids, values)
    assert (out / "fast.csv").read_bytes() == (out / "reference.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK, BLOCK + 3])
def test_feature_csv_write_blocks_equal_the_per_cell_reference(tmp_path, n_rows):
    # every float32 bit pattern is equally likely, subnormals and -0.0 included
    bits = np.random.default_rng(n_rows).integers(0, 2**32, size=(n_rows, 5), dtype=np.uint32)
    bits[:1, :2] = [0x80000000, 0x00000001]  # -0.0 and the smallest subnormal
    # rows given in reverse id order, so the writer's sort moves every row
    ids = [f"trk{i:05d}" for i in range(n_rows)][::-1]
    values = bits.view(np.float32)
    columns = [f"f_mean_{i}" for i in range(5)]
    write_feature_csv(tmp_path / "fast.csv", columns, ids, values)
    # the writer stores NaN as the text parses it, in its own copy of each block
    assert values.view(np.uint32).tobytes() == bits.tobytes()
    reference_write_feature_csv(tmp_path / "reference.csv", columns, ids, values)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    # the sidecar is written in the same blocks; its read equals the text parse
    assert_same_table(*read_served_and_parsed(tmp_path / "fast.csv"))


def test_part_row_equals_the_per_cell_reference():
    # extract-features writes each track's part file as one such row
    vector = np.array([-0.0, 1e-45, 0.99999994, 1.0 / 3.0, np.nan, -np.inf], dtype=np.float32)
    expected = "trk7," + ",".join(format_value(float(v)) for v in vector) + "\n"
    assert format_feature_rows(["trk7"], vector[np.newaxis, :]) == expected


@pytest.mark.parametrize(
    "ids", [["t\x00", "t"], ["", "t"], ["\x00", ""]], ids=["nul-in-id", "empty-id", "nul-and-empty"]
)
def test_feature_csv_write_keeps_nul_and_empty_ids(tmp_path, ids):
    # the cells are joined by dropping their padding; an id's own bytes stay
    values = np.float32([[1.5, -0.0], [np.nan, 3e-45]])
    write_feature_csv(tmp_path / "fast.csv", ["x_0", "x_1"], ids, values)
    reference_write_feature_csv(tmp_path / "reference.csv", ["x_0", "x_1"], ids, values)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_header_only_feature_csv_is_empty_without_a_warning(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("track_id,f_mean_0,f_mean_1\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids, values = read_feature_csv(path)
    assert ids == [] and values.shape == (0, 2) and values.dtype == np.float32


BAD_ROWS = [
    ("b,1,2,3", CorruptAudio, "track 'b': row width 4 != header 3"),
    ("b,1", CorruptAudio, "track 'b': row width 2 != header 3"),
    ("a,5,6", DuplicateTrack, "duplicate track 'a'"),
    ("b,1,abc", CorruptAudio, "track 'b': 'abc' is not a number"),
    ("b,1,", CorruptAudio, "track 'b': '' is not a number"),
    # float() takes these two; the loader does not, and the reader says so
    ("b,1_000,2", CorruptAudio, "track 'b': '1_000' is not a number"),
    ("b,1,١", CorruptAudio, "track 'b': '١' is not a number"),
]


@pytest.mark.parametrize("row, error, message", BAD_ROWS)
def test_bad_feature_row_names_the_file_and_track(tmp_path, row, error, message):
    path = tmp_path / "set.csv"
    path.write_text(f"track_id,x_0,x_1\na,1,2\n{row}\nc,3,4\n", encoding="utf-8")
    with pytest.raises(error) as info:
        read_feature_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_parse_feature_rows_names_the_first_bad_row_not_a_later_one():
    lines = ["a,1,2", "b, 1.5,2", "c,1,x", "d,y,2"]  # no-break space is accepted
    with pytest.raises(CorruptAudio, match=r"^src: track 'c': 'x' is not a number$"):
        parse_feature_rows(lines, 2, "src")


@pytest.mark.parametrize("reader", [read_feature_csv, load_metadata])
def test_non_utf8_text_names_the_file_and_line(tmp_path, reader):
    path = tmp_path / "input.csv"
    header = b"track_id,album_id,artist_id,genre,split"
    path.write_bytes(header + b"\nt1,a,p,rock,train\nt2,a,p,caf\xe9,train\n")
    with pytest.raises(NotUtf8, match=r"input\.csv: line 3 is not UTF-8 \(byte 0xe9\)$"):
        reader(path)


def test_metadata_with_a_utf8_byte_order_mark_reads_as_without(tmp_path):
    # spreadsheet programs save "CSV UTF-8" with a byte-order mark
    text = "track_id,album_id,artist_id,genre,split\nt1,a,p,rock,train\nt2,,p,jazz,test\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_metadata(marked) == load_metadata(plain)


def test_feature_csv_text_with_a_utf8_byte_order_mark_reads_as_without(tmp_path):
    text = "track_id,x_0,x_1\nt1,1,2\nt2,3.5,-4\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert_same_table(read_parsed(marked), read_parsed(plain))


sidecar_cells = st.one_of(
    st.sampled_from(SPECIAL_FLOAT32),
    st.floats(width=32, allow_nan=True),
    # any bit pattern: NaNs with a sign or payload the text cannot carry
    st.integers(0, 2**32 - 1).map(lambda b: np.uint32(b).view(np.float32)),
)
track_ids = st.text(
    st.characters(blacklist_characters=",\r\n", blacklist_categories=("Cs",)), max_size=6
)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n_rows=st.integers(0, 6), n_values=st.integers(1, 5))
def test_sidecar_read_equals_the_text_parse_bitwise(tmp_path_factory, data, n_rows, n_values):
    ids = data.draw(st.lists(track_ids, min_size=n_rows, max_size=n_rows, unique=True))
    cells = st.lists(sidecar_cells, min_size=n_values, max_size=n_values)
    values = np.array([data.draw(cells) for _ in ids], dtype=np.float32).reshape(n_rows, n_values)
    path = tmp_path_factory.mktemp("sidecar") / "set.csv"
    write_feature_csv(path, [f"f_mean_{i}" for i in range(n_values)], ids, values)
    served, parsed = read_served_and_parsed(path)
    assert_same_table(served, parsed)
    order = sorted(range(n_rows), key=ids.__getitem__)
    assert served[0] == [ids[i] for i in order]
    assert np.array_equal(served[1], values[order], equal_nan=True)


def small_cache(path, offset=0.0):
    values = np.float32([[1.5 + offset, -0.0], [np.nan, 3e-45], [-np.inf, 2.0]])
    write_feature_csv(path, ["x_0", "x_1"], ["a", "b", "c"], values)
    return path


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("1.5", "1.25"),
        lambda text: text + "d,4,5\n",
        lambda text: text.replace("\n", "\r\n"),
    ],
    ids=["cell-changed", "row-appended", "crlf"],
)
def test_sidecar_of_an_edited_csv_is_not_served(tmp_path, edit):
    path = small_cache(tmp_path / "set.csv")
    path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8"))
    assert_same_table(read_parsed(path), reference_read_feature_csv(path))


def test_sidecar_of_a_different_csv_is_not_served(tmp_path):
    path = small_cache(tmp_path / "set.csv")
    other = small_cache(tmp_path / "other.csv", offset=1.0)
    Path(f"{path}.bin").write_bytes(Path(f"{other}.bin").read_bytes())
    assert_same_table(read_parsed(path), reference_read_feature_csv(path))


def test_truncated_or_flipped_sidecar_is_never_served(tmp_path):
    path = small_cache(tmp_path / "set.csv")
    sidecar = Path(f"{path}.bin")
    good = sidecar.read_bytes()
    truncated = [good[:n] for n in range(len(good))]
    flipped = [good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1 :] for i in range(len(good))]
    reference = reference_read_feature_csv(path)
    for blob in truncated + flipped:
        sidecar.write_bytes(blob)
        assert_same_table(read_parsed(path), reference)


@pytest.mark.parametrize("row, error, message", BAD_ROWS)
def test_bad_csv_beside_a_stale_sidecar_raises_the_text_error(tmp_path, row, error, message):
    path = tmp_path / "set.csv"
    write_feature_csv(path, ["x_0", "x_1"], ["a", "c"], np.float32([[1, 2], [3, 4]]))
    path.write_text(f"track_id,x_0,x_1\na,1,2\n{row}\nc,3,4\n", encoding="utf-8")
    with pytest.raises(error) as info:
        read_feature_csv(path)
    assert str(info.value) == f"{path}: {message}"


def test_non_utf8_csv_beside_a_stale_sidecar_names_the_file_and_line(tmp_path):
    path = small_cache(tmp_path / "set.csv")
    path.write_bytes(path.read_bytes().replace(b"b,", b"\xe9,"))
    with pytest.raises(NotUtf8, match=r"set\.csv: line 3 is not UTF-8 \(byte 0xe9\)$"):
        read_feature_csv(path)


@pytest.mark.parametrize(
    "columns, track_id",
    [(["x_0"], "a,b"), (["x_0"], "a\nb"), (["x_0"], "a\r"), (["x,0"], "a"), ([], "a")],
)
def test_feature_csv_write_rejects_what_the_text_cannot_hold(tmp_path, columns, track_id):
    # the text parse would split such a name or reject such a file; the
    # sidecar, written from the same rows, would then not equal it
    with pytest.raises(ShapeError, match="set.csv"):
        write_feature_csv(tmp_path / "set.csv", columns, [track_id], np.ones((1, len(columns))))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "ids, shape, error, message",
    [
        (["b", "a", "c", "a"], (4, 2), DuplicateTrack, "duplicate track 'a'"),
        (["b", "a"], (3, 2), ShapeError, r"values \(3, 2\) != \(2, 2\)"),
        (["b", "a"], (2, 3), ShapeError, r"values \(2, 3\) != \(2, 2\)"),
        (["b", "a"], (2,), ShapeError, r"values \(2,\) != \(2, 2\)"),
    ],
    ids=["repeated-id", "extra-row", "extra-column", "vector"],
)
def test_feature_csv_write_rejects_a_repeated_id_or_a_misshaped_matrix(
    tmp_path, ids, shape, error, message
):
    # a list of ids, unlike the keys of a dict, can repeat one; the text
    # parse would reject the file, and the sidecar would hold both rows
    with pytest.raises(error, match=f"^{tmp_path / 'set.csv'}: {message}$"):
        write_feature_csv(tmp_path / "set.csv", ["x_0", "x_1"], ids, np.ones(shape))
    assert list(tmp_path.iterdir()) == []


def write_sidecar(csv_path, id_block: bytes, n_rows: int, values: np.ndarray):
    """A sidecar whose digest and checksum are valid for the CSV as it is,
    holding any id block and row count the writer would never write."""
    head = SIDECAR_HEAD.pack(FEATURE_MAGIC, FEATURE_VERSION,
                             hashlib.sha256(Path(csv_path).read_bytes()).digest(),
                             n_rows, values.shape[1], len(id_block))
    body = head + id_block + np.ascontiguousarray(values, dtype="<f4").tobytes()
    Path(f"{csv_path}.bin").write_bytes(body + hashlib.sha256(body).digest())


@pytest.mark.parametrize("id_block", [b"t1\nt1", b"t1"], ids=["repeated-id", "one-id-two-rows"])
def test_sidecar_with_a_bad_id_block_is_not_served(tmp_path, id_block):
    values = np.float32([[1, 2], [3, 4]])
    # the crafted sidecar is served when its id block is sound
    path = tmp_path / "set.csv"
    path.write_text("track_id,x_0,x_1\nt1,1,2\nt2,3,4\n", encoding="utf-8")
    write_sidecar(path, b"t1\nt2", 2, values)
    served, parsed = read_served_and_parsed(path)
    assert_same_table(served, parsed)
    # with a repeated id, or one id for two rows, the text parse decides
    path.write_text("track_id,x_0,x_1\nt1,1,2\nt1,3,4\n", encoding="utf-8")
    write_sidecar(path, id_block, 2, values)
    with pytest.raises(DuplicateTrack, match=f"^{path}: duplicate track 't1'$"):
        read_feature_csv(path)


def test_sidecar_with_a_non_utf8_id_block_falls_back_to_the_text(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("track_id,x_0\nt1,1\n", encoding="utf-8")
    write_sidecar(path, b"t\xe9", 1, np.float32([[2]]))
    assert_same_table(read_parsed(path), (["t1"], np.float32([[1]])))


PR_POINTS = [
    (1.0, 1.0, 0.0625),
    (0.5, 0.5, 0.0625),  # a tie group ends here
    (0.1 + 0.2, 2 / 3, 1 / 3),
    (1e-300, 0.123456789012, 0.999999999999),
    (5e-324, 1e-9, 1.0),
    (123456789012.0, 0.0, 1.0),
    (-0.0, float("nan"), float("inf")),
]


@pytest.mark.parametrize("n_points", [0, 7, 4096, 9000])
def test_pr_csv_equals_the_per_line_reference(tmp_path, n_points):
    # no points, the hand-picked ones, and lengths at and past a write block
    extra = np.random.default_rng(n_points).uniform(size=(n_points, 3)).tolist()
    points = (PR_POINTS + [tuple(p) for p in extra])[:n_points]
    report = EvalReport(
        mode="bag", overall_accuracy=0.5, top_k={}, pr_points=points,
        average_precision=0.5, n_units=4, subset_sizes={},
    )
    report.write_pr_csv(tmp_path / "pr.csv")
    assert (tmp_path / "pr.csv").read_bytes() == reference_pr_csv(points).encode()


@pytest.mark.parametrize("n_genres", [1, 3, 5, 9])
def test_predictions_equal_the_per_line_reference(n_genres):
    rng = np.random.default_rng(n_genres)
    logits = rng.standard_normal((7, n_genres)) * 40
    probabilities = np.exp(logits - logits.max(axis=1, keepdims=True))
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    probabilities[0] = 1.0 / n_genres  # every genre tied
    probabilities[1, 0] = 1e-300
    # partly tied: with nine genres, 2, 5 and 8 share the top value and the
    # other six share a lower one, so the five picks cross two ties
    shares = np.where(np.arange(n_genres) % 3 == 2, 3.0, 1.0)
    probabilities[2] = shares / shares.sum()
    weights = np.concatenate([[1.0, 0.25, 1e-12, 123456.5], rng.uniform(0, 1, 3)])
    names = [f"genre{g}" for g in range(n_genres)]
    track_ids = [f"t{i}" for i in range(7)]
    assert format_predictions(track_ids, names, probabilities, weights) == (
        reference_predictions(track_ids, names, probabilities, weights)
    )


@pytest.mark.parametrize("n_points", [0, BLOCK // 3, BLOCK // 3 + 1])
def test_pr_csv_of_a_list_equals_the_per_line_reference(tmp_path, n_points):
    # a list of tuples, written BLOCK // 3 points at a time
    points = [tuple(p) for p in np.random.default_rng(n_points).uniform(size=(n_points, 3))]
    report = EvalReport(
        mode="bag", overall_accuracy=0.5, top_k={}, pr_points=points,
        average_precision=0.5, n_units=4, subset_sizes={},
    )
    report.write_pr_csv(tmp_path / "pr.csv")
    assert (tmp_path / "pr.csv").read_bytes() == reference_pr_csv(points).encode()


def test_predictions_keep_nul_in_names_and_track_ids():
    probabilities = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3], [0.0, 1.0, 0.0]])
    names = ["ro\x00ck", "jazz", "\x00"]
    track_ids = ["t\x000", "\x00", ""]
    weights = np.ones(3)
    assert format_predictions(track_ids, names, probabilities, weights) == (
        reference_predictions(track_ids, names, probabilities, weights)
    )
