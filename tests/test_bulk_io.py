"""The whole-file readers and writers against the per-cell loops they replaced.

Each reference below is the loop the fast path replaced, kept here so the fast
path is proven equal to it: bitwise for the feature cache read, byte for byte
for the feature cache write, pr.csv and predict output.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matt.cli import format_predictions
from matt.dataset import load_metadata
from matt.dsp import read_feature_csv, write_feature_csv
from matt.dsp.cache import WRITE_BLOCK, format_feature_rows, parse_feature_rows
from matt.errors import CorruptAudio, DuplicateTrack, NotUtf8
from matt.evaluation import EvalReport


def format_value(x: float) -> str:
    """The per-cell format every reference below writes a number with."""
    return "%.9g" % x


def reference_write_feature_csv(path, columns, rows):
    lines = ["track_id," + ",".join(columns)]
    for track_id in sorted(rows):
        vector = np.asarray(rows[track_id], dtype=np.float32)
        lines.append(track_id + "," + ",".join(format_value(float(v)) for v in vector))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_read_feature_csv(path) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    n_cols = lines[0].count(",")
    rows = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        assert len(parts) == n_cols + 1
        with np.errstate(over="ignore"):  # beyond float32 range is inf, as in the loader
            rows[parts[0]] = np.array([float(p) for p in parts[1:]], dtype=np.float32)
    return rows


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

    fast, reference = read_feature_csv(path), reference_read_feature_csv(path)
    assert list(fast) == list(reference)
    for track_id, vector in reference.items():
        assert fast[track_id].dtype == np.float32
        assert fast[track_id].tobytes() == vector.tobytes()


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
    rows = {
        f"t{i:02d}{'ab'[i % 2]}": np.array(cells[i * n_columns : (i + 1) * n_columns])
        for i in range(n_rows)
    }
    columns = [f"f_mean_{i}" for i in range(n_columns)]
    out = tmp_path_factory.mktemp("write")
    write_feature_csv(out / "fast.csv", columns, rows)
    reference_write_feature_csv(out / "reference.csv", columns, rows)
    assert (out / "fast.csv").read_bytes() == (out / "reference.csv").read_bytes()


@pytest.mark.parametrize("n_rows", [0, 1, WRITE_BLOCK, WRITE_BLOCK + 3])
def test_feature_csv_write_blocks_equal_the_per_cell_reference(tmp_path, n_rows):
    # every float32 bit pattern is equally likely, subnormals and -0.0 included
    bits = np.random.default_rng(n_rows).integers(0, 2**32, size=(n_rows, 5), dtype=np.uint32)
    bits[:1, :2] = [0x80000000, 0x00000001]  # -0.0 and the smallest subnormal
    rows = {f"trk{i:05d}": v for i, v in enumerate(bits.view(np.float32))}
    columns = [f"f_mean_{i}" for i in range(5)]
    write_feature_csv(tmp_path / "fast.csv", columns, rows)
    reference_write_feature_csv(tmp_path / "reference.csv", columns, rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_part_row_equals_the_per_cell_reference():
    # extract-features writes each track's part file as one such row
    vector = np.array([-0.0, 1e-45, 0.99999994, 1.0 / 3.0, np.nan, -np.inf], dtype=np.float32)
    expected = "trk7," + ",".join(format_value(float(v)) for v in vector) + "\n"
    assert format_feature_rows(["trk7"], vector[np.newaxis, :]) == expected


def test_header_only_feature_csv_is_empty_without_a_warning(tmp_path):
    path = tmp_path / "set.csv"
    path.write_text("track_id,f_mean_0,f_mean_1\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert read_feature_csv(path) == {}


@pytest.mark.parametrize(
    "row, error, message",
    [
        ("b,1,2,3", CorruptAudio, "track 'b': row width 4 != header 3"),
        ("b,1", CorruptAudio, "track 'b': row width 2 != header 3"),
        ("a,5,6", DuplicateTrack, "duplicate track 'a'"),
        ("b,1,abc", CorruptAudio, "track 'b': 'abc' is not a number"),
        ("b,1,", CorruptAudio, "track 'b': '' is not a number"),
        # float() takes these two; the loader does not, and the reader says so
        ("b,1_000,2", CorruptAudio, "track 'b': '1_000' is not a number"),
        ("b,1,١", CorruptAudio, "track 'b': '١' is not a number"),
    ],
)
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
    weights = np.concatenate([[1.0, 0.25, 1e-12, 123456.5], rng.uniform(0, 1, 3)])
    names = [f"genre{g}" for g in range(n_genres)]
    track_ids = [f"t{i}" for i in range(7)]
    assert format_predictions(track_ids, names, probabilities, weights) == (
        reference_predictions(track_ids, names, probabilities, weights)
    )
