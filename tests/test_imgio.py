import json
import math
import re
import warnings
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from shrinkseg import AdmmParams, ModelParams, OuterParams, cli, imgio
from shrinkseg.decompose import IterationTrace, TraceRow
from shrinkseg.synth import EPS_POS, Disk, PhantomSpec, Rect


# PGM header bytes: both magics, every byte bytes.isspace accepts, '#'
# comments ending in a newline or carriage return, signed digits and junk
# (a bare '#' and non-ASCII spaces among it). The first two branches are
# headers, whole or cut short, so that numbers and raster starts are
# compared as well as errors, and errors in their order.
MAGIC = st.sampled_from([b"P2", b"P5"])
SPACE = st.one_of(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
    st.builds(lambda text, end: b"#" + text + end, st.binary(max_size=4),
              st.sampled_from([b"\n", b"\r"])),
)
NUMBER = st.builds(lambda sign, n: sign + str(n).encode(), st.sampled_from([b"", b"0", b"+", b"-"]),
                   st.integers(0, 70000))
JUNK = st.sampled_from([b"#", b"\x85", b"\xa0", b"\x1c"]) | st.binary(min_size=1, max_size=2)
FIELD = st.tuples(st.lists(SPACE, min_size=1, max_size=3).map(b"".join), NUMBER).map(b"".join)
PGM_HEADER = st.one_of(
    st.tuples(MAGIC, FIELD, FIELD, FIELD, st.lists(SPACE, max_size=1).map(b"".join)).map(b"".join),
    st.tuples(MAGIC, st.lists(FIELD, max_size=3).map(b"".join), JUNK).map(b"".join),
    st.lists(MAGIC | SPACE | NUMBER | JUNK, max_size=12).map(b"".join),
)


class TestPGM:
    def test_round_half_up_quantization(self, tmp_path):
        path = tmp_path / "q.pgm"
        g = np.array([[0.0, 0.5], [1.0, 127.4999 / 255]])
        imgio.write_image(g, path)
        back = imgio.read_image(path)
        assert (back * 255).astype(int).tolist() == [[0, 128], [255, 127]]

    def test_write_clips_out_of_range(self, tmp_path):
        path = tmp_path / "c.pgm"
        imgio.write_image(np.array([[-0.5, 1.5], [0.0, 1.0]]), path)
        back = imgio.read_image(path)
        assert back.min() == 0.0 and back.max() == 1.0

    def test_binary_round_trip_exact_on_grid(self, tmp_path):
        path = tmp_path / "rt.pgm"
        levels = np.arange(256) / 255.0
        g = np.resize(levels, (16, 16))
        imgio.write_image(g, path)
        np.testing.assert_allclose(imgio.read_image(path), g, atol=1e-12)

    def test_plain_text_with_comments_and_16bit(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_text("P2 # inline\n# banner\n2 2\n65535\n0 32768\n65535 1\n")
        g = imgio.read_image(path)
        assert g[0, 0] == 0.0 and g[0, 1] == pytest.approx(32768 / 65535)
        assert g[1, 0] == 1.0

    def test_reads_plain_raster_three_wide_two_high(self, tmp_path):
        # the header gives width then height; rows run along the width
        path = tmp_path / "ns.pgm"
        path.write_text("P2\n3 2\n255\n0 51 102\n153 204 255\n")
        g = imgio.read_image(path)
        assert g.shape == (2, 3)
        assert (g * 255).round().astype(int).tolist() == [[0, 51, 102], [153, 204, 255]]

    def test_binary_round_trip_of_three_by_five_grid(self, tmp_path):
        # a width/height swap would write "3 5" and read back a 5 x 3 grid
        path = tmp_path / "r.pgm"
        g = np.arange(15).reshape(3, 5) / 255.0
        imgio.write_image(g, path)
        assert path.read_bytes().startswith(b"P5\n5 3\n255\n")
        back = imgio.read_image(path)
        assert back.shape == (3, 5)
        np.testing.assert_allclose(back, g, atol=1e-12)

    def test_rejects_sample_above_maxval(self, tmp_path):
        path = tmp_path / "ov.pgm"
        path.write_text("P2\n2 2\n255\n0 0\n0 300\n")
        with pytest.raises(ValueError):
            imgio.read_image(path)

    @pytest.mark.parametrize("magic, maxval", [("P5", 15), ("P5", 1023), ("P2", 1023)])
    def test_reads_samples_over_any_maxval(self, tmp_path, magic, maxval):
        # P5 takes one byte per sample up to maxval 255, two big-endian bytes above
        samples = np.array([0, 1, maxval // 2, maxval])
        if magic == "P5":
            raster = samples.astype(">u2" if maxval > 255 else "u1").tobytes()
        else:
            raster = " ".join(map(str, samples)).encode("ascii")
        path = tmp_path / "mx.pgm"
        path.write_bytes(f"{magic}\n2 2\n{maxval}\n".encode("ascii") + raster)
        assert imgio.read_image(path).tolist() == (samples / maxval).reshape(2, 2).tolist()

    @pytest.mark.parametrize("data", [b"P5\n2 1\n15\n\x00\x10", b"P5\n1 1\n1023\n\x04\x00"])
    def test_rejects_binary_sample_above_maxval(self, tmp_path, data):
        path = tmp_path / "ov5.pgm"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="above maxval"):
            imgio.read_image(path)

    @pytest.mark.parametrize("maxval", [0, 65536])
    def test_rejects_maxval_outside_range(self, tmp_path, maxval):
        path = tmp_path / "mv.pgm"
        path.write_text(f"P2\n1 1\n{maxval}\n0\n")
        with pytest.raises(ValueError, match="maxval"):
            imgio.read_image(path)

    @pytest.mark.parametrize("sample", ["1.5", "nan", "-1", "1e2", "0x1"])
    def test_rejects_non_integer_plain_sample(self, tmp_path, sample):
        path = tmp_path / "f.pgm"
        path.write_text(f"P2\n2 2\n255\n0 0\n0 {sample}\n")
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            imgio.read_image(path)

    @pytest.mark.parametrize("header", ["P5\n0 0\n255\n", "P2\n0 0\n255\n", "P5\n-1 -1\n255\n"])
    def test_rejects_empty_raster(self, tmp_path, header):
        path = tmp_path / "e.pgm"
        path.write_bytes(header.encode("ascii"))
        with pytest.raises(ValueError, match="must be at least 1"):
            imgio.read_image(path)

    def test_rejects_unknown_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P7\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            imgio.read_image(path)

    def test_written_file_is_binary_p5(self, tmp_path):
        path = tmp_path / "b.pgm"
        imgio.write_image(np.zeros((4, 4)), path)
        assert path.read_bytes().startswith(b"P5")

    @settings(max_examples=500, deadline=None)
    @given(PGM_HEADER)
    def test_header_regex_matches_byte_scan(self, data):
        """The regex reads the magic, numbers and raster start, or raises
        the error, of oracles.scan_pgm_header."""
        def outcome(read):
            try:
                return read(data)
            except ValueError as exc:
                return str(exc)

        assert outcome(imgio._read_pgm_header) == outcome(oracles.scan_pgm_header)


class TestFloatGrid:
    def test_round_trip_preserves_every_bit(self, tmp_path):
        path = tmp_path / "g.csv"
        g = np.array([[1e-308, 1.0 + 2**-52], [math.pi, -0.0]])
        imgio.write_float_grid(g, path)
        back = imgio.read_float_grid(path)
        assert back.tobytes() == g.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((5, 5)) * 10.0 ** rng.integers(-12, 12)
        path = tmp_path_factory.mktemp("grids") / "g.csv"
        imgio.write_float_grid(g, path)
        assert np.array_equal(imgio.read_float_grid(path), g)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            imgio.read_float_grid(path)

    def test_parse_error_names_position(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'oops'"):
            imgio.read_float_grid(path)

    @pytest.mark.parametrize("text", [""])  # a blank-only file is in CSV_CASES
    def test_empty_and_blank_only_files_rejected(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^empty grid file$"):
                imgio.read_float_grid(path)
        assert not caught  # numpy's "no data" warning stays inside the reader

    def test_missing_file_message(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
            imgio.read_float_grid(path)

    def test_ragged_row_message(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            imgio.read_float_grid(path)


def _joined_labels(labels):
    """The label CSV as str() and join write it, cell by cell."""
    lines = [",".join(map(str, row)) for row in np.asarray(labels).tolist()]
    return ("\n".join(lines) + "\n").encode("ascii")


_RNG = np.random.default_rng(5)
LABEL_GRIDS = [
    _RNG.integers(-5, 6, (7, 9)),
    _RNG.integers(-(2**62), 2**62, (5, 4)),
    np.array([[2**62, -(2**62), 0, -1]]),
    _RNG.integers(0, 3, (1, 9)),
    _RNG.integers(0, 3, (9, 1)),
    _RNG.integers(-1000, 1000, (33, 17)).astype(np.int32),
    _RNG.integers(0, 300, (4, 4)).astype(np.uint16),
    np.full((3, 3), np.iinfo(np.int64).min),
]


def _edge_grids(dtype):
    """Grids of one integer dtype: its minimum and its maximum alone (1x1),
    one row and one column of every digit-count edge in its range
    (10^p - 1, 10^p, and the negatives of those and of 10^p + 1) with both
    extremes, and a random grid across the whole range."""
    info = np.iinfo(dtype)
    edges = {info.min, info.max, 0}
    for p in range(20):
        for value in (10**p - 1, 10**p, -(10**p - 1), -(10**p), -(10**p) - 1):
            if info.min <= value <= info.max:
                edges.add(value)
    row = np.array(sorted(edges), dtype=dtype)
    rng = np.random.default_rng(info.bits)
    spread = rng.integers(info.min, info.max, (6, 5), dtype=dtype, endpoint=True)
    return {"min": row[:1, None], "max": row[-1:, None], "row": row[None, :],
            "column": row[::-1, None], "random": spread}


EDGE_GRIDS = [
    pytest.param(grid, id=f"{np.dtype(dtype).name}-{kind}")
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
    for kind, grid in _edge_grids(dtype).items()
]


class TestLabels:
    @pytest.mark.parametrize("labels", LABEL_GRIDS, ids=lambda a: f"{a.dtype}{a.shape}")
    def test_bytes_match_joined_cells(self, tmp_path, labels):
        path = tmp_path / "l.csv"
        imgio.write_labels(labels, path)
        assert path.read_bytes() == _joined_labels(labels)

    @pytest.mark.parametrize("labels", EDGE_GRIDS)
    def test_bytes_match_digit_table_at_dtype_edges(self, tmp_path, labels):
        # digit arithmetic must not overflow at iinfo.min, whose magnitude
        # the signed dtype cannot hold
        path = tmp_path / "l.csv"
        imgio.write_labels(labels, path)
        assert path.read_bytes() == oracles.digit_table_labels(labels) == _joined_labels(labels)

    @pytest.mark.parametrize(
        "labels",
        [np.ones((2, 2)), np.ones((2, 2), dtype=bool), np.ones(3, dtype=int),
         np.zeros((0, 3), dtype=int), np.zeros((3, 0), dtype=int)],
    )
    def test_other_grids_rejected(self, tmp_path, labels):
        with pytest.raises(ValueError, match="nonempty 2D integer array"):
            imgio.write_labels(labels, tmp_path / "l.csv")
        assert not (tmp_path / "l.csv").exists()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "l.csv"
        labels = np.array([[1, 2], [3, 1]], dtype=np.int64)
        imgio.write_labels(labels, path)
        back = imgio.read_labels(path)
        assert back.dtype == np.int64
        np.testing.assert_array_equal(back, labels)

    @pytest.mark.parametrize("text", [""])  # a blank-only file is in CSV_CASES
    def test_empty_and_blank_only_files_rejected(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^empty label file$"):
                imgio.read_labels(path)
        assert not caught  # numpy's "no data" warning stays inside the reader

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            imgio.read_labels(path)

    def test_float_cell_is_not_a_label(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n1.0,2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'1.0'"):
            imgio.read_labels(path)

    @pytest.mark.parametrize("cell", ["99999999999999999999", "-9223372036854775809"])
    def test_label_beyond_int64_rejected(self, tmp_path, cell):
        path = tmp_path / "big.csv"
        path.write_text(f"1,2\n{cell},1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'{cell}'"):
            imgio.read_labels(path)

    def test_int64_extremes_read(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("-9223372036854775808, 9223372036854775807\n")
        assert imgio.read_labels(path).tolist() == [[-(2**63), 2**63 - 1]]


# the one cell of a 2x2 CSV that is not 1: what read_float_grid and
# read_labels read there, or a regex their ValueError matches ({path}
# stands for the file's path)
CSV_CELLS = {
    "plus": ("+3", 3.0, 3),
    "leading_zeros": ("007", 7.0, 7),
    "minus_zero": ("-0", -0.0, 0),
    "padded": (" 5 ", 5.0, 5),
    "exponent": ("1e3", 1000.0, "^{path}: .*'1e3'"),
    "trailing_point": ("1.", 1.0, r"^{path}: .*'1\.'"),
    "underscore": ("1_0", "^{path}: .*'1_0'", "^{path}: .*'1_0'"),
    "nan": ("nan", "^{path} contains NaN or infinite", "^{path}: .*'nan'"),
    "inf": ("inf", "^{path} contains NaN or infinite", "^{path}: .*'inf'"),
    "twenty_digits": ("12345678901234567890", 1.2345678901234567e19,
                      "^{path}: .*'12345678901234567890'"),
}


def _in_corner(want):
    """A value read as the grid [[want, 1], [1, 1]]; a regex as it is."""
    return want if isinstance(want, str) else [[want, 1], [1, 1]]


# file text: what read_float_grid and read_labels read, or a regex as above
CSV_CASES = {
    **{name: (f"{cell},1\n1,1\n", _in_corner(grid), _in_corner(labels))
       for name, (cell, grid, labels) in CSV_CELLS.items()},
    "crlf": ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    "blank_line": ("1,2\n\n3,4\n", [[1, 2], [3, 4]], [[1, 2], [3, 4]]),
    "empty": ("", "^empty grid file$", "^empty label file$"),
    "whitespace_only": ("\n \n\t\n", "^{path}: .*' '", "^{path}: .*' '"),
    # numpy's row, counted from 0 or 1 over nonblank lines, is given as the file's line
    "bad_cell": ("1,2\n3,x\n", r"^{path}: could not convert string 'x' to float64 at line 2, "
                 r"column 2\.$", r"^{path}: could not convert string 'x' to int64 at line 2, "
                 r"column 2\.$"),
    "bad_cell_after_blank": ("1,2\n\n3,x\n", r"^{path}: .*'x' .* at line 3, column 2\.$",
                             r"^{path}: .*'x' .* at line 3, column 2\.$"),
    "bad_first_cell": ("a,2\n", r"^{path}: .*'a' .* at line 1, column 1\.$",
                       r"^{path}: .*'a' .* at line 1, column 1\.$"),
    "short_row": ("1,2\n3\n", "^{path}: the number of columns changed from 2 to 1 at line 2$",
                  "^{path}: the number of columns changed from 2 to 1 at line 2$"),
    "cell_naming_a_row": ("1,2\nat row 9,1\n", r"^{path}: .*'at row 9' .* at line 2, column 1\.$",
                          r"^{path}: .*'at row 9' .* at line 2, column 1\.$"),
}


@pytest.mark.parametrize("reader, dtype, column", [(imgio.read_float_grid, np.float64, 1),
                                                   (imgio.read_labels, np.int64, 2)],
                         ids=["grid", "labels"])
@pytest.mark.parametrize("case", CSV_CASES)
def test_csv_syntax(tmp_path, case, reader, dtype, column):
    text, want = CSV_CASES[case][0], CSV_CASES[case][column]
    path = tmp_path / "c.csv"
    path.write_bytes(text.encode("ascii"))
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want.format(path=re.escape(str(path)))):
            reader(path)
    else:
        out = reader(path)
        assert out.dtype == dtype and out.tobytes() == np.array(want, dtype=dtype).tobytes()


@pytest.mark.parametrize("name", ["g.pgm", "g.PGM", "g.pnm", "g.csv", "g.txt"])
def test_read_grid_picks_the_reader_by_suffix(tmp_path, name):
    # each file holds its format only: the other reader would fail on it
    path = tmp_path / name
    grid = np.array([[0.0, 1.0], [0.2, 0.6]])
    if name.lower().endswith(("pgm", "pnm")):
        path.write_bytes(b"P2\n2 2\n5\n0 5\n1 3\n")
    else:
        imgio.write_float_grid(grid, path)
    assert imgio.read_grid(path).tobytes() == grid.tobytes()


class TestTrace:
    def test_round_trip_drops_diagnostic_column(self, tmp_path):
        rows = (
            TraceRow(k=0, energy=1.5, increment=0.25, support_size=9,
                     min_nonzero_grad=0.01, inner_iters=4, max_grad=2.0),
            TraceRow(k=1, energy=1.25, increment=0.0, support_size=7,
                     min_nonzero_grad=0.02, inner_iters=0, max_grad=1.5),
        )
        path = tmp_path / "t.csv"
        imgio.write_trace(IterationTrace(rows), path)
        text = path.read_text()
        assert text.splitlines()[0] == imgio.TRACE_HEADER
        back = oracles.read_trace(path)
        assert len(back) == 2
        assert back[0].energy == 1.5 and back[1].support_size == 7
        # max_grad is in-memory only; reads yield NaN there
        assert math.isnan(back[0].max_grad)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            oracles.read_trace(path)


class TestLogDomain:
    def test_round_trip_within_range(self):
        rng = np.random.default_rng(0)
        f = rng.uniform(EPS_POS, 1.0, (6, 6))
        np.testing.assert_allclose(imgio.from_log_domain(imgio.to_log_domain(f)), f, rtol=1e-14)

    def test_clamps_before_log(self):
        f = np.array([[0.0, 1.0], [0.5, 1e-6]])
        g = imgio.to_log_domain(f)
        assert g[0, 0] == g[1, 1] == pytest.approx(math.log(EPS_POS))
        assert g[0, 1] == 0.0
        assert np.all(np.isfinite(g))

    def test_rejects_values_above_one(self):
        # no clamp from above: it would flatten every value over 1
        f = np.array([[0.5, 1.0], [2.0, 6.0]])
        with pytest.raises(ValueError, match=r"log_domain \(--log-domain\).*\(0, 1\]"):
            imgio.to_log_domain(f)
        assert imgio.to_log_domain(f / f.max())[1, 1] == 0.0

    def test_rejects_negative_values(self):
        # no clamp from below 0: an image already in the log domain would
        # come out flat at log(EPS_POS)
        f = np.array([[0.5, 1.0], [0.0, -0.5]])
        with pytest.raises(ValueError, match=r"log_domain \(--log-domain\).*\(0, 1\], "
                                             r"got a minimum of -0\.5"):
            imgio.to_log_domain(f)


class TestRunConfig:
    def test_defaults_match_published_values(self):
        config = cli.RunConfig(alpha=1.0, beta=100.0)
        assert config.gamma == 1e-8
        assert config.rho == 1e-8
        assert config.p == 0.5
        assert config.r == 10.0
        assert config.tol_in == 1e-4 and config.tol_out == 1e-4
        assert config.maxit_in == 100 and config.maxit_out == 40
        assert config.k == 2 and config.log_domain is False

    def test_dict_round_trip_uses_capital_k(self):
        config = cli.RunConfig(alpha=0.5, beta=2.0, k=4, log_domain=True)
        payload = cli.config_to_dict(config)
        assert payload["K"] == 4 and "k" not in payload
        assert cli.config_from_dict(payload) == config

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"alpha": 1.0, "beta": 1.0, "zeta": 2}, "unknown"),
            ({"alpha": 1.0}, "missing"),
            ({"alpha": 1.0, "beta": 1.0, "K": 1}, "K"),
            ({"alpha": 1.0, "beta": 1.0, "log_domain": 3}, "boolean"),
            ({"alpha": True, "beta": 1.0}, "number"),
            ({"alpha": -1.0, "beta": 1.0}, "positive"),
        ],
    )
    def test_rejects_bad_payload(self, payload, match):
        with pytest.raises(ValueError, match=match):
            cli.config_from_dict(payload)

    def test_json_and_constructor_apply_one_rule_set(self):
        """Each RunConfig field, under its JSON key (K for k), is rejected
        with the same message, or accepted alike, by both paths."""
        base = {"alpha": 1.0, "beta": 1.0}
        types = get_type_hints(cli.RunConfig)

        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return str(exc)

        for f in fields(cli.RunConfig):
            key = "K" if f.name == "k" else f.name
            extra = {int: (2.5,), bool: (1,), float: (10**400,)}[types[f.name]]
            for bad in (np.nan, "1", True, None) + extra:
                built = outcome(lambda: cli.RunConfig(**{**base, f.name: bad}))
                parsed = outcome(lambda: cli.config_from_dict({**base, key: bad}))
                assert parsed == built, (key, bad)
        assert cli.config_from_dict({**base, "K": 3}).k == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        config = cli.RunConfig(alpha=0.5, beta=1000.0, tol_in=1e-8, maxit_in=500)
        path.write_text(json.dumps(cli.config_to_dict(config)))
        assert cli.config_from_dict(imgio.read_json_object(path, "config")) == config

    def test_defaults_agree_with_solver_classes(self):
        config = cli.RunConfig(alpha=0.5, beta=2.0)
        shared = set()
        for params in (AdmmParams(), OuterParams(), ModelParams(alpha=0.5, beta=2.0)):
            for f in fields(params):
                if f.name in cli.CONFIG_KEYS.values():
                    shared.add(f.name)
                    assert getattr(config, f.name) == getattr(params, f.name), f.name
        assert shared == {"alpha", "beta", "gamma", "p", "rho", "r",
                          "tol_in", "tol_out", "maxit_in", "maxit_out"}

    def test_non_object_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="config must be a JSON object"):
            imgio.read_json_object(path, "config")

    def test_param_factories_consistent(self):
        config = cli.RunConfig(alpha=0.5, beta=2.0, gamma=0.1, p=0.4,
                               rho=0.2, r=7.0, tol_in=1e-6, maxit_in=50,
                               tol_out=1e-5, maxit_out=20)
        model = config.model_params()
        assert model.alpha == 0.5 and model.beta == 2.0 and model.gamma == 0.1
        assert model.p == 0.4
        outer = config.outer_params()
        assert outer.rho == 0.2 and outer.tol_out == 1e-5 and outer.maxit_out == 20
        admm = config.admm_params()
        assert admm.r == 7.0 and admm.tol_in == 1e-6 and admm.maxit_in == 50


class TestPhantomSpecIO:
    def test_file_round_trip(self, tmp_path):
        spec = PhantomSpec(
            n=16,
            phase_values=(0.2, 0.5, 0.9),
            shapes=(
                Disk(row=4, col=4, radius=2, phase=2),
                Rect(row0=8, col0=8, row1=12, col1=14, phase=3),
            ),
            bias_amplitude=0.3,
            bias_kind="gaussian_bump",
            noise_sigma=0.02,
            composition="multiplicative",
            seed=9,
        )
        payload = {
            "n": 16,
            "phase_values": [0.2, 0.5, 0.9],
            "shapes": [
                {"type": "disk", "row": 4, "col": 4, "radius": 2, "phase": 2},
                {"type": "rect", "row0": 8, "col0": 8, "row1": 12, "col1": 14, "phase": 3},
            ],
            "bias_amplitude": 0.3,
            "bias_kind": "gaussian_bump",
            "noise_sigma": 0.02,
            "composition": "multiplicative",
            "seed": 9,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert imgio.phantom_spec_from_dict(imgio.read_json_object(path, "phantom spec")) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            imgio.phantom_spec_from_dict({"n": 8, "phase_values": [0.5], "blur": 1})

    def test_unknown_shape_type_rejected(self):
        payload = {"n": 8, "phase_values": [0.5],
                   "shapes": [{"type": "triangle", "phase": 1}]}
        with pytest.raises(ValueError, match="shape"):
            imgio.phantom_spec_from_dict(payload)


def test_write_report_emits_stable_json(tmp_path):
    path = tmp_path / "r.json"
    imgio.write_report({"b": 1, "a": [1, 2]}, path)
    payload = json.loads(path.read_text())
    assert payload == {"b": 1, "a": [1, 2]}
    imgio.write_report({"b": 1, "a": [1, 2]}, tmp_path / "r2.json")
    assert path.read_bytes() == (tmp_path / "r2.json").read_bytes()
