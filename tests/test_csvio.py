import csv
import io
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from mossbeat import (
    BeatParams,
    CountSeries,
    RatioSeries,
    StructuralError,
    normalize,
    read_count_series,
    read_ratio_series,
    simulate_counts,
    write_count_series,
    write_ratio_series,
)
from mossbeat import csvio
from mossbeat.csvio import COUNT_HEADER, RATIO_HEADER


@pytest.fixture()
def gamma_series():
    return CountSeries(
        channel="gamma",
        t_start=[0.0, 360.0, 720.0],
        width=[360.0, 360.0, 360.0],
        counts=[120, 7, 0],
    )


def test_count_roundtrip(tmp_path, gamma_series):
    path = tmp_path / "g.csv"
    write_count_series(gamma_series, path)
    back = read_count_series(path)
    assert back.channel == "gamma"
    assert np.array_equal(back.t_start, gamma_series.t_start)
    assert np.array_equal(back.width, gamma_series.width)
    assert np.array_equal(back.counts, gamma_series.counts)


def test_count_roundtrip_bit_exact_floats(tmp_path):
    # awkward binary floats must survive the text round trip unchanged
    t0 = np.array([0.1, 0.1 + 0.2])
    s = CountSeries(channel="kalpha", t_start=t0, width=[0.2, 0.30000000000000004], counts=[1, 2])
    path = tmp_path / "k.csv"
    write_count_series(s, path)
    back = read_count_series(path)
    assert np.array_equal(back.t_start, s.t_start)
    assert np.array_equal(back.width, s.width)


def test_count_write_is_reproducible(tmp_path, gamma_series):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_count_series(gamma_series, p1)
    write_count_series(gamma_series, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()


def test_count_header_and_layout(tmp_path, gamma_series):
    path = tmp_path / "g.csv"
    write_count_series(gamma_series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_start_s,width_s,counts,channel"
    assert lines[1].split(",")[3] == "gamma"
    assert len(lines) == 4


def test_count_read_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,width,counts,channel\n0.0,1.0,3,gamma\n")
    with pytest.raises(StructuralError) as err:
        read_count_series(path)
    assert "line 1" in str(err.value)


def test_count_read_names_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "t_start_s,width_s,counts,channel\n"
        "0.0,1.0,3,gamma\n"
        "1.0,1.0,oops,gamma\n"
    )
    with pytest.raises(StructuralError) as err:
        read_count_series(path)
    assert "line 3" in str(err.value)


def test_count_read_names_file_line_after_quoted_newline(tmp_path):
    # the quoted channel of the first row spans lines 2-3, so the bad count
    # sits on file line 4, in the third csv record
    path = tmp_path / "multiline.csv"
    path.write_text('t_start_s,width_s,counts,channel\n0,1,3,"gam\nma"\n1,1,oops,gamma\n')
    with pytest.raises(StructuralError) as err:
        read_count_series(path)
    assert str(err.value).startswith("line 4: ")


def test_count_read_rejects_mixed_channels(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "t_start_s,width_s,counts,channel\n"
        "0.0,1.0,3,gamma\n"
        "1.0,1.0,4,kalpha\n"
    )
    with pytest.raises(StructuralError):
        read_count_series(path)


def test_count_read_rejects_gap(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "t_start_s,width_s,counts,channel\n"
        "0.0,1.0,3,gamma\n"
        "5.0,1.0,4,gamma\n"
    )
    with pytest.raises(StructuralError) as err:
        read_count_series(path)
    assert "line 3" in str(err.value)


def test_count_read_empty_file_warns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t_start_s,width_s,counts,channel\n")
    with pytest.warns(UserWarning):
        s = read_count_series(path)
    assert len(s) == 0


def test_ratio_roundtrip(tmp_path):
    p = BeatParams(n0=80.0, tau_d=485.7, phi0=0.3)
    gamma, kalpha = simulate_counts(p, 20.0, 600.0, 18000.0, seed=13)
    ratio = normalize(gamma, kalpha)
    path = tmp_path / "r.csv"
    write_ratio_series(ratio, path)
    back = read_ratio_series(path)
    assert np.array_equal(back.t_start, ratio.t_start)
    assert np.array_equal(back.valid, ratio.valid)
    assert np.array_equal(back.low_count, ratio.low_count)
    ok = ratio.valid
    assert np.array_equal(back.ratio[ok], ratio.ratio[ok])
    assert np.array_equal(back.sigma[ok], ratio.sigma[ok])
    assert np.all(np.isnan(back.ratio[~ok]))


def test_ratio_header(tmp_path):
    p = BeatParams(n0=10.0)
    gamma, kalpha = simulate_counts(p, 5.0, 600.0, 6000.0, seed=1)
    path = tmp_path / "r.csv"
    write_ratio_series(normalize(gamma, kalpha), path)
    assert path.read_text().splitlines()[0] == "t_start_s,width_s,ratio,sigma"



def _per_row_count_text(series):
    """The count file as formatted row by row, each width by its own repr."""
    rows = zip(series.t_start.tolist(), series.width.tolist(), series.counts.tolist())
    return "".join([",".join(COUNT_HEADER) + "\n"] + [f"{t!r},{w!r},{c},{series.channel}\n" for t, w, c in rows])


def _per_row_ratio_text(series):
    rows = zip(series.t_start.tolist(), series.width.tolist(), series.ratio.tolist(), series.sigma.tolist())
    return "".join([",".join(RATIO_HEADER) + "\n"] + [f"{t!r},{w!r},{r!r},{s!r}\n" for t, w, r, s in rows])


def _ratio_of(t_start, width, ratio, sigma):
    ratio, sigma = np.asarray(ratio, dtype=float), np.asarray(sigma, dtype=float)
    valid = np.isfinite(ratio) & np.isfinite(sigma)
    return RatioSeries(t_start, width, ratio, sigma, valid, valid & (ratio == 0.0))


_WRITER_CASES = {
    "uniform": ([0.0, 24.0, 48.0], [24.0, 24.0, 24.0]),
    "non_uniform": ([0.0, 1.0, 3.5], [1.0, 2.5, 1.0]),
    "one_row": ([7.0], [0.1]),
    "empty": ([], []),
    "scientific": ([0.0, 1e-05, 2e-05], [1e-05, 1e-05, 1e-05]),
    "scientific_large": ([3e16, 6e16], [3e16, 3e16]),
}


@pytest.mark.parametrize("case", list(_WRITER_CASES))
def test_writers_match_per_row_format(tmp_path, case):
    # the writers format a uniform width column once; every file must stay
    # byte for byte what formatting each row's width on its own gives
    t_start, width = _WRITER_CASES[case]
    n = len(t_start)
    counts = CountSeries("kalpha", t_start, width, list(range(n)))
    path = tmp_path / "c.csv"
    write_count_series(counts, path)
    assert path.read_text() == _per_row_count_text(counts)
    # NaN (invalid) rows, 0-ratio (low-count) rows and values in scientific notation
    ratio = _ratio_of(t_start, width, [np.nan, 0.0, 1.5e-07][:n], [np.nan, 0.25, 3e+20][:n])
    path = tmp_path / "r.csv"
    write_ratio_series(ratio, path)
    assert path.read_text() == _per_row_ratio_text(ratio)
    stream = io.StringIO()
    write_ratio_series(ratio, stream)
    assert stream.getvalue() == _per_row_ratio_text(ratio)


def _halve_last_width(series):
    """``series`` with its last bin half as wide: a non-uniform width column."""
    width = series.width.copy()
    width[-1] *= 0.5
    return CountSeries(series.channel, series.t_start, width, series.counts)


def test_writers_match_per_row_format_on_simulated_series(tmp_path):
    gamma, kalpha = simulate_counts(BeatParams(n0=0.003, tau_d=485.7, phi0=0.3), 3e-4, 24.0, 14400.0, seed=13)
    ratio = normalize(gamma, kalpha)
    assert (~ratio.valid).any() and ratio.low_count.any()  # premise: NaN and low-count rows
    for name, series in (("gamma", gamma), ("kalpha", kalpha), ("uneven", _halve_last_width(gamma))):
        path = tmp_path / f"{name}.csv"
        write_count_series(series, path)
        assert path.read_text() == _per_row_count_text(series)
    path = tmp_path / "r.csv"
    write_ratio_series(ratio, path)
    assert path.read_text() == _per_row_ratio_text(ratio)

# ----------------------------------------- non-finite times, int64, bad bytes


@pytest.mark.parametrize("rows, message", [
    ("0,inf,3,gamma\n5,1,2,gamma\n", "line 2: width_s must be finite, got inf"),
    ("0,1,3,gamma\nnan,1,2,gamma\n", "line 3: t_start_s must be finite, got nan"),
    ("-inf,1,3,gamma\n", "line 2: t_start_s must be finite, got -inf"),
])
def test_count_read_rejects_nonfinite_times(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("t_start_s,width_s,counts,channel\n" + rows)
    with pytest.raises(StructuralError) as err:
        read_count_series(path)
    assert str(err.value) == message


def test_ratio_read_rejects_nonfinite_times(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_start_s,width_s,ratio,sigma\n0,infinity,0.5,0.1\n5,1,nan,nan\n")
    with pytest.raises(StructuralError) as err:
        read_ratio_series(path)
    assert str(err.value) == "line 2: width_s must be finite, got inf"
    # NaN ratio and sigma still mark an invalid bin
    path.write_text("t_start_s,width_s,ratio,sigma\n0,1,nan,nan\n1,1,0.5,0.1\n")
    back = read_ratio_series(path)
    assert back.valid.tolist() == [False, True]


@pytest.mark.parametrize("kind, rows, message", [
    ("count", "0,-1,-3,gamma\n", "line 2: counts must be nonnegative, got -3"),
    ("count", "0,1,3,gamma\n1,-1,4,kalpha\n", "line 3: width must be positive, got -1.0"),
    ("count", "0,inf,x,gamma\n", "line 2: width_s must be finite, got inf"),
    ("count", "0,1,3,gamma\n5,1,4,kalpha\n", "line 3: mixed channels 'gamma' and 'kalpha'"),
    ("ratio", "0,inf,abc,0.1\n", "line 2: bad number: could not convert string to float: 'abc'"),
    ("ratio", "nan,-1,0.5,0.1\n", "line 2: t_start_s must be finite, got nan"),
    ("ratio", "0,1,0.5,0.1\n5,-1,0.5,0.1\n", "line 3: width must be positive, got -1.0"),
])
def test_read_reports_the_first_check_a_row_fails(tmp_path, kind, rows, message):
    # each row breaks more than one rule; the readers check the field count,
    # the numbers, finite times, the counts, positive width, the channel and
    # contiguity, in that order
    read = read_count_series if kind == "count" else read_ratio_series
    path = tmp_path / "bad.csv"
    path.write_text(",".join(COUNT_HEADER if kind == "count" else RATIO_HEADER) + "\n" + rows)
    with pytest.raises(StructuralError) as err:
        read(path)
    assert str(err.value) == message


def test_count_read_rejects_count_beyond_int64(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(f"t_start_s,width_s,counts,channel\n0,1,{2**63 - 1},gamma\n1,1,{2**63},gamma\n")
    with pytest.raises(StructuralError) as err:
        read_count_series(path)
    assert str(err.value) == f"line 3: counts must fit in a 64-bit integer, got {2**63}"


@pytest.mark.parametrize("read", [read_count_series, read_ratio_series])
def test_read_rejects_undecodable_file(tmp_path, read):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff\xfe\x00\x81binary\x00\n")
    with pytest.raises(StructuralError):
        read(path)


def test_count_read_reports_csv_field_limit(tmp_path):
    # np.loadtxt would read the padded count as 3; the csv module stops at
    # its field size limit, and the reader reports that as a bad line
    path = tmp_path / "wide.csv"
    pad = " " * (csv.field_size_limit() + 1)
    path.write_text(f"t_start_s,width_s,counts,channel\n0,1,3,gamma\n1,1,{pad}4,gamma\n")
    with pytest.raises(StructuralError) as err:
        read_count_series(path)
    assert str(err.value).startswith("line 3: field larger than field limit")


def test_empty_read_warns_at_the_caller(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t_start_s,width_s,ratio,sigma\n\n")
    with pytest.warns(UserWarning, match="no data rows") as record:
        assert len(read_ratio_series(path)) == 0
    assert record[0].filename == __file__


# --------------------------------------------- numpy pass against row reader


def _outcome(read, path):
    """What ``read(path)`` returns or raises, with the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(path)
        except Exception as exc:  # the exact type and message are compared
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _assert_same_series(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
        return
    assert type(a) is type(b)
    assert getattr(a, "channel", None) == getattr(b, "channel", None)
    for name in ("t_start", "width", "counts", "ratio", "sigma", "valid", "low_count"):
        x, y = getattr(a, name, None), getattr(b, name, None)
        if x is not None or y is not None:
            # bit for bit: the same dtype, NaN signs and signed zeros
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


_TIME_VALUES = ["nan", "-nan", "inf", "-inf", "infinity", "+Inf", "1_0", " 1.5", "1.5 ", "0x1", "",
                "1e400", "-0.0", "0", "٣", "1\x1c", "\x1d2", "1\x0b", '"2.5"', "1e-320"]
_COUNT_VALUES = ["1.0", "+3", "3_0", " 3", "3 ", "-3", "-0", "007", "1e3", str(2**63), str(2**63 - 1),
                 "99999999999999999999", "nan", '"3"', "", "３", "3\x00", "\x1f3", "3\x1e"]
_CHANNEL_VALUES = ["gamma", "kalpha", "gammaX", "kalphaXY", " gamma", "gamma ", "gamma\x00", "GAMMA",
                   '"gamma"', "", "gam\x1cma", "gamma#", "gam,ma"]
_RATIO_VALUES = ["nan", "-nan", "NaN", "inf", "0", "0.0", "-0.0", "-1", "1_0", " 0.5", '"0.5"', "", "1e-320"]
_LINES = ["", "   ", "\t", "#comment", "# t_start_s,width_s", "0,1,2", "1,2,3,4,5", "\r", "\x0c"]


@st.composite
def _mutated_file(draw, header, columns, rows):
    """A valid CSV text (the writer's output for ``rows``) with mutations."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["field", "field", "field", "line", "dup", "drop", "comma", "shift",
                                     "quote", "empty", "header"]))
        at = draw(st.integers(1, max(1, len(lines) - 1)))
        if kind == "field" and at < len(lines):
            col = draw(st.sampled_from(sorted(columns)))
            fields = lines[at].split(",")
            if col < len(fields):
                fields[col] = draw(st.sampled_from(columns[col]))
                lines[at] = ",".join(fields)
        elif kind == "line":
            lines.insert(at, draw(st.sampled_from(_LINES)))
        elif kind == "dup" and at < len(lines):
            lines.insert(at, lines[at])
        elif kind == "drop" and at < len(lines):
            del lines[at]
        elif kind == "comma" and at < len(lines):
            lines[at] += ","
        elif kind == "shift" and at < len(lines):
            fields = lines[at].split(",")
            try:
                fields[0] = repr(float(fields[0]) * draw(st.sampled_from([1 + 1e-12, 1 + 1e-6])) + 1e-300)
            except ValueError:
                pass
            lines[at] = ",".join(fields)
        elif kind == "quote" and at < len(lines):
            fields = lines[at].split(",")
            col = draw(st.integers(0, len(fields) - 1))
            fields[col] = f'"{fields[col]}"'
            lines[at] = ",".join(fields)
        elif kind == "empty":
            del lines[1:]
        elif kind == "header":
            lines[0] = draw(st.sampled_from([lines[0] + " ", '"t_start_s"' + lines[0][9:], lines[0] + "\r"]))
    text = draw(st.sampled_from(["\n", "\n", "\r\n"])).join(lines)
    if draw(st.booleans()):
        text += "\n"
    if draw(st.integers(0, 9)) == 0 and len(text) > 40:
        at = draw(st.integers(35, len(text) - 1))
        text = text[:at] + "\r" + text[at:]
    return text


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _count_text(draw):
    n = draw(st.integers(0, 5))
    t0 = draw(st.floats(-1e6, 1e6, **_finite))
    widths = draw(st.lists(st.floats(1e-6, 1e6, **_finite), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 20), min_size=n, max_size=n))
    channel = draw(st.sampled_from(["gamma", "kalpha"]))
    rows, t = [], t0
    for w, c in zip(widths, counts):
        rows.append([repr(t), repr(w), str(c), channel])
        t = t + w
    columns = {0: _TIME_VALUES, 1: _TIME_VALUES, 2: _COUNT_VALUES, 3: _CHANNEL_VALUES}
    return draw(_mutated_file(COUNT_HEADER, columns, rows))


@st.composite
def _ratio_text(draw):
    n = draw(st.integers(0, 5))
    t0 = draw(st.floats(-1e6, 1e6, **_finite))
    widths = draw(st.lists(st.floats(1e-6, 1e6, **_finite), min_size=n, max_size=n))
    rows, t = [], t0
    for w in widths:
        if draw(st.booleans()):
            ratio, sigma = "nan", "nan"
        else:
            ratio = repr(draw(st.floats(0.0, 1e3, **_finite)))
            sigma = repr(draw(st.floats(1e-3, 1e3, **_finite)))
        rows.append([repr(t), repr(w), ratio, sigma])
        t = t + w
    columns = {0: _TIME_VALUES, 1: _TIME_VALUES, 2: _RATIO_VALUES, 3: _RATIO_VALUES}
    return draw(_mutated_file(RATIO_HEADER, columns, rows))


_READERS = {"count": (read_count_series, csvio._count_rows), "ratio": (read_ratio_series, csvio._ratio_rows)}


def _assert_same_outcome(kind, path):
    """The public reader and the row reader agree on ``path``."""
    read, rows_reader = _READERS[kind]
    got, got_warnings = _outcome(read, path)
    want, want_warnings = _outcome(rows_reader, path)
    _assert_same_series(got, want)
    assert got_warnings == want_warnings


@pytest.mark.parametrize("kind, body", [
    ("count", "0,1\x1c,3,gamma\n"),  # numpy skips \x1c-\x1f as blanks; float() does not
    ("count", "0,1,3\x1f,gamma\n"),
    ("ratio", "0,1,0.5\x1d,0.1\n"),
    ("count", "0,1,3,gamma\n1,1,4,gamma\x00\n"),  # numpy's str dtypes drop trailing NULs
    ("count", "0,1,3,gamma\n1,1,4,gammaX\n"),  # a fixed-width str dtype truncates
    ("count", "0,1,1.0,gamma\n"),
    ("count", f"0,1,{2**63},gamma\n"),
    ("count", "0,1,+3,gamma\n1,1, 007 ,gamma\n"),
    ("count", "0,1,3_0,gamma\n"),
    ("count", '0,1,"3",gamma\n1,1,4,"gamma"\n'),
    ("count", "0,1,3,gamma\r\n1,1,4,gamma\r\n"),
    ("count", "0,1,3,gamma\n\n1,1,4,gamma\n"),
    ("count", "0,1,3,gamma\n  \n1,1,4,gamma\n"),
    ("count", "0,1,3,gamma\n1,1,4,gamma"),
    ("count", "\n\n"),
    ("ratio", "0,1,nan,-nan\n1,1,0,0.5\n2,1,-0.0,inf\n"),
    ("ratio", "0,1,0.5,0.1\n1.5,1,0.5,0.1\n"),
    ("ratio", "0,1,0.5,0\n"),
    ("ratio", "0,inf,0.5,0.1\ninf,1,0.5,0.1\n"),  # inf - inf in the contiguity test
    ("count", "0,inf,3,gamma\ninf,1,4,gamma\n"),
    ("ratio", "1e308,1e308,0.5,0.1\n1e308,1,0.5,0.1\n"),  # the bin end overflows
    ("count", "1e308,1e308,3,gamma\n1e308,1,4,gamma\n"),
    ("count", "0,1,2.5,gamma\n"),
    ("count", "0,1,1e3,gamma\n"),
])
def test_reader_matches_row_reader_on_traps(tmp_path, kind, body):
    path = tmp_path / "trap.csv"
    path.write_text(",".join(COUNT_HEADER if kind == "count" else RATIO_HEADER) + "\n" + body, newline="")
    _assert_same_outcome(kind, path)


def test_numpy_pass_declines_on_a_loadtxt_warning(tmp_path, monkeypatch):
    # numpy 1.23 to 1.26 read the count "2.5" as 2 with only a
    # DeprecationWarning; the reader must not return that truncated table
    def truncating_loadtxt(fh, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.array([(0.0, 1.0, 2, "gamma")], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
    path = tmp_path / "float_count.csv"
    path.write_text("t_start_s,width_s,counts,channel\n0,1,2.5,gamma\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match="^line 2: counts must be an integer, got '2.5'$"):
            read_count_series(path)


@pytest.mark.parametrize("kind, text_strategy", [("count", _count_text()), ("ratio", _ratio_text())])
def test_reader_matches_row_reader(tmp_path_factory, kind, text_strategy):
    path = tmp_path_factory.mktemp("mutated") / "series.csv"

    @given(text_strategy)
    @settings(max_examples=400, deadline=None)
    def check(text):
        path.write_text(text, newline="")
        _assert_same_outcome(kind, path)

    check()


def test_large_round_trip_takes_numpy_pass(tmp_path, monkeypatch):
    calls = []

    def counted(rows_reader):
        def wrapper(path):
            calls.append(path)
            return rows_reader(path)
        return wrapper

    monkeypatch.setattr(csvio, "_count_rows", counted(csvio._count_rows))
    monkeypatch.setattr(csvio, "_ratio_rows", counted(csvio._ratio_rows))
    p = BeatParams(n0=80.0, tau_d=485.7, phi0=0.3)
    gamma, kalpha = simulate_counts(p, 10.0, 1.2, 72000.0, seed=29)
    assert len(gamma) == 60000
    ratio = normalize(gamma, kalpha)
    assert not ratio.valid.all()  # NaN rows are part of the file
    for series in (gamma, kalpha):
        path = tmp_path / f"{series.channel}.csv"
        write_count_series(series, path)
        _assert_same_series(read_count_series(path), series)
    path = tmp_path / "ratio.csv"
    write_ratio_series(ratio, path)
    _assert_same_series(read_ratio_series(path), ratio)
    assert calls == []
    # a bad row anywhere sends the file to the row reader, which names it
    lines = path.read_text().splitlines(keepends=True)
    lines[40000] = lines[40000].replace(",", ",,", 1)
    path.write_text("".join(lines))
    with pytest.raises(StructuralError, match="^line 40001: expected 4 fields, got 5$"):
        read_ratio_series(path)
    assert calls == [path]
