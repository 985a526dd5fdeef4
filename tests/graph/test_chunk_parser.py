"""Every edge-file reader against the per-line parser, over random files.

The readers parse a chunk of plain rows in one numpy call and hand any
other chunk to ``_iter_rows`` line by line. Here each reader must return
exactly the arrays a line-by-line parse gives (``-0.0`` and NaN bits
included), or raise the same :class:`~repro.errors.GraphError`, whatever
the file holds: comments, blank lines, CRLF, extra columns, ``+``, ``_``
or non-ASCII digits, exponents, ``nan``, bytes that are not UTF-8, the
int64 bounds and beyond, a torn last row or a wrong ``edges=`` count.
Chunks of a few bytes put chunk borders everywhere, so plain chunks and
line-by-line chunks alternate within one file.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.graph.io as graph_io
from repro.cli import _read_rows, _SourceTail
from repro.errors import GraphError
from repro.graph import iter_edge_batches, load_edge_list, load_edge_list_chunked

INT64_MAX = 2**63 - 1

labels = st.one_of(
    st.integers(0, 10**6),
    st.integers(-(10**18), 10**18),
    st.sampled_from([INT64_MAX, -INT64_MAX - 1, INT64_MAX + 1, -INT64_MAX - 2, 10**23]),
).map(str)
label_tokens = st.one_of(
    labels,
    labels.map(lambda t: "+" + t.lstrip("-")),
    labels.map(lambda t: t[:1] + "_" + t[1:] if len(t) > 1 and t[1:2].isdigit() else t),
    labels.map(lambda t: "00" + t.lstrip("-")),
    st.sampled_from(["١٢", " 7", "8 ", "x", "", "1.0", "-", "1e3"]),
)
weight_tokens = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-1e6, 1e6).map(lambda w: f"{w:.3e}"),
    st.floats(-1e6, 1e6).map(lambda w: f"{w:E}"),
    st.sampled_from(
        ["-0.0", "0", "5.", ".5", "-.5", "1e", "e5", ".", "+1.5", "1_0.5", "nan", "inf",
         "1e400", "1e-400", "١.5", "1.5.5", "1-2", ""]
    ),
)


@st.composite
def data_lines(draw, weighted: bool) -> bytes:
    kind = draw(st.sampled_from(["plain"] * 6 + ["comment", "blank", "crlf", "extra", "short",
                                                  "spaces", "not utf-8", "odd tokens"]))
    user, merchant = draw(labels), draw(labels)
    weight = draw(weight_tokens) if weighted else None
    if kind == "odd tokens":
        user, merchant = draw(label_tokens), draw(label_tokens)
    columns = [user, merchant] + ([weight] if weighted else [])
    line = "\t".join(columns).encode()
    if kind == "comment":
        return b"# " + line
    if kind == "blank":
        return draw(st.sampled_from([b"", b"  ", b"\t"]))
    if kind == "crlf":
        return line + b"\r"
    if kind == "extra":
        return line + b"\tsomething"
    if kind == "short":
        return user.encode()
    if kind == "spaces":
        return b" " + line + b" "
    if kind == "not utf-8":
        return line[:1] + b"\xff" + line[1:]
    return line


@st.composite
def edge_files(draw) -> tuple[bytes, bool]:
    """A file body (header first unless headerless) and its weighted flag."""
    weighted = draw(st.booleans())
    lines = draw(st.lists(data_lines(weighted), max_size=25))
    body = b"".join(line + b"\n" for line in lines)
    if lines and draw(st.booleans()):
        body = body[:-1]  # the last row has no newline: torn, or just unterminated
    n_rows = len(lines)
    edges = draw(st.sampled_from([n_rows, n_rows + 1, max(0, n_rows - 1)]))
    header = f"# bipartite users=1 merchants=1 edges={edges} weighted={int(weighted)}\n"
    return header.encode() + body, weighted


def reference_rows(lines, path: Path, weighted: bool, first_line: int):
    """The per-line parse: every row of ``lines`` through ``_iter_rows`` alone."""
    rows = list(graph_io._iter_rows(lines, path, weighted, first_line))
    return (
        np.array([row[0] for row in rows], dtype=np.int64),
        np.array([row[1] for row in rows], dtype=np.int64),
        np.array([row[2] for row in rows], dtype=np.float64) if weighted and rows else None,
    )


def outcome(read):
    """What ``read()`` returns, or the message of the GraphError it raises."""
    try:
        return ("rows", read())
    except GraphError as exc:
        return ("error", str(exc))


def same(a, b) -> bool:
    """Equal outcomes: the same error, or arrays equal bit for bit."""
    if a[0] != b[0]:
        return False
    if a[0] == "error":
        return a[1] == b[1]
    return all(
        (x is None and y is None)
        or (
            x is not None
            and y is not None
            and x.dtype == y.dtype
            and x.shape == y.shape
            and x.tobytes() == y.tobytes()
        )
        for x, y in zip(a[1], b[1], strict=True)
    )


def as_rows(graph):
    """A loaded graph's edges back in label space."""
    return (
        graph.user_labels[graph.edge_users],
        graph.merchant_labels[graph.edge_merchants],
        graph.edge_weights,
    )


def file_lines(data: bytes) -> list[bytes]:
    """The lines of ``data`` as a binary file yields them (only ``\\n`` ends one)."""
    return list(io.BytesIO(data))


def complete_lines(data: bytes) -> list[bytes]:
    """The lines of ``data`` that a newline ends."""
    return file_lines(data)[: data.count(b"\n")]


@pytest.fixture
def tiny_chunks(monkeypatch):
    def use(size: int) -> None:
        monkeypatch.setattr(graph_io, "CHUNK_BYTES", size)

    return use


HYPOTHESIS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@HYPOTHESIS
@given(file=edge_files(), chunk=st.sampled_from([1, 5, 16, 64, 1 << 20]))
def test_whole_file_readers_match_the_per_line_parse(tmp_path, tiny_chunks, file, chunk):
    data, weighted = file
    path = tmp_path / "edges.tsv"
    path.write_bytes(data)
    tiny_chunks(chunk)
    header, *lines = file_lines(data)
    fields = graph_io._parse_header(header, path)

    def reference_load():
        users, merchants, weights = reference_rows(lines, path, weighted, 2)
        graph_io._check_declared_edges(graph_io._declared_edges(fields, path), users.size, path)
        if weighted and weights is None:
            weights = np.empty(0, dtype=np.float64)
        return users, merchants, weights

    expected = outcome(reference_load)
    assert same(outcome(lambda: as_rows(load_edge_list(path))), expected)
    assert same(outcome(lambda: as_rows(load_edge_list_chunked(path, batch_size=3))), expected)

    expected_delta = outcome(lambda: reference_rows(lines, path, weighted, 2))
    assert same(outcome(lambda: _read_rows(str(path))), expected_delta)


@HYPOTHESIS
@given(
    file=edge_files(),
    chunk=st.sampled_from([1, 7, 1 << 20]),
    batch_size=st.sampled_from([1, 2, 5, 1000]),
    strict=st.booleans(),
)
def test_batches_match_the_per_line_parse(tmp_path, tiny_chunks, file, chunk, batch_size, strict):
    data, weighted = file
    path = tmp_path / "edges.tsv"
    path.write_bytes(data)
    tiny_chunks(chunk)
    header, *lines = file_lines(data)

    def reference_batches():
        users, merchants, weights = reference_rows(lines, path, weighted, 2)
        if strict:
            declared = graph_io._declared_edges(graph_io._parse_header(header, path), path)
            graph_io._check_declared_edges(declared, users.size, path)
        return [
            (users[i : i + batch_size], merchants[i : i + batch_size],
             None if weights is None else weights[i : i + batch_size])
            for i in range(0, users.size, batch_size)
        ]

    expected = outcome(reference_batches)
    got = outcome(lambda: list(iter_edge_batches(path, batch_size=batch_size, strict=strict)))
    assert got[0] == expected[0]
    if got[0] == "error":
        assert got[1] == expected[1]
    else:
        assert len(got[1]) == len(expected[1])
        for batch, want in zip(got[1], expected[1]):
            assert same(("rows", tuple(batch)), ("rows", want))


@HYPOTHESIS
@given(file=edge_files(), chunk=st.sampled_from([1, 7, 1 << 20]), held=st.integers(0, 30))
def test_source_tail_matches_the_per_line_parse(tmp_path, tiny_chunks, file, chunk, held):
    """The tail parses only newline-ended lines (a torn last row waits) and
    passes over the first ``held`` rows, which a saved state already holds."""
    data, weighted = file
    path = tmp_path / "edges.tsv"
    path.write_bytes(data)
    tiny_chunks(chunk)

    def reference_tail():
        users, merchants, weights = reference_rows(complete_lines(data), path, weighted, 1)
        users, merchants = users[held:], merchants[held:]
        return users, merchants, None if weights is None or not users.size else weights[held:]

    tail = _SourceTail(str(path))
    expected = outcome(reference_tail)
    assert same(outcome(lambda: tail.read(held)), expected)
    if expected[0] == "rows":
        assert tail.offset == len(b"".join(complete_lines(data)))
        assert tail.line_no == data.count(b"\n")


def plain_file(tmp_path: Path, n_rows: int) -> Path:
    path = tmp_path / "edges.tsv"
    path.write_bytes(
        f"# bipartite users={n_rows} merchants={n_rows} edges={n_rows} weighted=0\n".encode()
        + b"".join(b"%d\t%d\n" % (i, 7 * i) for i in range(n_rows))
    )
    return path


def test_source_tail_drops_held_rows_chunk_by_chunk(tmp_path, tiny_chunks, monkeypatch):
    """On resume, the rows a saved state holds never reach the join of the
    chunks: each chunk drops them as it is parsed."""
    import repro.cli as cli

    path = plain_file(tmp_path, 40)
    tiny_chunks(64)  # about a dozen rows per chunk, so row 33 sits mid-chunk
    joined = []
    stack = cli._stack

    def spy(parts):
        parts = list(parts)
        joined.append(sum(part[0].size for part in parts))
        return stack(parts)

    monkeypatch.setattr(cli, "_stack", spy)
    users, merchants, weights = _SourceTail(str(path)).read(33)
    assert (users.tolist(), merchants.tolist(), weights) == (
        list(range(33, 40)), [7 * i for i in range(33, 40)], None
    )
    assert joined == [7]


def test_a_plain_file_never_reaches_the_per_line_parser(tmp_path, monkeypatch):
    """Every reader starts past the header, so each chunk of a file of
    plain rows parses in one numpy call."""

    def per_line(*args, **kwargs):
        raise AssertionError("a plain chunk went line by line")

    path = plain_file(tmp_path, 100)
    monkeypatch.setattr(graph_io, "_iter_rows", per_line)
    tail = _SourceTail(str(path))
    assert (tail.offset, tail.line_no) == (len(file_lines(path.read_bytes())[0]), 1)
    assert tail.read(0)[0].size == 100
    assert load_edge_list(path).n_edges == 100
    assert sum(batch.n_edges for batch in iter_edge_batches(path, batch_size=30)) == 100
    assert _read_rows(str(path))[0].size == 100


@HYPOTHESIS
@given(file=edge_files(), chunk=st.sampled_from([1, 7, 1 << 20]))
def test_headerless_delta_matches_the_per_line_parse(tmp_path, tiny_chunks, file, chunk):
    """A delta without the header: the first data row's columns decide the
    weights, and rows count from line 1."""
    data, _ = file
    body = data.split(b"\n", 1)[1]
    path = tmp_path / "delta.tsv"
    path.write_bytes(body)
    tiny_chunks(chunk)
    lines = file_lines(body)
    weighted = False
    for line in lines:
        line = line.strip()
        if line and not line.startswith(b"#"):
            weighted = len(line.split(b"\t")) >= 3
            break
    expected = outcome(lambda: reference_rows(lines, path, weighted, 1))
    assert same(outcome(lambda: _read_rows(str(path))), expected)


class TestPlainRows:
    """Rows inside the plain subset parse exactly as ``int``/``float`` do."""

    @pytest.mark.parametrize(
        "row",
        [
            b"0\t0\t-0.0",
            b"-5\t7\t1e+20",
            b"123456789012345\t-123456789012345\t2.4703282292062327e-324",
            b"1\t2\t1e309",
            b"1\t2\t.5",
            b"1\t2\t5.",
            b"1\t2\t0.30000000000000004",
            b"1\t2\t1.00000000000000011102230246251565404236316680908203125",
        ],
    )
    def test_weighted(self, tmp_path, row):
        assert graph_io._PLAIN_ROWS[True].fullmatch(row + b"\n")
        users, merchants, weights = graph_io._parse_chunk(row + b"\n", tmp_path, True, 2)
        user, merchant, weight = row.split(b"\t")
        assert (users.tolist(), merchants.tolist()) == ([int(user)], [int(merchant)])
        assert weights.tobytes() == np.array([float(weight)]).tobytes()

    @pytest.mark.parametrize(
        "row", [b"999999999999999999\t-999999999999999999", b"-0\t007", b"0\t1"]
    )
    def test_unweighted(self, tmp_path, row):
        assert graph_io._PLAIN_ROWS[False].fullmatch(row + b"\n")
        users, merchants, weights = graph_io._parse_chunk(row + b"\n", tmp_path, False, 2)
        user, merchant = row.split(b"\t")
        assert (users.tolist(), merchants.tolist(), weights) == ([int(user)], [int(merchant)], None)

    @pytest.mark.parametrize("label", [b"9223372036854775807", b"-9223372036854775808"])
    def test_the_int64_bounds_load(self, tmp_path, label):
        users, _, _ = graph_io._parse_chunk(label + b"\t1\n", tmp_path, False, 2)
        assert users.tolist() == [int(label)]

    @pytest.mark.parametrize(
        "label", [b"9223372036854775808", b"-9223372036854775809", b"99999999999999999999999"]
    )
    def test_a_label_outside_int64_is_a_graph_error(self, tmp_path, label):
        with pytest.raises(GraphError, match=r":5: edge row .* has a label outside int64"):
            graph_io._parse_chunk(b"1\t2\n" * 3 + b"3\t" + label + b"\n", tmp_path, False, 2)
