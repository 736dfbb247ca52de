"""Immutable simple undirected graphs and the edge-list text format.

Vertices are dense integers 0..n-1, so that isolated vertices are
representable and per-vertex state fits in flat arrays. The file format:

    c optional comment lines anywhere
    p ds <n> <m>
    e <u> <v>          (exactly m of these, 0 <= u,v < n, u != v)

Counts and ids are ASCII decimal integers. Duplicate edge lines and
both orientations of an edge collapse to a single edge; self-loops are
rejected. Serialization writes each edge with u < v, sorted
lexicographically.

`parse_graph` reads the text one line at a time up to and including the
header. If the rest of the text is a canonical body, the one that
`serialize_graph` (and so `gen`, `reduce` and perfbench) writes after
the header (one `e <u> <v>` line per edge, with single spaces, ASCII
digits and "\n" ending every line, and no comments or blank lines),
and no id has a leading zero, the body is read with whole-text
operations: two regular expressions check its shape and keep no state
per line (one matches the first line, one searches for a line break
followed by neither an edge line nor the end of the text), one
`json.loads` decodes every id and `Graph` checks each edge. Comments,
blank lines, spacing and line ends up to and including the header line
do not matter. Any other body (ids with leading zeros or past `int()`'s
digit limit among them), and any body whose graph is invalid, is read
line by line from where the header ends, so the graph and every error
(type, message and line number) are the same whichever way the body is
read. The MAX_VERTICES guard runs as soon as the header is read, before
the body is decoded or any edge is stored.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Iterator

from .errors import ParseError, RangeError, ResourceLimitError, ValidationError

# Largest vertex count a Graph accepts. It is checked before any
# per-vertex storage is allocated, so a short header such as
# "p ds 1000000000 0" is refused (exit 3) instead of exhausting memory.
MAX_VERTICES = 10**7


def _check_vertex_count(n: int) -> None:
    """Refuse more than MAX_VERTICES vertices. Callers run it before they
    allocate or draw anything that grows with n."""
    if n > MAX_VERTICES:
        raise ResourceLimitError(f"vertex count {n} exceeds the limit {MAX_VERTICES}")


def _as_text(text: str | bytes) -> str:
    """`text` itself, or bytes decoded as UTF-8; undecodable bytes are a
    ParseError."""
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


class Graph:
    """Simple undirected graph with sorted adjacency lists.

    Holds only `n`, `m` and `adj` (memory O(n + m)). Immutable after
    construction; all queries are pure reads, so instances are safe to
    share across concurrent workers. The constructor checks each edge in
    input order (the first bad one raises), appends each endpoint to the
    other's row, then sorts every row and drops the repeats of a row
    that has any.
    """

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise RangeError(f"vertex count must be >= 0, got {n}")
        _check_vertex_count(n)
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise RangeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            rows[u].append(v)
            rows[v].append(u)
        for k, row in enumerate(rows):
            row.sort()
            # a repeated edge, in either orientation, repeats an id in both rows
            rows[k] = tuple(row) if len(set(row)) == len(row) else tuple(sorted(set(row)))
        self.n = n
        self.m = sum(map(len, rows)) // 2
        self.adj = tuple(rows)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _vertex_ids(g: Graph, vertices: Iterable[int] | None) -> tuple[int, ...]:
    """Sorted distinct ids of `vertices`, validating ranges in input
    order; None means every vertex."""
    if vertices is None:
        return tuple(range(g.n))
    ids = list(vertices)
    for v in ids:
        if not 0 <= v < g.n:
            raise RangeError(f"vertex {v} out of range for n={g.n}")
    return tuple(sorted(set(ids)))


def _undominated(g: Graph, dominating: Iterable[int], targets: Iterable[int] | None) -> list[int]:
    """Sorted targets (default: all vertices) outside the closed
    neighborhood of `dominating`."""
    covered = bytearray(g.n)
    for v in _vertex_ids(g, dominating):
        covered[v] = 1
        for u in g.adj[v]:
            covered[u] = 1
    return [u for u in _vertex_ids(g, targets) if not covered[u]]


def is_dominating(g: Graph, dominating: Iterable[int], targets: Iterable[int] | None = None) -> bool:
    """True iff every target lies in the closed neighborhood of the set.

    `targets` defaults to all vertices.
    """
    return not _undominated(g, dominating, targets)


def _decimal(tok: str) -> int:
    """The value of `tok`, an ASCII decimal integer, optionally negative.
    Raises ValueError for any other token (int() alone also takes "+",
    "_" separators and non-ASCII digits) and, from int(), past its digit
    limit."""
    if not (tok.isascii() and tok.removeprefix("-").isdigit()):
        raise ValueError(f"not a decimal integer: {tok!r}")
    return int(tok)


# A canonical body, as `serialize_graph` writes it, is one _EDGE_LINE per
# edge: single spaces, ASCII digits and "\n" line ends.
_EDGE_LINE = re.compile(r"e [0-9]+ [0-9]+\n")
# a line break that neither ends the text nor starts another _EDGE_LINE
_BAD_BREAK = re.compile(r"\n(?!e [0-9]+ [0-9]+\n|\Z)")
# The line boundaries of str.splitlines()
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _lines(text: str) -> Iterator[tuple[str, int]]:
    """The lines of `text` as str.splitlines() cuts them, one at a time,
    so that nothing past the current line is split off; each with the
    index just past its line break."""
    start = 0
    for brk in _LINE_BREAK.finditer(text):
        yield text[start:brk.start()], brk.end()
        start = brk.end()
    if start < len(text):
        yield text[start:], len(text)


def parse_graph(text: str | bytes) -> Graph:
    """Parse the edge-list format; see the module docstring.

    Raises ParseError (malformed line, a count or id that is not a
    decimal integer, or bytes that are not UTF-8), RangeError (id out of
    range) or ValidationError (self-loop), each tagged with the line
    number when there is one, and ResourceLimitError for more than
    MAX_VERTICES vertices.
    """
    text = _as_text(text)
    n = m_declared = None
    edges: list[tuple[int, int]] = []
    for lineno, (raw, end) in enumerate(_lines(text), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if n is None:
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "ds":
                raise ParseError(f"expected 'p ds <n> <m>', got {raw.strip()!r}", lineno)
            try:
                n, m_declared = _decimal(fields[2]), _decimal(fields[3])
            except ValueError:
                raise ParseError(f"non-integer counts in {raw.strip()!r}", lineno) from None
            if n < 0 or m_declared < 0:
                raise ParseError("negative counts in header", lineno)
            _check_vertex_count(n)
            g = _read_body(text, end, n, m_declared)
            if g is not None:
                return g
            continue
        if len(fields) != 3 or fields[0] != "e":
            raise ParseError(f"expected 'e <u> <v>', got {raw.strip()!r}", lineno)
        if len(edges) >= m_declared:
            raise ParseError(f"more than {m_declared} edge lines", lineno)
        _, a, b = fields
        try:
            # two non-negative ids on an ASCII line pass the fast test;
            # negative ones pass _decimal and fail the range check below
            if raw.isascii() and a.isdigit() and b.isdigit():
                u, v = int(a), int(b)
            else:
                u, v = _decimal(a), _decimal(b)
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw.strip()!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise RangeError(f"line {lineno}: endpoint out of range in {raw.strip()!r}")
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop {raw.strip()!r}")
        edges.append((u, v))
    if n is None:
        raise ParseError("missing 'p ds <n> <m>' header")
    if len(edges) != m_declared:
        raise ParseError(f"header declares {m_declared} edges, found {len(edges)}")
    return Graph(n, edges)


def _is_canonical_body(text: str, pos: int) -> bool:
    """Whether `text[pos:]` is a canonical body, with no state kept per
    line: empty, or an edge line at `pos` whose every line break in turn
    starts another edge line or ends the text. (A `fullmatch` of the
    repeated line would keep backtracking state for every line.)"""
    return pos == len(text) or (
        _EDGE_LINE.match(text, pos) is not None and _BAD_BREAK.search(text, pos) is None
    )


def _read_body(text: str, pos: int, n: int, m: int) -> Graph | None:
    """The graph of a text whose header line ends at `pos`, when
    `text[pos:]` is a canonical body of m edge lines, read with
    whole-text operations; None for any other body and for an invalid
    graph, which `parse_graph` then reads or rejects line by line.

    One `json.loads` decodes every id; it refuses leading zeros, and
    `int()` refuses ids past its digit limit, so such bodies also go to
    the line reader. Each edge is checked once, by `Graph`."""
    if not _is_canonical_body(text, pos) or text.count("\n", pos) != m:
        return None
    try:
        # "e 1 2\ne 3 4\n" -> "[1,2,3,4]"; an empty body gives "[]"
        ids = json.loads("[" + text[pos + 2:-1].replace("\ne ", ",").replace(" ", ",") + "]")
    except ValueError:
        return None
    us, vs = ids[0::2], ids[1::2]
    del ids
    try:
        return Graph(n, zip(us, vs))
    except (RangeError, ValidationError):  # an id out of range, or a self-loop
        return None


def serialize_graph(g: Graph) -> str:
    lines = [f"p ds {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
