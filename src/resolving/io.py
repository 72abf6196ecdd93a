"""Plain-text edge-list serialization, and the line reader that both text
formats (edge lists here, design files in ``rook``) are read with.

Format: the first non-comment line is the vertex count n; every following
non-comment line is an edge ``u v`` with 0 <= u < v < n. Lines whose first
non-blank character is ``#`` are comments; blank lines are ignored. The
canonical writer emits edges sorted lexicographically and ends with a
newline.
"""

from __future__ import annotations

from .errors import EdgeListParseError
from .graphs import build_graph


def _int_lines(text, error):
    """Yield (1-based line number, integers) for each non-comment line of
    text; a blank line yields ().  A non-integer token raises ``error``."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        try:
            ints = tuple(map(int, line.split()))
        except ValueError:
            raise error(line_no, f"non-integer token in {line!r}") from None
        yield line_no, ints


def parse_edge_list(text):
    """Parse edge-list text into a Graph."""
    n = None
    edges = []
    for line_no, ints in _int_lines(text, EdgeListParseError):
        if not ints:
            continue
        if n is None:
            if len(ints) != 1:
                raise EdgeListParseError(line_no, "expected the vertex count alone")
            (n,) = ints
            if n < 1:
                raise EdgeListParseError(line_no, f"vertex count must be positive, got {n}")
            continue
        if len(ints) != 2 or not (0 <= ints[0] < ints[1] < n):
            raise EdgeListParseError(line_no, f"expected an edge 'u v' with 0 <= u < v < {n}, got {ints}")
        edges.append(ints)
    if n is None:
        raise EdgeListParseError(1, "empty input: no vertex count line")
    return build_graph(n, edges)


def write_edge_list(g):
    """Canonical edge-list text for a graph (labels are not serialized)."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for (u, v) in sorted(g.edges()))
    return "\n".join(lines) + "\n"


def read_graph_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_graph_file(g, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_edge_list(g))
