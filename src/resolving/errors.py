"""Exception types shared across the package."""


class GraphError(ValueError):
    """Invalid graph construction or use."""


class DisconnectedGraphError(GraphError):
    """An operation that needs a connected graph got a disconnected one.

    Carries one unreachable vertex pair as evidence.
    """

    def __init__(self, u, v):
        self.pair = (u, v)
        super().__init__(
            f"graph is disconnected: no path between vertices {u} and {v}"
        )


class _LineParseError(ValueError):
    """Malformed input text. ``line_no`` is 1-based."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EdgeListParseError(_LineParseError, GraphError):
    """Malformed edge-list text."""


class DesignParseError(_LineParseError):
    """Malformed design file."""


class ModeError(ValueError):
    """Invalid check mode or order for the graph at hand."""


class OracleCapError(ValueError):
    """A brute-force oracle was invoked beyond its size cap."""
