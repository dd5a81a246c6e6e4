"""Exception hierarchy shared by all tworoman modules."""


class TwoRomanError(Exception):
    """Base class for every error raised by this package."""


class OutOfRangeError(TwoRomanError):
    """A vertex id is not an int in 0..order-1."""

    def __init__(self, vertex):
        super().__init__(f"vertex id out of range: {vertex}")
        self.vertex = vertex


class SelfLoopError(TwoRomanError):
    """An edge joins a vertex to itself."""

    def __init__(self, vertex):
        super().__init__(f"self-loop on vertex {vertex}")
        self.vertex = vertex


class EmptyGraphError(TwoRomanError):
    """Operation requires at least one vertex."""


class TooLargeError(TwoRomanError):
    """Graph exceeds the enumeration order limit."""

    def __init__(self, order, limit):
        super().__init__(f"order {order} exceeds enumeration limit {limit}")
        self.order = order
        self.limit = limit


class BadLimitError(TwoRomanError):
    """A limit override in the environment is not a non-negative integer."""

    def __init__(self, variable, value):
        super().__init__(f"{variable} must be a non-negative integer, got {value!r}")
        self.variable = variable
        self.value = value


class InvalidEccdError(TwoRomanError):
    """A path collection violates the end-coupled center-disjoint rules."""


class NotMinimumError(TwoRomanError):
    """A labeling claimed to be minimum fails validity or the weight check."""


class BadSpecError(TwoRomanError):
    """A family or patch specification is malformed."""


class IncompatibleTorusError(TwoRomanError):
    """Torus dimensions are incompatible with a pattern period or lattice."""


class ParseError(TwoRomanError):
    """A graph file line does not match the record grammar."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class DuplicateVertexError(TwoRomanError):
    """The same vertex id is defined by two records."""

    def __init__(self, vertex):
        super().__init__(f"duplicate vertex record: {vertex}")
        self.vertex = vertex


class UnknownNeighborError(TwoRomanError):
    """An adjacency list mentions a vertex no record defines."""

    def __init__(self, vertex):
        super().__init__(f"unknown neighbor id: {vertex}")
        self.vertex = vertex


class MixedLabelsError(TwoRomanError):
    """A graph file mixes -1 (unlabeled) with concrete labels."""
