"""Exception types shared across the package."""


class QtmError(Exception):
    """Base class for all errors raised by qtmlab."""


class ParseError(QtmError):
    """Malformed machine file, amplitude text, or input specification.

    Carries the 1-based source line when the error came from a line-based
    file, and the 0-based character offset when it came from a single
    expression.
    """

    def __init__(self, message, line=None, offset=None):
        loc = ""
        if line is not None:
            loc = f" (line {line})"
        elif offset is not None:
            loc = f" (offset {offset})"
        super().__init__(message + loc)
        self.line = line
        self.offset = offset


class MissingRuleError(QtmError):
    """Evolution reached a configuration whose (state, symbol) has no rule."""

    def __init__(self, state, symbol):
        super().__init__(f"no rule for state {state!r} reading {symbol!r}")
        self.state = state
        self.symbol = symbol


class NotReversibleError(QtmError):
    """A classical machine failed the injectivity check required for lifting;
    ``witnesses`` are its colliding ``(c1, c2)`` configuration pairs."""

    def __init__(self, witnesses):
        super().__init__(
            f"machine is not reversible: {len(witnesses)} colliding "
            f"configuration pair(s)"
        )
        self.witnesses = tuple(witnesses)
