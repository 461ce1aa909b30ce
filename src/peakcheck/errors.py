"""Exception types shared across the package."""


class PeakcheckError(Exception):
    """Base class for all peakcheck errors."""


class CycleError(PeakcheckError):
    """The transitive closure of the given comparisons violates asymmetry."""


class ClassError(PeakcheckError):
    """An operation received an order of a more general class than it supports."""


class PinError(PeakcheckError):
    """A pinned guided run was asked for on fewer than two candidates."""


class NoTotalOrderError(PeakcheckError):
    """The 2-SAT recognizer requires a profile containing a total order."""


class SizeError(PeakcheckError):
    """Input exceeds the configured bound of a brute-force operation."""


class HardnessError(PeakcheckError):
    """No polynomial algorithm applies and the instance is too large to brute-force."""


class WitnessError(PeakcheckError):
    """A precondition failed; carries the forbidden-substructure witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AxisError(PeakcheckError):
    """An axis does not order exactly the candidates of the profile."""


class InternalError(PeakcheckError):
    """An engine broke one of its own invariants, such as returning an axis
    that fails verification; always a bug in peakcheck."""


class ParseError(PeakcheckError):
    """Malformed election file."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class UnknownCandidateError(ParseError):
    """A ballot references a candidate not declared in the file header."""
