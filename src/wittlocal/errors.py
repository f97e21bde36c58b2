"""Exceptions shared across the package."""


class WittlocalError(Exception):
    """Base class of the package's own errors.  A failed precondition on an
    argument raises ValueError instead; the CLI maps both to exit 3 (ParseError
    to 2).  No subclass is a ValueError, which `cli._load_json` would re-wrap."""


class ParseError(WittlocalError):
    """Malformed element text, window syntax, or JSON input."""


class MixedAlgebras(WittlocalError):
    """Two operands belong to different algebras."""


class IndexOutOfDomain(WittlocalError):
    """A basis index falls outside the algebra's index domain."""


class TruncationTooSmall(WittlocalError):
    """A map table does not cover the indices a computation needs."""


class NotADerivation(WittlocalError):
    """A map table failed the internal consistency verification."""


class WindowTooSmall(WittlocalError):
    """A window does not contain the indices a computation needs."""
