"""Exception types shared across the package."""


class AndkitError(Exception):
    """Base class for every package-specific error."""


class DimensionError(AndkitError, ValueError):
    """Operands have incompatible shapes or lengths."""


class DegenerateInputError(AndkitError, ValueError):
    """An input is numerically unusable, e.g. a near-zero vector."""


class ConfigurationError(AndkitError, ValueError):
    """A bad or mistyped parameter; the CLI's only usage-error type (exit 2), never a loader's."""


class ContractError(AndkitError, ValueError):
    """A caller violated a documented API precondition."""


class FormatError(AndkitError, ValueError):
    """A serialised artifact is malformed: a wrong magic or version, a bad length or value."""


class ParseError(FormatError):
    """A text file failed to parse; the message carries the line number."""


class NumericError(AndkitError, ArithmeticError):
    """Non-finite values appeared where finite ones are required."""
