"""Exception types shared across the package.

Split into two families: input/data errors (bad files, bad grids, bad
configuration) and solver errors (the problem itself is broken).  The CLI
maps the first family to exit code 2 and the second to exit code 3/4.
"""


class DisaggError(Exception):
    """Base class for every error raised by this package."""


# --- input / data errors -------------------------------------------------

class InputError(DisaggError):
    """Bad user input: files, grids, configuration."""


class FormatError(InputError):
    """A CSV row could not be parsed.  Carries the 1-based line number."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class GridError(InputError):
    """Timestamps do not sit on a uniform grid."""


class TooSparseError(InputError):
    """Too large a fraction of a series is missing to repair."""


class ResampleError(InputError):
    """Target period is not an integer multiple of the source period."""


class FoldError(InputError):
    """Not enough days to build the requested fold plan."""


class AlignmentError(InputError):
    """Two series (or a series and a bank) do not share start/period/length."""


class DesignError(InputError):
    """Band-pass corner frequencies are invalid for the sampling rate."""


class TooShortError(InputError):
    """Series shorter than the forward-backward filter needs."""


class BankMismatchError(InputError):
    """A capacity vector was fitted against a different plane bank."""


def config_number(value, key: str, integer: bool = False):
    """A config value as a float (an int when integer is set); numeric
    strings convert, anything else raises InputError naming the key."""
    if integer and isinstance(value, int):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise InputError(f"{key}: expected a number, got {value!r}") from None
    if integer and not number.is_integer():
        raise InputError(f"{key}: expected an integer, got {value!r}")
    return int(number) if integer else number


def config_mappings(value, key: str) -> list:
    """A config list of mappings (as YAML reads ``- {tilt: 30}`` items);
    anything else raises InputError naming the key."""
    if (not isinstance(value, (list, tuple))
            or not all(isinstance(entry, dict) for entry in value)):
        raise InputError(
            f"{key}: expected a list of mappings, got {value!r}")
    return value


# --- solver errors --------------------------------------------------------

class SolverError(DisaggError):
    """Base class for optimisation failures."""


class NotConvexError(SolverError):
    """Quadratic cost is not positive definite even after regularisation."""


class DegenerateWeightsError(SolverError):
    """Robust reweighting drove every sample weight to zero."""
