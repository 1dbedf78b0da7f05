"""Exception types shared across the package.

Split into two families: input/data errors (bad files, bad grids, bad
configuration) and solver errors (the problem itself is broken).  The CLI
maps the first family to exit code 2 and the second to exit code 3.
Only FormatError subclasses a family: the CSV reader catches it, and it
carries the line number.
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


def config_number(value, key: str, integer: bool = False):
    """A config value as a float (an int when integer is set); numeric
    strings convert, anything else (a YAML boolean included) raises
    InputError naming the key."""
    bad = InputError(f"{key}: expected a number, got {value!r}")
    if isinstance(value, bool):  # YAML's true/false, yes/no, on/off
        raise bad
    if integer and isinstance(value, int):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise bad from None
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


def config_keys(mapping: dict, known, what: str) -> dict:
    """mapping itself when every key is in known; otherwise ValueError
    naming the unknown keys as ``what`` keys."""
    unknown = set(mapping) - set(known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(map(str, unknown))}")
    return mapping


# --- solver errors --------------------------------------------------------

class SolverError(DisaggError):
    """An optimisation failed: the problem itself is broken."""
