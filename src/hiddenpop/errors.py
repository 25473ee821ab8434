"""Exception hierarchy shared across the pipeline.

The CLI exits with code 3 on a DataError and with code 4 on any other
HiddenPopError.
"""


class HiddenPopError(Exception):
    """A pipeline invariant broke (CLI exit code 4)."""


class DataError(HiddenPopError):
    """The input is wrong (CLI exit code 3).

    The message starts with the offending file, or file:line, when there is one.
    """


class ExcludedCombination(DataError):
    """Legally impossible (bp, cit, pa) combination; signals corrupted input."""


class SchemaMismatch(DataError):
    """A saved model does not fit its feature schema or the schema beside it."""
