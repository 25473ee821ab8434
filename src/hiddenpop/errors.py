"""Exception hierarchy shared across the pipeline."""


class HiddenPopError(Exception):
    """Base class for all pipeline errors."""


class DataError(HiddenPopError):
    """Bad input data (CLI exit code 3)."""


class ExcludedCombination(DataError):
    """Legally impossible (bp, cit, pa) combination; signals corrupted input."""


class MissingColumn(DataError):
    pass


class DuplicateLinkKey(DataError):
    pass


class RejectThresholdExceeded(DataError):
    pass


class ValidationError(DataError):
    pass


class NameFileMalformed(DataError):
    pass


class EmptyClass(DataError):
    pass


class SingularSystem(HiddenPopError):
    pass


class DimensionMismatch(HiddenPopError):
    pass


class SchemaMismatch(DataError):
    pass


class LengthMismatch(HiddenPopError):
    pass


class EmptyInput(HiddenPopError):
    pass


class OneClassOnly(DataError):
    pass


class TooSmall(DataError):
    pass


class TooFewRows(DataError):
    pass


class EmptyClassInFold(DataError):
    pass


class CoverageGap(HiddenPopError):
    """A register record ended up without a membership assignment; pipeline bug."""


class LevelMismatch(DataError):
    pass


class InfeasibleConfig(DataError):
    pass
