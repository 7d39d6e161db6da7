"""Exception hierarchy shared across the package.

Top-level categories map onto CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4, anything else -> 5 (internal).
"""


class PainFusionError(Exception):
    exit_code = 5
    category = "internal"


class ConfigError(PainFusionError):
    exit_code = 2
    category = "config"


class DataError(PainFusionError):
    exit_code = 3
    category = "data"


class NumericError(PainFusionError):
    exit_code = 4
    category = "numeric"


class InternalError(PainFusionError):
    pass


# --- data / parsing ---

class RowTooShort(DataError):
    pass


class NonNumericField(DataError):
    pass


class InvalidLabel(DataError):
    pass


class EmptyFile(DataError):
    pass


class SubjectInBothSplits(DataError):
    pass


class UnassignedSubject(DataError):
    pass


class WindowLongerThanSequence(DataError):
    pass


class InvalidConfig(ConfigError):
    pass


class ManifestError(DataError):
    pass


# --- statistics ---

class EmptyInput(DataError):
    pass


class NonFiniteInput(DataError):
    pass


class LengthMismatch(DataError):
    pass


class TooFewSamples(DataError):
    pass


class ZeroVariance(DataError):
    pass


class OutOfDomain(DataError):
    pass


class EmptyDataset(DataError):
    pass


class SchemeFeatureOutOfRange(ConfigError):
    pass


# --- modality schemes ---

class InvalidJointMap(ConfigError):
    pass


class InvalidScheme(ConfigError):
    pass


# --- models ---

class ShapeMismatch(DataError):
    pass


class DivergedLoss(NumericError):
    pass


class NonFiniteGradient(NumericError):
    pass


# --- fusion ---

class KeyMismatch(InternalError):
    pass


class ProbabilityOutOfRange(InternalError):
    pass


# --- evaluation ---

class TooFewSubjects(DataError):
    pass
