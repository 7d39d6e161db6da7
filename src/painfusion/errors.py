"""Exception classes, one per CLI exit code.

ConfigError -> 2, DataError -> 3, NumericError -> 4, InternalError (and
anything else) -> 5. Each failure prints one ``error[<category>]:
<message>`` line; the message names the check that fired. ZeroVariance
is the one finer class, because ``analyze`` catches it to mark a
constant feature.
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


class ZeroVariance(DataError):
    pass
