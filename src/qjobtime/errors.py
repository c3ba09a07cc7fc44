"""Exception hierarchy. Every error carries a stable machine-readable code."""


class QJobTimeError(Exception):
    """Base class; `code` is stable across releases, `exit_code` drives the CLI."""

    code = "ERROR"
    exit_code = 1


class InvalidGateError(QJobTimeError):
    code = "INVALID_GATE"
    exit_code = 5


class InvalidCircuitError(QJobTimeError):
    code = "INVALID_CIRCUIT"
    exit_code = 5


class WidthMismatchError(QJobTimeError):
    code = "WIDTH_MISMATCH"
    exit_code = 5


class CouplingError(QJobTimeError):
    code = "COUPLING_MAP"
    exit_code = 6


class SimulationCapError(QJobTimeError):
    code = "WIDTH_OVER_CAP"
    exit_code = 7


class InvalidParameterError(QJobTimeError):
    code = "INVALID_PARAMETER"
    exit_code = 2


class BackendNotFoundError(QJobTimeError):
    code = "BACKEND_NOT_FOUND"
    exit_code = 3


class MalformedRecordsError(QJobTimeError):
    code = "MALFORMED_CSV"
    exit_code = 4


class FitError(QJobTimeError):
    code = "FIT_RANK_DEFICIENT"
    exit_code = 8
