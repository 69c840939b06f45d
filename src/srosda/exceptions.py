"""Exception hierarchy for the srosda package."""


class SrosdaError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(SrosdaError):
    """A caller violated an operation precondition (bad shapes, empty input, ...)."""


class DataError(SrosdaError):
    """Input data is malformed at the value level (non-finite entries, empty class, ...)."""


class FormatError(SrosdaError):
    """A file does not conform to one of the on-disk formats."""


class SingularMatrixError(SrosdaError):
    """Matrix inversion hit a zero matrix or a zero pivot."""


class GenerationError(SrosdaError):
    """Synthetic dataset generation could not satisfy its separation constraints."""


class ConfigError(SrosdaError):
    """Invalid training or generation configuration."""


class TrainingError(SrosdaError):
    """Training aborted (non-finite loss or gradient)."""


class ProtocolError(SrosdaError):
    """An evaluation protocol was invoked without its required inputs."""
