"""Exception types shared across the package."""


class CopycartError(Exception):
    """Base class for all package-level errors."""


class ConfigError(CopycartError):
    """Invalid or incomplete run configuration."""


class IngestError(CopycartError):
    """Fatal problem with an input or output file (e.g. a duplicate tx_id, or an unwritable path)."""


class NoPairsError(CopycartError):
    """An estimator was asked to run on an empty matched-pair or dyad set."""


class EmptyMatrixError(CopycartError):
    """Co-purchase matrix requested but no dyad has the attribute resolved."""


class InsufficientBinsError(CopycartError):
    """Dose-response regression needs at least 3 non-empty delay bins."""


class InsufficientLabelsError(CopycartError):
    """Status model training needs a minimum number of labels per class."""


class InsufficientDataError(CopycartError):
    """Coordination test found no qualifying person pair."""


class SensitivityDomainError(CopycartError, ValueError):
    """Parameter outside the valid domain (gamma < 1, or lambda <= gamma)."""
