"""Exception types shared across the package."""


class CewlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(CewlabError):
    """Operands have incompatible shapes for the requested operation."""


class UnknownPreset(CewlabError):
    """Measurement preset name not found for the given system kind."""


class EmptyDataset(CewlabError):
    """An operation received or would produce a dataset with no records."""


class DegenerateLabels(CewlabError):
    """Both classes are required but only one is present."""


class TooFewRecords(CewlabError):
    """A dataset holds fewer records than an operation needs."""


class DrawBudgetExhausted(CewlabError):
    """Generation spent its draw budget before filling the class quotas."""


class FormatError(CewlabError):
    """Persisted file does not match the declared format."""


class DivergedTraining(CewlabError):
    """Training loss became non-finite."""


class WitnessFalsePositive(CewlabError):
    """An analytic witness flagged a separable state, which its criterion forbids."""


class ModelMismatch(CewlabError):
    """A model and its data differ in kind or preset, or two datasets given to one model do."""


class WorkerDied(CewlabError):
    """A pool worker process ended (killed, or out of memory) before returning its job."""
