"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid grid/flow configuration value."""


class SpecParseError(ValueError):
    """Malformed function or initial-data specification string."""


class AdmissibilityError(RuntimeError):
    """Initial or evolved data left the admissible set.

    Carries ``condition``, a short name for the violated requirement
    (e.g. "positivity" or "positive f-weighted volume").
    """

    def __init__(self, message, condition=""):
        super().__init__(message)
        self.condition = condition


class FlowFailure(RuntimeError):
    """Hard failure of the time integration (not a math verdict).

    ``trajectory`` holds the rows recorded up to the failure so a run
    can still be audited.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NotMorseError(RuntimeError):
    """The function fails the Morse property (degenerate or constant)."""


class NormalizeError(RuntimeError):
    """Center-of-mass normalization did not reach the residual target."""

    def __init__(self, message, best_map=None, best_residual=None):
        super().__init__(message)
        self.best_map = best_map
        self.best_residual = best_residual
