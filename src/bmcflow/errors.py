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

    Raised by flow.step when no try at or above dt_min is acceptable;
    flow.run ends the run there with the verdict Failed and the message
    as its reason.
    """


class NotMorseError(RuntimeError):
    """The function fails the Morse property (degenerate or constant)."""


class NormalizeError(RuntimeError):
    """Center-of-mass normalization did not reach the residual target."""

    def __init__(self, message, best_map=None, best_residual=None):
        super().__init__(message)
        self.best_map = best_map
        self.best_residual = best_residual
