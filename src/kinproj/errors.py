"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid grid, plan, scenario, or CLI configuration."""


class InfeasiblePlanError(ConfigurationError):
    """Step-size layout cannot be realized (e.g. negative M)."""


class StepRejectionError(RuntimeError):
    """A time step produced non-finite or non-physical data.

    Carries the index tuple of the first offending entry in ``index``: its
    spatial cell for a non-physical moment, and its full (cell, velocity)
    position for a non-finite right-hand side.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class DiagnosticError(RuntimeError):
    """A self-check inside a diagnostic routine failed (e.g. a non-finite
    response of the Jacobian probe)."""
