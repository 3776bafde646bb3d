"""Shared exception types."""


class IntegrationFailure(RuntimeError):
    """A flow or SDE integration produced a non-finite state.

    The ``time`` attribute records the grid time (or unit-interval flow
    parameter) at which the blow-up was detected.
    """

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class DegeneracyError(RuntimeError):
    """A transversality split degenerated (near-singular frame)."""


class MeshInversionError(RuntimeError):
    """Newton inversion of a mesh map failed to converge.

    Reported separately from genuine degeneracy: a failed inversion may be a
    resolution problem, not a geometric one.
    """


class ConfigError(ValueError):
    """Invalid or unparseable experiment configuration."""
