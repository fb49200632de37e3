"""Exception types shared across the engine.

Every error carries a ``component`` attribute naming the part of the engine
that raised it, so the CLI can prefix messages accordingly.
"""


class EngineError(Exception):
    """Base class for all engine failures."""

    component = "engine"


class ValidationError(EngineError, ValueError):
    """A term (or config) violates one of its structural constraints.

    The component defaults to ``terms``; an input bound of another part of
    the engine (a catalog, a suite or the secant laboratory) names that part
    instead.
    """

    component = "terms"

    def __init__(self, message: str, component: str | None = None):
        if component is not None:
            self.component = component
        super().__init__(message)


class ParseError(EngineError, ValueError):
    """The surface syntax could not be parsed; carries the input position."""

    component = "dsl"

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class NotCoveredByLines(EngineError):
    """The variety has no lines through a general point."""

    component = "families"


class NoRule(EngineError):
    """The variety is covered by lines but no family rewrite rule exists.

    This is a first-class outcome: the chain engine reads it as ``"no_rule"``
    from ``family_outcome`` and degrades the chain invariant to a lower bound
    instead of failing.
    """

    component = "families"


class PreconditionFailed(EngineError):
    """An operation was called outside its stated hypotheses."""

    component = "checks"


class TraceError(EngineError):
    """The emitted proof trace contradicted the engine's own tables (a bug)."""

    component = "checks"


class DegenerateRandomness(EngineError):
    """Randomized ranks disagreed across too many trials; re-seed advised."""

    component = "secant"
