"""Exception hierarchy shared by all uilkit modules."""


class UilkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(UilkitError):
    """Invalid run configuration or CLI usage."""


class DomainError(UilkitError):
    """An input value lies (or may lie) outside its certified domain."""


class PrecisionExhausted(UilkitError):
    """A sign or width target could not be certified within the precision cap.

    ``index`` identifies the first offending item (orbit index, tower level,
    ...) when the caller knows one.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class UnresolvedComparison(UilkitError):
    """An enclosure straddles a decision boundary at maximum precision."""


class CriticalHit(UilkitError):
    """The critical orbit hits c exactly.  No slope in (1, 2] raises it: for
    s = p/q in lowest terms, q > 1, c_n = a_n / (2 q^n) with a_{n+1} = p *
    min(a_n, 2 q^n - a_n) coprime to q; s = 2 and interval slopes miss c."""

    def __init__(self, n):
        super().__init__(f"critical orbit returns to c exactly at step {n}")
        self.n = n


class NotAdmissible(UilkitError):
    """A kneading prefix or kneading map violates admissibility."""

    def __init__(self, position, reason=""):
        msg = f"not admissible at position {position}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.position = position
        self.reason = reason


class UnrealizableWord(UilkitError):
    """A symbol word has an empty cylinder for the given map."""


class NoRecurrenceWitness(UilkitError):
    """No prefix-recurrence chain reaches the requested depth."""

    def __init__(self, max_depth):
        super().__init__(
            f"no recurrence chain reaches the requested depth "
            f"(deepest witness: {max_depth})"
        )
        self.max_depth = max_depth


class ConstructionStuck(UilkitError):
    """The sequence generator reached a state its invariants forbid.

    This must never fire on admissible states; it carries a full state dump
    for post-mortem analysis.
    """

    def __init__(self, stage, state):
        super().__init__(f"construction stuck in stage {stage!r}")
        self.stage = stage
        self.state = state


class ConditionViolated(UilkitError):
    """A chain-construction invariant failed at some level."""

    def __init__(self, level, reason=""):
        msg = f"chain condition violated at level {level}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)
        self.level = level
        self.reason = reason


class InternalInconsistency(UilkitError):
    """Two independent checkers disagreed.  Always a bug."""
