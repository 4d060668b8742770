"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for every error the engine raises deliberately."""


class NonInvertibleSubstitution(EngineError):
    """A negative power was substituted with something that has no Laurent inverse."""


class NotUnipotent(EngineError):
    """An automorphism fails the identity-on-associated-graded invariant."""


class NotAdapted(EngineError):
    """A chart transition does not preserve the normal-variable ideal."""


class NotFlat(EngineError):
    """An operation required a flat connection but the curvature is nonzero."""


class NotClosed(EngineError):
    """A cochain that must be a cocycle is not."""


class FrameMismatch(EngineError):
    """Transport data between chart frames is missing or inconsistent."""


class SectionNotValued(EngineError):
    """A section defect landed outside the kernel of an abelian extension."""


class NotMaurerCartan(EngineError):
    """A vector required to satisfy the Maurer-Cartan equation does not."""


class UnsupportedSheaf(EngineError):
    """The cohomology oracle cannot decompose the requested sheaf."""


class UnknownScenario(EngineError):
    """No builtin generator with the requested name."""


class ParseError(EngineError):
    """Scenario file is syntactically or structurally invalid."""


class SchemaVersionError(EngineError):
    """Scenario file uses an unsupported schema version."""
