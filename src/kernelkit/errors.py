"""Exception types shared across the package."""


class KernelKitError(Exception):
    """Base class for all package-specific errors."""


class LoopArcError(KernelKitError):
    """An arc (u, u) was supplied; digraphs are loopless."""


class DuplicateArcError(KernelKitError):
    """The same arc was supplied more than once."""


class VertexOutOfRangeError(KernelKitError):
    """A vertex id is negative or >= vertex_count."""


class EmptySetError(KernelKitError):
    """An operation requiring a nonempty vertex set received an empty one."""


class SizeBoundError(KernelKitError):
    """The instance exceeds the configured size bound for exhaustive search."""


class BudgetExceededError(KernelKitError):
    """An enumeration hit its explicit item budget."""


class NotAKernelError(KernelKitError):
    """A set claimed to be a (k,l)-kernel failed verification."""


class SubkernelMissingError(KernelKitError):
    """An induced subdigraph required by the substitution process has no 3-kernel."""


class NoBaseKernelError(KernelKitError):
    """D - x0 has no 3-kernel, so the substitution method cannot start."""


class NoRoadFoundError(KernelKitError):
    """No labeled path satisfying the road conditions exists for (v, s)."""


class TraceInvariantError(KernelKitError):
    """A substitution trace breaks the invariants of its set construction."""


class DigraphSyntaxError(KernelKitError):
    """A digraph text document failed to parse."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
