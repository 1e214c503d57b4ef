"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by the library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause without swallowing unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations.

    Examples include adding a self-loop, querying a vertex that does not
    exist, or removing an edge that was never inserted.
    """


class InvalidProbabilityError(GraphError):
    """Raised when an edge probability falls outside the interval (0, 1]."""


class ParameterError(ReproError):
    """Raised when an algorithm parameter is out of its documented domain.

    Examples include a non-positive size threshold ``k`` or a probability
    threshold ``eta`` outside [0, 1].
    """


class DatasetError(ReproError):
    """Raised when a dataset generator or loader receives bad input."""


class SanitizerViolation(ReproError):
    """Raised by the runtime sanitizer when an enumeration invariant fails.

    Carries a :class:`repro.sanitize.report.ViolationReport` (as
    ``report``) naming the failed check (S1–S5), the recursion path at
    the violation site, and enough context to replay the offending
    subtree (see :func:`repro.sanitize.replay`).  ``report`` is typed
    loosely here so the exception hierarchy stays import-cycle-free.
    """

    def __init__(self, message: str, report: object = None):
        super().__init__(message)
        self.report = report


class KernelBackendError(ReproError):
    """Raised when a graph cannot be compiled for the kernel backend.

    The bitset kernel requires float (or int) edge probabilities and a
    float-comparable ``eta``; exact :class:`~fractions.Fraction` runs
    must use the dict backend.  The enumerator never meets this error:
    :func:`repro.kernel.enumerate.effective_backend` checks
    ``supports`` before any kernel state is built.  It surfaces only to
    callers that build a :class:`repro.kernel.CompactGraph` or a
    ``KernelStateOps`` directly.
    """
