"""Exception types and diagnostics shared across the toolkit.

Most exceptions carry the offending terms rather than pre-rendered
strings; ``__str__`` renders them lazily so that modules below the
printer in the import graph can raise rich errors without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


@dataclass
class Span:
    """A position in a source file (1-based line and column)."""

    source: str
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.source}:{self.line}:{self.col}"


@dataclass
class Diagnostic:
    """A single finding from a validation or analysis pass.

    ``severity`` is ``"error"`` for genuine violations and ``"note"``
    for benign observations that a caller may still want to surface.
    """

    code: str
    message: str
    subject: str = ""
    severity: str = "error"
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        subj = f" [{self.subject}]" if self.subject else ""
        return f"{self.severity}: {self.code}{subj}: {self.message}"


def _show(x: Any, names: Sequence[str] = (), avoid: Iterable[str] = ()) -> str:
    # Render terms through the pretty printer when possible, in a context
    # whose entries and binders print as the CLI prints them, primed
    # against the names in ``avoid``; fall back to repr for anything the
    # printer does not know about.
    try:
        from . import syntax

        return syntax.render(x, syntax.fresh_names(names, avoid), avoid)
    except Exception:
        return repr(x)


class PimodError(Exception):
    """Base class for user-facing failures.

    ``names`` are the hints of the typing context that the carried terms
    live in, oldest first; their variables print under those names.
    ``avoid`` holds the names of the constants (or sorts) in scope, which
    no printed variable takes.
    """

    def __init__(self, message: str = "", *, names: Sequence[str] = (),
                 avoid: Iterable[str] = (), **info: Any):
        super().__init__(message)
        self.message = message
        self.names = tuple(names)
        self.avoid = avoid
        self.info = info

    def __str__(self) -> str:
        parts = [self.message] if self.message else []
        for key, val in self.info.items():
            parts.append(f"{key}={_show(val, self.names, self.avoid)}")
        return "; ".join(parts) if parts else self.__class__.__name__


class ParseError(PimodError):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.span = span

    def __str__(self) -> str:
        return f"{self.span}: {self.message}"


class UnboundVariable(PimodError):
    pass


class UnknownConstant(PimodError):
    pass


class ArityMismatch(PimodError):
    pass


class KindHasNoType(PimodError):
    pass


class NotAProduct(PimodError):
    pass


class TypeMismatch(PimodError):
    """Raised when checking a term against a type it does not have.

    ``expected`` and ``actual`` are both weak-head normal.
    """

    def __init__(self, message: str, expected: Any = None, actual: Any = None, **info: Any):
        super().__init__(message, **info)
        self.expected = expected
        self.actual = actual

    def __str__(self) -> str:
        base = super().__str__()
        if self.expected is not None or self.actual is not None:
            return (f"{base}: expected {_show(self.expected, self.names, self.avoid)}, "
                    f"got {_show(self.actual, self.names, self.avoid)}")
        return base


class FuelExhausted(Exception):
    """The step budget ran out before the operation finished.

    Not a :class:`PimodError`: running out says nothing about the input,
    so no ``except PimodError`` may turn it into a diagnostic, a failed
    check or a soundness violation.
    """


class NotErasable(PimodError):
    pass


class NonFunctionalSpec(PimodError):
    pass


class NonTerminatingSpec(PimodError):
    """An entry of an internalized sort table whose reducts run into a
    cycle, or that the search gave up on undecided."""


class UnknownSort(PimodError):
    pass


class TopSortHasNoType(PimodError):
    pass


class SideConditionFailed(PimodError):
    pass


class ElaborationFailed(PimodError):
    pass


class MissingBody(PimodError):
    pass


class UnrepresentableSort(PimodError):
    pass


class InternalSoundnessError(PimodError):
    """A violation of a property the toolkit guarantees by construction.

    These indicate a bug in the kernel or the encodings, never a user
    error; the CLI maps them to a distinct exit code and dumps the
    offending data for a bug report.
    """


class NotInvertible(InternalSoundnessError):
    pass


class EptsCheckFailed(InternalSoundnessError):
    pass
