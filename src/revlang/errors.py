"""Error and diagnostic types shared across the toolchain."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class SourceSpan:
    file: str = "<string>"
    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


NO_SPAN = SourceSpan()


@dataclass(frozen=True)
class Diagnostic:
    """A validation finding. Carries the violated rule name, not an exception."""

    rule: str
    message: str
    span: SourceSpan = field(default=NO_SPAN, compare=False)

    def __str__(self):
        return f"{self.span}: [{self.rule}] {self.message}"


class RevLangError(Exception):
    """Base for all toolchain errors; carries an optional source span."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.message = message
        self.span = span if span is not None else NO_SPAN

    @property
    def name(self):
        return type(self).__name__

    def __str__(self):
        if self.span == NO_SPAN:   # no location is known
            return f"{self.name}: {self.message}"
        return f"{self.name} at {self.span}: {self.message}"


class RnlSyntaxError(RevLangError):
    pass


class ValidationFailed(RevLangError):
    def __init__(self, diagnostics):
        msg = "; ".join(str(d) for d in diagnostics)
        super().__init__(msg, diagnostics[0].span if diagnostics else None)
        self.diagnostics = list(diagnostics)


class RevError(RevLangError):
    """Base for runtime reversibility errors thrown by the interpreter."""


class PostconditionMismatch(RevError):
    pass


class DirtyAncilla(RevError):
    def __init__(self, message, span=None, name=None, residual=None):
        super().__init__(message, span)
        self.var_name = name
        self.residual = residual


class LoopIteratorMutated(RevError):
    pass


class AliasedArguments(RevError):
    pass


class AssertFailed(RevError):
    pass


class RevDomainError(RevError):
    pass


class FuelExhausted(RevError):
    pass


class UnboundVariable(RevError):
    pass


class DuplicateBinding(RevError):
    pass


class IndexOutOfBounds(RevError):
    pass


class NoSuchField(RevError):
    pass


class KindError(RevError):
    """Runtime value-kind mismatch (e.g. *= on a non-logarithmic target)."""


class MissingAdjoint(RevError):
    pass


class UnknownFunction(RevError):
    pass


class UnknownExample(RevLangError):
    pass


class ScheduleError(RevLangError):
    """Base for trade-off scheduler errors."""


class InvalidPartition(ScheduleError):
    pass


class NonConformingLength(ScheduleError):
    pass


class InvalidBudget(ScheduleError):
    pass
