"""Error and diagnostic types shared across the toolchain."""

from dataclasses import MISSING, dataclass, field, fields


def frozen(cls):
    """`dataclass(frozen=True, slots=True)` with a cheaper constructor:
    its `__init__` sets each slot through the slot's own descriptor
    instead of calling `object.__setattr__` once per field. Equality,
    hashing, `repr`, `__match_args__` and immutability are the
    dataclass's, and so are attribute reads, which a dict written from
    `__init__` would have made slower."""
    cls = dataclass(frozen=True, slots=True)(cls)
    names = [f.name for f in fields(cls)]
    scope = {f"_{f.name}": f.default for f in fields(cls)
             if f.default is not MISSING}
    params = ", ".join(n if f"_{n}" not in scope else f"{n}=_{n}"
                       for n in names)
    scope.update({f"_set_{n}": getattr(cls, n).__set__ for n in names})
    body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    exec(f"def __init__(self, {params}):{body}", scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@frozen
class SourceSpan:
    file: str = "<string>"
    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    def __str__(self):
        return f"{self.file}:{self.line}:{self.col}"


NO_SPAN = SourceSpan()


@frozen
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
