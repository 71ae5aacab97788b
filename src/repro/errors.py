"""Exception hierarchy for the second-order-signature framework.

Every error raised by the library derives from :class:`SOSError`, so client
code can catch a single class.  The subclasses follow the processing pipeline:
specification loading, type formation, type checking, parsing, optimization,
and execution.
"""

from __future__ import annotations


class SOSError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecificationError(SOSError):
    """A specification (kinds / type constructors / operators) is malformed."""


class KindError(SpecificationError):
    """A kind is unknown or used inconsistently."""


class LintError(SpecificationError):
    """Static analysis found error-severity diagnostics (strict mode).

    Carries the offending :class:`~repro.lint.LintReport` as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class TypeFormationError(SOSError):
    """A type term does not conform to the top-level signature.

    Raised when a type constructor is applied to the wrong number of
    arguments, to arguments of the wrong kind, or when a constructor spec
    (a dependent constraint such as the B-tree attribute constraint) fails.
    """


class TypeCheckError(SOSError):
    """A value term does not typecheck against the bottom-level signature."""


class NoMatchingOperator(TypeCheckError):
    """No functionality of an operator matches the given operand types."""


class ParseError(SOSError):
    """Concrete syntax could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + location)
        self.line = line
        self.column = column


class OptimizationError(SOSError):
    """A rewrite rule or the rule engine failed."""


class ExecutionError(SOSError):
    """Evaluation of a (typechecked) term failed at run time."""


class CatalogError(SOSError):
    """A catalog object is missing or a catalog lookup failed."""


class UpdateError(ExecutionError):
    """An update function was applied outside an update statement, or the
    updated target is not a named object."""


class StorageError(SOSError):
    """A storage structure (B-tree, LSD-tree, tidrel) was used incorrectly."""


class ResourceLimitError(ExecutionError):
    """Evaluation exceeded a configured resource guard (step budget or
    recursion depth) — the statement is aborted instead of hanging."""


class StatementTimeoutError(ResourceLimitError):
    """A statement ran past the server's ``--statement-timeout-ms``
    deadline and was cancelled mid-evaluation.

    Not retryable: a statement that blew its deadline once will very
    likely blow it again; the client should rewrite the query (or the
    operator should raise the limit) rather than loop.
    """

    retryable = False


class ServerBusyError(SOSError):
    """The server refused the request because it is shedding load — the
    connection limit (``--max-connections``) was hit, or the server is
    draining after SIGTERM.

    Always retryable: nothing was executed.  A client with a retry policy
    backs off and tries again; one without surfaces the error as-is.
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.retryable = True


class RequestTooLargeError(SOSError):
    """A request line sent to the server was longer than its line limit
    (``repro.server.net.REQUEST_LINE_LIMIT``).  Nothing was executed and
    the connection stays open.

    Not retryable: the same request is too long every time; send the
    program in smaller pieces.
    """

    retryable = False


class ConflictError(SOSError):
    """A transaction lost a first-committer-wins race.

    Raised at commit time when another transaction committed a write to an
    object (or type name) in this transaction's write set after this
    transaction took its snapshot.  ``names`` lists the conflicting
    objects.  The transaction is rolled back; the statement sequence can
    simply be retried on a fresh transaction (``retryable`` is always
    True — the standard optimistic-concurrency client loop).
    """

    def __init__(self, message: str, names: tuple[str, ...] = ()):
        super().__init__(message)
        self.names = tuple(names)
        self.retryable = True


class ProtocolError(SOSError):
    """A network session's transport failed: the server went away
    mid-request, sent a malformed frame, or the DSN could not be reached."""


def is_retryable(exc: BaseException) -> bool:
    """True for errors a client may safely retry: a lost
    first-committer-wins race (:class:`ConflictError`), a load-shedding
    refusal (:class:`ServerBusyError`), or a transport failure
    (:class:`ProtocolError` — safe only when the request is idempotent or
    carries an idempotency token; the network session guarantees that)."""
    return bool(getattr(exc, "retryable", False)) or isinstance(
        exc, ProtocolError
    )


class StatementError(SOSError):
    """An error while processing one statement of a program.

    Carries the statement index (0-based, ``None`` for single-statement
    entry points), the statement source text, and the pipeline phase where
    the error arose (``parse`` / ``typecheck`` / ``optimize`` / ``execute``).

    Errors are wrapped through :func:`wrap_statement_error`, which builds a
    dynamic subclass of both :class:`StatementError` and the original error
    class — so ``except CatalogError`` and ``except StatementError`` both
    catch a wrapped catalog error.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int | None = None,
        source: str | None = None,
        phase: str | None = None,
    ):
        super().__init__(message)
        self.index = index
        self.source = source
        self.phase = phase

    def snippet(self, width: int = 78) -> str | None:
        """The first line of the statement source, trimmed for display."""
        if not self.source:
            return None
        line = self.source.strip().splitlines()[0]
        return line if len(line) <= width else line[: width - 3] + "..."


_WRAPPER_CLASSES: dict[type, type] = {}


def statement_phase_of(exc: BaseException) -> str:
    """The pipeline phase an exception class belongs to."""
    if isinstance(exc, ParseError):
        return "parse"
    if isinstance(exc, (TypeCheckError, TypeFormationError)):
        return "typecheck"
    if isinstance(exc, OptimizationError):
        return "optimize"
    return "execute"


def wrap_statement_error(
    cause: SOSError,
    *,
    index: int | None = None,
    source: str | None = None,
    phase: str | None = None,
) -> "StatementError":
    """Wrap ``cause`` in a :class:`StatementError` that is also an instance
    of the cause's own class (so existing handlers keep working).  An
    already-wrapped error is returned itself, with a missing ``index`` or
    ``source`` filled in (a program stamps its statement index over the
    ``index=None`` of a single statement)."""
    if isinstance(cause, StatementError):
        if cause.index is None:
            cause.index = index
        if cause.source is None:
            cause.source = source
        return cause
    wrapper = _WRAPPER_CLASSES.get(type(cause))
    if wrapper is None:
        wrapper = type(
            "Statement" + type(cause).__name__,
            (StatementError, type(cause)),
            {"__init__": StatementError.__init__},
        )
        _WRAPPER_CLASSES[type(cause)] = wrapper
    if phase is None:
        phase = statement_phase_of(cause)
    where = f"statement {index + 1}" if index is not None else "statement"
    err = wrapper(
        f"{where} ({phase}): {cause}", index=index, source=source, phase=phase
    )
    err.__cause__ = cause
    return err
