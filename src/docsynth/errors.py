"""Exception hierarchy shared across the package."""


class DocsynthError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDocumentError(DocsynthError):
    """A document or value violates structural invariants (bad attribute
    names, unsupported Python types, malformed extended-JSON tags)."""


class TypeInferenceError(DocsynthError):
    """Base class for type inference failures."""


class HeterogeneousArrayError(TypeInferenceError):
    """Array elements have irreconcilable types."""


class UntypableArrayError(TypeInferenceError):
    """Array is empty (or all-null) and no element type was supplied."""


class UntypableNullError(TypeInferenceError):
    """A null admits no type from context (e.g. an attribute that is null in
    every document of a collection)."""


class MalformedQueryError(DocsynthError):
    """Query AST violates an arity or shape invariant."""


class ParseError(DocsynthError):
    """Query text could not be parsed."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at offset {position})")
        self.position = position


class EvalError(DocsynthError):
    """Base class for evaluation failures."""


class UnknownCollectionError(EvalError):
    """Query references a collection absent from the database."""


class UnwindNonArrayError(EvalError):
    """Unwind path resolved to a present, non-null, non-array value."""


class NotASubsetError(DocsynthError):
    """type_subtract called with a right operand that is not a subset of the left."""


class TaskError(DocsynthError):
    """A synthesis task file is malformed or inconsistent."""
