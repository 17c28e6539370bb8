"""Exception hierarchy for the package."""


class KempeMinorError(Exception):
    """Base class for all errors raised by this package."""


# -- graph construction and manipulation ------------------------------------

class LoopEdgeError(KempeMinorError):
    """An edge with identical endpoints was supplied; graphs are loopless."""


class DuplicateEdgeIdError(KempeMinorError):
    """Two edges with the same identifier were supplied."""


class UnknownEndpointError(KempeMinorError):
    """An edge endpoint is not among the declared vertices."""


class UnknownEdgeIdError(KempeMinorError):
    """An edge identifier does not occur in the graph."""


class UnknownVertexError(KempeMinorError):
    """A vertex identifier does not occur in the graph."""


class DisconnectedContractionSetError(KempeMinorError):
    """Contraction requires a nonempty connected edge set."""


class WouldCreateLoopError(KempeMinorError):
    """An edge outside the contraction set joins two merged vertices."""


# -- solver ------------------------------------------------------------------

class InvalidInputError(KempeMinorError):
    """The input fails a precondition verifier."""


class InternalAssertionError(KempeMinorError):
    """A structural fact the algorithm relies on does not hold.

    On valid inputs this is unreachable; seeing it means either the input
    slipped past the verifiers or there is a bug.
    """


# -- generators ---------------------------------------------------------------

class BadModulusError(KempeMinorError):
    """The circulant modulus is not coprime to some shift difference."""


class ShiftOutOfRangeError(KempeMinorError):
    """A circulant shift is negative or not below the modulus."""


class OrderMismatchError(KempeMinorError):
    """Spliced factorizations have different numbers of classes."""


class NotPerfectError(KempeMinorError):
    """An input is not a perfect 1-factorization where one is required."""


# -- oracle -------------------------------------------------------------------

class BudgetExceededError(KempeMinorError):
    """The exhaustive search hit its budget before resolving the instance."""


# -- serialization ------------------------------------------------------------

class ParseError(KempeMinorError):
    """The document text is not well formed."""


class SchemaViolationError(KempeMinorError):
    """The document is well formed but violates the schema.

    The offending location is reported as a path like ``classes[2][0]``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
