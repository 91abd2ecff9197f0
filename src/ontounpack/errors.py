"""Exception types shared across the toolkit."""
from __future__ import annotations


class OntoError(Exception):
    """Base class for every toolkit error."""


class NoKindError(OntoError):
    """A sortal reaches no Kind through its specialization ancestry."""


class AmbiguousKindError(OntoError):
    """A sortal reaches more than one Kind through its specialization ancestry."""


class UnpackError(OntoError):
    """Base class for unpacking failures."""


class NotMaterialError(UnpackError):
    """The named relation is missing or is not a material relation."""


class AlreadyDerivedError(UnpackError):
    """The material relation already carries a derivation."""


class NameClashError(UnpackError):
    """A name proposed by an unpack plan is already declared."""


class UnorderedSpaceError(UnpackError):
    """A comparative needs an ordered quality space, 0 <= lo <= hi, but got another."""


class NotBinaryRelatorError(UnpackError):
    """Cardinality derivation needs a relator with exactly two mediations."""


class IllFormedModelError(OntoError):
    """The model has Error-level diagnostics and cannot be simulated."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        ids = ", ".join(d.rule_id for d in self.diagnostics)
        super().__init__(f"model has error diagnostics: {ids}")


class ScopeTooLargeError(OntoError):
    """The requested scope exceeds the enumeration hard cap."""


class MissingQualityValueError(OntoError):
    """A bearer in scope lacks a value for the deciding quality."""


class UnknownClassifierError(OntoError):
    """A correspondence pair names a classifier absent from its model."""
