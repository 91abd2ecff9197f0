"""Truthmaker-oriented analysis toolkit for OntoUML-style conceptual models.

Parse models (DSL or JSON), validate them against the well-formedness
catalog, unpack material/comparative relations into their truthmakers,
derive cardinalities, enumerate bounded instance worlds, lint for
anti-patterns with witness worlds, and classify cross-model correspondences.
"""
from __future__ import annotations

from .core import (
    Classifier,
    Derivation,
    Direction,
    GeneralizationSet,
    Model,
    Multiplicity,
    QualitySpace,
    RelationDecl,
    RelationStereotype,
    SourceSpan,
    Stereotype,
    ViaQuality,
    identity_root,
    rigidity,
    ultimate_kind,
    with_declarations,
)
from .dot import world_to_dot
from .errors import (
    AlreadyDerivedError,
    AmbiguousKindError,
    IllFormedModelError,
    MissingQualityValueError,
    NameClashError,
    NoKindError,
    NotBinaryRelatorError,
    NotMaterialError,
    OntoError,
    ScopeTooLargeError,
    UnknownClassifierError,
    UnorderedSpaceError,
    UnpackError,
)
from .interop import Correspondence, Verdict, classify_pair, compare
from .jsonio import emit_json, load_json
from .lint import lint
from .parser import ParseError, parse_file, parse_text, render_dsl
from .rules import Diagnostic, Severity, check, has_errors
from .unpack import (
    UnpackPlan,
    apply_plan,
    derive_material_cardinalities,
    unpack_comparative,
    unpack_material,
)
from .worlds import (
    DEFAULT_SCOPE,
    EMPTY_WORLD,
    Goal,
    InstanceWorld,
    MetaReport,
    Scope,
    check_metaproperties,
    enumerate_worlds,
    eval_comparative,
    find_witness,
    goal_holds,
    validate_world,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "Classifier", "Derivation", "Direction", "GeneralizationSet", "Model",
    "Multiplicity", "QualitySpace", "RelationDecl", "RelationStereotype",
    "SourceSpan", "Stereotype", "ViaQuality", "identity_root",
    "rigidity", "ultimate_kind", "with_declarations",
    # errors
    "OntoError", "NoKindError", "AmbiguousKindError", "UnpackError",
    "NotMaterialError", "AlreadyDerivedError", "NameClashError",
    "UnorderedSpaceError", "NotBinaryRelatorError", "IllFormedModelError",
    "ScopeTooLargeError", "MissingQualityValueError", "UnknownClassifierError",
    # parsing / serialization
    "ParseError", "parse_file", "parse_text", "render_dsl",
    "emit_json", "load_json",
    # rules
    "Diagnostic", "Severity", "check", "has_errors",
    # unpacking
    "UnpackPlan", "apply_plan", "derive_material_cardinalities",
    "unpack_comparative", "unpack_material",
    # worlds
    "DEFAULT_SCOPE", "EMPTY_WORLD", "Goal", "InstanceWorld", "MetaReport",
    "Scope", "check_metaproperties", "enumerate_worlds", "eval_comparative",
    "find_witness", "goal_holds", "validate_world",
    # lint / interop / dot
    "lint", "Correspondence", "Verdict", "classify_pair", "compare",
    "world_to_dot",
]
