from __future__ import annotations

import copy
import itertools
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ontounpack import Model, ParseError, emit_json, load_json, parse_text, render_dsl
from ontounpack.core import (
    Derivation,
    Direction,
    Multiplicity,
    RelationDecl,
    RelationStereotype,
    ViaQuality,
)
from ontounpack.jsonio import dumps_indented, iter_indented

from conftest import load_fixture, parse_ok


def fixture_round_trip(model):
    data = emit_json(model)
    back = load_json(data)
    assert isinstance(back, Model)
    assert back == model


def test_round_trip_plain(plain_model):
    fixture_round_trip(plain_model)


def test_round_trip_relator(relator_model):
    fixture_round_trip(relator_model)


def test_round_trip_event(event_model):
    fixture_round_trip(event_model)


def test_emit_is_byte_deterministic(relator_model):
    assert emit_json(relator_model) == emit_json(relator_model)


def test_emit_is_sorted_json(relator_model):
    doc = json.loads(emit_json(relator_model))
    assert list(doc) == sorted(doc)
    names = [c["name"] for c in doc["classifiers"]]
    assert names == sorted(names)


def test_empty_document_is_rejected():
    err = load_json(b"{}")
    assert isinstance(err, ParseError)


def test_malformed_json_is_rejected():
    err = load_json(b"{nope")
    assert isinstance(err, ParseError)


def test_unknown_stereotype_rejected(plain_model):
    doc = json.loads(emit_json(plain_model))
    doc["classifiers"][0]["stereotype"] = "widget"
    err = load_json(json.dumps(doc).encode())
    assert isinstance(err, ParseError)


def test_parent_cycle_rejected():
    m = parse_ok("model T\n\nkind A\nsubkind B specializes A\n")
    doc = json.loads(emit_json(m))
    for c in doc["classifiers"]:
        if c["name"] == "A":
            c["parents"] = ["B"]
    err = load_json(json.dumps(doc).encode())
    assert isinstance(err, ParseError)
    assert "cycle" in err.message.lower()


def test_dangling_parent_rejected(plain_model):
    doc = json.loads(emit_json(plain_model))
    doc["classifiers"][0]["parents"] = ["Ghost"]
    err = load_json(json.dumps(doc).encode())
    assert isinstance(err, ParseError)


def test_is_abstract_is_refused_at_its_path(plain_model):
    # no rule, world or output reads an abstract flag, and no DSL text spells it
    doc = json.loads(emit_json(plain_model))
    assert all("isAbstract" not in c for c in doc["classifiers"])
    doc["classifiers"][1]["isAbstract"] = False
    err = load_json(json.dumps(doc).encode())
    assert isinstance(err, ParseError)
    assert err.message.startswith("classifiers[1].isAbstract: unsupported field")


@pytest.mark.parametrize("key, bounds", [("lo", (-1, 100)), ("hi", (0, -1))])
def test_negative_space_bound_is_refused_at_its_path(relator_model, key, bounds):
    # the DSL spells no sign, so such a space would render to text that does not parse
    doc = json.loads(emit_json(relator_model))
    space = next(s for s in doc["qualitySpaces"] if s["owner"] == "Severity")
    space["lo"], space["hi"] = bounds
    err = load_json(json.dumps(doc).encode())
    assert isinstance(err, ParseError)
    bound = dict(zip(("lo", "hi"), bounds))[key]
    assert err.message == f"qualitySpaces[0].{key}: space bound must be >= 0, got {bound}"


def test_zero_space_bound_renders_and_parses_again(relator_model):
    doc = json.loads(emit_json(relator_model))
    doc["qualitySpaces"][0]["lo"] = 0
    doc["qualitySpaces"][0]["hi"] = 0
    model = load_json(json.dumps(doc).encode())
    assert isinstance(model, Model)
    assert parse_text(render_dsl(model)) == model


def test_deep_taxonomy_loads():
    # 1500 specialization levels, past the interpreter's default recursion limit
    doc = {"name": "Deep", "classifiers": [{"name": "A0", "stereotype": "kind"}] + [
        {"name": f"A{i}", "stereotype": "subkind", "parents": [f"A{i - 1}"]}
        for i in range(1, 1500)
    ]}
    m = load_json(json.dumps(doc).encode())
    assert isinstance(m, Model)
    assert m.ancestors("A1499") == {f"A{i}" for i in range(1499)}


def test_round_trip_keeps_genset_specifics_order():
    fixture_round_trip(parse_ok(
        "model T\n\nkind A\nsubkind B specializes A\nsubkind C specializes A\n"
        "genset G general A specifics C, B\n"
    ))


@pytest.mark.parametrize("data", [
    b"[" * 100000,
    b'{"name": ' + b"9" * 5000 + b"}",
], ids=["nested_too_deep", "integer_too_long"])
def test_undecodable_json_is_a_parse_error(data):
    err = load_json(data)
    assert isinstance(err, ParseError)
    assert err.message.startswith("invalid JSON: ")


# --- both front ends enforce one set of declaration rules ----------------------

MANY = {"min": 1, "max": "*"}
ONE = {"min": 1, "max": 1}


def cls(name, stereotype="kind", *parents):
    return {"name": name, "stereotype": stereotype, "parents": list(parents)}


def rel(name, stereotype, source, target, mults=(MANY, ONE), derived=None, via=None):
    return {
        "name": name, "stereotype": stereotype, "source": source, "target": target,
        "sourceMult": mults[0] if mults else None,
        "targetMult": mults[1] if mults else None,
        "derivedFrom": None if derived is None else {"relator": derived, "mult": MANY},
        "viaQuality": None if via is None else {"quality": via, "direction": "desc"},
    }


def genset(name, general, *specifics):
    return {"name": name, "general": general, "specifics": list(specifics)}


def ordered(owner, lo, hi):
    return {"owner": owner, "kind": "ordered", "lo": lo, "hi": hi}


def nominal(owner, *labels):
    return {"owner": owner, "kind": "nominal", "labels": list(labels)}


def json_doc(*classifiers, relations=(), gensets=(), spaces=()):
    return {
        "name": "T", "classifiers": list(classifiers), "relations": list(relations),
        "generalizationSets": list(gensets), "qualitySpaces": list(spaces),
    }


# kind A with subkinds S and U, as DSL text and as JSON classifiers
SUB_AB = ("kind A\nsubkind S specializes A\nsubkind U specializes A\n",
          [cls("A"), cls("S", "subkind", "A"), cls("U", "subkind", "A")])

# (id, DSL declarations, equivalent JSON document, message fragment, declaration)
DECLARATION_RULES = [
    ("duplicate_classifier", "kind A\nkind A\n", json_doc(cls("A"), cls("A")),
     "duplicate classifier name 'A'", "A"),
    ("duplicate_relation",
     "kind A\nkind B\nmaterial r : A [1..*] -- [1..1] B\nmaterial r : A [1..*] -- [1..1] B\n",
     json_doc(cls("A"), cls("B"), relations=[rel("r", "material", "A", "B")] * 2),
     "duplicate relation name 'r'", "r"),
    ("relation_named_like_classifier", "kind A\nkind B\nmaterial A : A [1..*] -- [1..1] B\n",
     json_doc(cls("A"), cls("B"), relations=[rel("A", "material", "A", "B")]),
     "relation 'A' collides with a classifier", "A"),
    ("unknown_parent", "kind A\nsubkind S specializes Ghost\n",
     json_doc(cls("A"), cls("S", "subkind", "Ghost")),
     "unknown classifier 'Ghost'", "S"),
    ("unknown_end", "kind A\nmaterial r : A [1..*] -- [1..1] Ghost\n",
     json_doc(cls("A"), relations=[rel("r", "material", "A", "Ghost")]),
     "unknown classifier 'Ghost'", "r"),
    ("cycle", "subkind A specializes B\nsubkind B specializes A\n",
     json_doc(cls("A", "subkind", "B"), cls("B", "subkind", "A")),
     "specialization cycle through 'A'", "A"),
    ("comparative_with_multiplicities",
     "mode M\nquality Q\ncomparative c : M [1..1] -- [1..1] M via Q desc\n",
     json_doc(cls("M", "mode"), cls("Q", "quality"),
         relations=[rel("c", "comparative", "M", "M", (ONE, ONE), via="Q")]),
     "no multiplicities", "c"),
    ("comparative_without_via", "mode M\ncomparative c : M -- M\n",
     json_doc(cls("M", "mode"), relations=[rel("c", "comparative", "M", "M", None)]),
     "grounding", "c"),
    ("relation_without_multiplicities", "kind A\nkind B\nmaterial r : A -- B\n",
     json_doc(cls("A"), cls("B"), relations=[rel("r", "material", "A", "B", None)]),
     "needs multiplicities on both ends", "r"),
    ("via_on_non_comparative",
     "kind A\nkind B\nquality Q\nmaterial r : A [1..*] -- [1..1] B via Q desc\n",
     json_doc(cls("A"), cls("B"), cls("Q", "quality"),
         relations=[rel("r", "material", "A", "B", via="Q")]),
     "only comparative relations take", "r"),
    ("derived_from_on_non_material",
     "relator R\nkind A\nmediation m : R [1..*] -- [1..1] A derivedFrom R [1..*]\n",
     json_doc(cls("R", "relator"), cls("A"),
              relations=[rel("m", "mediation", "R", "A", derived="R")]),
     "only material relations take", "m"),
    ("derived_from_non_relator",
     "kind A\nkind B\nmaterial r : A [1..*] -- [1..1] B derivedFrom A [1..*]\n",
     json_doc(cls("A"), cls("B"), relations=[rel("r", "material", "A", "B", derived="A")]),
     "must name a relator", "r"),
    ("mediation_source", "kind A\nkind B\nmediation m : A [1..*] -- [1..1] B\n",
     json_doc(cls("A"), cls("B"), relations=[rel("m", "mediation", "A", "B")]),
     "source 'A' must be a relator", "m"),
    ("characterization_source", "kind A\nkind B\ncharacterization ch : A [1..1] -- [1..1] B\n",
     json_doc(cls("A"), cls("B"),
              relations=[rel("ch", "characterization", "A", "B", (ONE, ONE))]),
     "source 'A' must be a mode or quality", "ch"),
    ("participation_source", "kind A\nkind B\nparticipation p : A [1..*] -- [1..1] B\n",
     json_doc(cls("A"), cls("B"), relations=[rel("p", "participation", "A", "B")]),
     "source 'A' must be an event", "p"),
    ("genset_with_one_specific", SUB_AB[0] + "genset G general A specifics S\n",
     json_doc(*SUB_AB[1], gensets=[genset("G", "A", "S")]),
     "needs at least two specifics", "G"),
    ("genset_specific_not_below_general",
     SUB_AB[0] + "kind B\ngenset G general A specifics S, B\n",
     json_doc(*SUB_AB[1], cls("B"), gensets=[genset("G", "A", "S", "B")]),
     "'B' does not specialize 'A'", "G"),
    ("duplicate_genset",
     SUB_AB[0] + "genset G general A specifics S, U\ngenset G general A specifics U, S\n",
     json_doc(*SUB_AB[1], gensets=[genset("G", "A", "S", "U"), genset("G", "A", "U", "S")]),
     "duplicate generalization set 'G'", "G"),
    ("space_owner_not_a_quality", "kind A\nspace A ordered 0..5\n",
     json_doc(cls("A"), spaces=[ordered("A", 0, 5)]),
     "space owner 'A' must be a quality classifier", "A"),
    ("duplicate_space", "quality Q\nspace Q ordered 0..5\nspace Q nominal {x, y}\n",
     json_doc(cls("Q", "quality"), spaces=[ordered("Q", 0, 5), nominal("Q", "x", "y")]),
     "duplicate space for quality 'Q'", "Q"),
    ("space_bounds_reversed", "quality Q\nspace Q ordered 5..1\n",
     json_doc(cls("Q", "quality"), spaces=[ordered("Q", 5, 1)]),
     "upper bound 1 is below lower bound 5", "Q"),
    ("space_labels_repeated", "quality Q\nspace Q nominal {x, x}\n",
     json_doc(cls("Q", "quality"), spaces=[nominal("Q", "x", "x")]),
     "must be distinct", "Q"),
    ("classifier_named_by_keyword", "kind kind\n", json_doc(cls("kind")),
     "'kind' is a reserved word", "kind"),
    ("relation_named_by_keyword", "kind A\nkind B\nmaterial via : A [1..*] -- [1..1] B\n",
     json_doc(cls("A"), cls("B"), relations=[rel("via", "material", "A", "B")]),
     "'via' is a reserved word", "via"),
    ("genset_named_by_keyword", SUB_AB[0] + "genset space general A specifics S, U\n",
     json_doc(*SUB_AB[1], gensets=[genset("space", "A", "S", "U")]),
     "'space' is a reserved word", "space"),
    ("label_named_by_keyword", "quality Q\nspace Q nominal {low, general}\n",
     json_doc(cls("Q", "quality"), spaces=[nominal("Q", "low", "general")]),
     "'general' is a reserved word", "general"),
]
RULE_IDS = [case[0] for case in DECLARATION_RULES]


def reject_both(dsl: str, document: dict) -> tuple[list[str], str]:
    errs = parse_text("model T\n\n" + dsl)
    assert isinstance(errs, list), "DSL text was accepted"
    err = load_json(json.dumps(document).encode())
    assert isinstance(err, ParseError), "JSON document was accepted"
    return [e.message for e in errs], err.message


@pytest.mark.parametrize("rule, dsl, document, fragment, decl", DECLARATION_RULES, ids=RULE_IDS)
def test_front_ends_enforce_the_same_declaration_rules(rule, dsl, document, fragment, decl):
    dsl_messages, json_message = reject_both(dsl, document)
    assert any(fragment in m for m in dsl_messages), dsl_messages
    assert fragment in json_message


@pytest.mark.parametrize("rule, dsl, document, fragment, decl", DECLARATION_RULES, ids=RULE_IDS)
def test_declaration_errors_name_their_declaration(rule, dsl, document, fragment, decl):
    # JSON declarations have no span, so the message alone must locate them
    dsl_messages, json_message = reject_both(dsl, document)
    assert json_message in dsl_messages
    assert f"'{decl}'" in json_message


# --- the DSL, JSON and RelationDecl accept the same relation shapes -------------

# a source each stereotype accepts, so only the relation's shape can be refused
SHAPE_SOURCES = {
    RelationStereotype.MEDIATION: "R",
    RelationStereotype.CHARACTERIZATION: "Q",
    RelationStereotype.PARTICIPATION: "E",
}
SHAPE_CLASSIFIERS = (("relator", "R"), ("kind", "A"), ("quality", "Q"), ("event", "E"))
SHAPES = list(itertools.product(
    RelationStereotype, ["none", "source", "target", "both"], [False, True], [False, True],
))


@pytest.mark.parametrize("stereotype, mults, via, derived", SHAPES, ids=[
    f"{s.value}-{m}{'-via' * v}{'-derived' * d}" for s, m, v, d in SHAPES
])
def test_three_doors_accept_the_same_relation_shapes(stereotype, mults, via, derived):
    source = SHAPE_SOURCES.get(stereotype, "A")
    smult = Multiplicity(1) if mults in ("source", "both") else None
    tmult = Multiplicity(1, 1) if mults in ("target", "both") else None
    try:
        built = RelationDecl(
            "r", stereotype, source, "A", smult, tmult,
            Derivation("R") if derived else None,
            ViaQuality("Q", Direction.DESC) if via else None,
        )
        problems = set()
    except ValueError as exc:
        built, problems = None, set(str(exc).split("; "))

    dsl = "".join(f"{s} {n}\n" for s, n in SHAPE_CLASSIFIERS) + (
        f"{stereotype.value} r : {source} {smult or ''} -- {tmult or ''} A"
        + " derivedFrom R [1..*]" * derived + " via Q desc" * via + "\n"
    )
    parsed = parse_text("model T\n\n" + dsl)
    document = json_doc(
        *(cls(n, s) for s, n in SHAPE_CLASSIFIERS),
        relations=[rel("r", stereotype.value, source, "A", (
            smult and smult.to_dict(), tmult and tmult.to_dict(),
        ), derived="R" if derived else None, via="Q" if via else None)],
    )
    loaded = load_json(json.dumps(document).encode())

    if built is None:
        assert isinstance(parsed, list) and isinstance(loaded, ParseError)
        assert {e.message for e in parsed} == problems
        assert loaded.message in problems
    else:
        assert isinstance(parsed, Model), parsed
        assert parsed.relations["r"] == built
        assert loaded == parsed


@pytest.mark.parametrize("document, message", [
    ({"name": "my model"}, "'my model' is not an identifier"),
    ({"name": "model"}, "'model' is a reserved word"),
    (json_doc(cls("my class")), "'my class' is not an identifier"),
    (json_doc(cls("")), "'' is not an identifier"),
    (json_doc(cls("9A")), "'9A' is not an identifier"),
    (json_doc(cls("A"), cls("B"), relations=[rel("treated-by", "material", "A", "B")]),
     "'treated-by' is not an identifier"),
    (json_doc(*SUB_AB[1], gensets=[genset("G 1", "A", "S", "U")]), "'G 1' is not an identifier"),
    (json_doc(cls("Q", "quality"), spaces=[nominal("Q", "low", "very high")]),
     "'very high' is not an identifier"),
], ids=["model", "model_keyword", "classifier", "empty", "digit_first", "relation", "genset",
        "label"])
def test_json_names_must_be_dsl_identifiers(document, message):
    # no DSL text spells these, so render_dsl of such a model would not re-parse
    err = load_json(json.dumps(document).encode())
    assert isinstance(err, ParseError)
    assert err.message == message


# --- load_json is total ----------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
FIXTURE_DOCS = [
    json.loads(emit_json(load_fixture(name)))
    for name in ("healthcare_plain.onto", "healthcare_relator.onto", "healthcare_event.onto")
]
FIXTURE_STRINGS = sorted({
    s for d in FIXTURE_DOCS for s in re.findall(r'"([^"\\]*)"', json.dumps(d))
})


def assert_model_or_error(data: bytes):
    result = load_json(data)
    assert isinstance(result, (Model, ParseError))
    if isinstance(result, Model):
        assert load_json(emit_json(result)) == result
        assert parse_text(render_dsl(result)) == result


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_load_json_is_total_on_bytes(data):
    assert_model_or_error(data)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_load_json_is_total_on_json_values(value):
    assert_model_or_error(json.dumps(value).encode())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_json_is_total_on_mutated_fixtures(data):
    """Each step replaces or deletes one node, often with a name from the fixtures."""
    document = copy.deepcopy(data.draw(st.sampled_from(FIXTURE_DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        node = document
        while True:
            key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                            else range(len(node))))
            child = node[key]
            if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
                node = child
                continue
            if isinstance(node, dict) and data.draw(st.integers(0, 4)) == 0:
                del node[key]
            else:
                node[key] = data.draw(st.sampled_from(FIXTURE_STRINGS) | JSON_VALUES)
            break
    assert_model_or_error(json.dumps(document).encode())


# --- iter_indented, joined, is json.dumps(..., sort_keys=True, indent=2) ---------

WRITER_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text(max_size=8) | st.sampled_from(["é", "\n\"\\", "\x00\x1f", "\ud800", "🩺"]),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(WRITER_VALUES)
@example([]).via("empty list")
@example({}).via("empty object")
@example(()).via("empty tuple")
@example([[], {}, ()]).via("nested empty containers")
@example({"a": [], "b": {}, "c": [[{}]]}).via("empty containers in an object")
# the writer keeps each all-str tuple's text per line start; the strategy
# rarely draws two equal tuples, so these repeat them on purpose
@example([("a", "b"), [("a", "b")]]).via("one tuple of strs at two depths")
@example([(1,), (True,), (1.0,)]).via("equal rows of int, bool and float")
@example([("1",), (1,)]).via("a row of str beside a row of int")
@example((["a"], ["a"])).via("an unhashable tuple given twice")
def test_dumps_indented_is_json_dumps_sorted_and_indented(value):
    expected = json.dumps(value, sort_keys=True, indent=2)
    assert dumps_indented(value) == expected
    pieces = list(iter_indented(value))
    assert "".join(pieces) == expected
    if isinstance(value, (list, tuple)):
        # one piece per top-level item, then the closing bracket
        assert len(pieces) == len(value) + 1
        # an iterator is written as the list of its items, each built when due
        assert "".join(iter_indented(item for item in value)) == expected


def test_dumps_indented_refuses_what_json_cannot_write():
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        dumps_indented([{"a": {1}}])


# in render_dsl's canonical form: a nominal space and two gensets, one with
# each flag combination render_dsl spells
GENSETS_AND_NOMINAL = (
    "model Palette\n\n"
    "phase Adult specializes Person\n"
    "phase Child specializes Person\n"
    "role Host specializes Person\n"
    "mode Mood\n"
    "kind Person\n"
    "quality Tone\n"
    "role Visitor specializes Person\n\n"
    "space Tone nominal {calm, tense}\n\n"
    "genset Age disjoint complete general Person specifics Child, Adult\n"
    "genset Guests general Person specifics Visitor, Host\n\n"
    "characterization feels : Mood [0..*] -- [1..1] Person\n"
    "characterization hasTone : Tone [1..1] -- [1..1] Mood\n"
)


def test_gensets_and_nominal_spaces_round_trip_byte_for_byte():
    model = parse_ok(GENSETS_AND_NOMINAL)
    assert render_dsl(model) == GENSETS_AND_NOMINAL
    data = emit_json(model)
    doc = json.loads(data)
    assert doc["qualitySpaces"] == [
        {"owner": "Tone", "kind": "nominal", "labels": ["calm", "tense"]}
    ]
    back = load_json(data)
    assert back == model
    assert emit_json(back) == data
    assert render_dsl(back) == GENSETS_AND_NOMINAL
