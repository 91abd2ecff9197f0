from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ontounpack import (
    Model,
    Multiplicity,
    RelationStereotype,
    Stereotype,
    parse_text,
    render_dsl,
)

from conftest import FIXTURES, parse_ok


def test_parses_relator_fixture(relator_model):
    m = relator_model
    assert m.name == "HealthcareRelator"
    assert m.classifiers["Patient"].stereotype is Stereotype.ROLE
    assert m.classifiers["Patient"].parents == ("UnhealthyPerson",)
    assert m.relations["treatedBy"].stereotype is RelationStereotype.MATERIAL
    assert m.relations["treatedBy"].derived_from is not None
    assert m.relations["treatedBy"].derived_from.relator == "Treatment"
    assert m.relations["involvesPatient"].target_mult == Multiplicity(1, 1)
    assert m.spaces["Severity"].ordered == (0, 100)


def test_parses_comparative_via(relator_model):
    rel = relator_model.relations["moreSevereThan"]
    assert rel.stereotype is RelationStereotype.COMPARATIVE
    assert rel.via is not None
    assert rel.via.quality == "Severity"
    assert rel.via.direction.value == "desc"


def test_spans_point_at_names(plain_model):
    c = plain_model.classifiers["Person"]
    assert (c.span.line, c.span.column) == (4, 6)


def test_material_requires_multiplicities():
    errs = parse_text("model T\n\nkind A\nkind B\nmaterial r : A -- B\n")
    assert isinstance(errs, list)
    assert "multiplicit" in errs[0].message


def test_comparative_multiplicities_stay_unset(relator_model):
    rel = relator_model.relations["moreSevereThan"]
    assert rel.source_mult is None and rel.target_mult is None


def test_comparative_requires_via():
    errs = parse_text("model T\n\nmode M\ncomparative c : M -- M\n")
    assert isinstance(errs, list)
    assert "via" in errs[0].message


def test_genset_parsing():
    m = parse_ok(
        "model T\n\nkind Person\n"
        "phase Healthy specializes Person\n"
        "phase Sick specializes Person\n"
        "genset Health disjoint complete general Person specifics Healthy, Sick\n"
    )
    gs = m.gensets["Health"]
    assert gs.is_disjoint and gs.is_complete
    assert gs.general == "Person"
    assert gs.specifics == ("Healthy", "Sick")


def test_reserved_word_is_an_error():
    errs = parse_text("model T\n\nkind kind\n")
    assert isinstance(errs, list)
    assert any("reserved" in e.message for e in errs)


def test_unknown_keyword_reports_position():
    errs = parse_text("model T\n\nkind A\nwibble B\n")
    assert isinstance(errs, list)
    assert errs[0].span.line == 4


def test_duplicate_declaration_is_an_error():
    errs = parse_text("model T\n\nkind A\nkind A\n")
    assert isinstance(errs, list)
    assert any("A" in e.message for e in errs)


def test_multiple_errors_collected():
    errs = parse_text("model T\n\nkind kind\nwibble Y\n")
    assert isinstance(errs, list)
    assert len(errs) >= 2


def test_missing_model_header():
    errs = parse_text("kind A\n")
    assert isinstance(errs, list)


def test_bad_multiplicity_rejected():
    errs = parse_text("model T\n\nkind A\nkind B\nmaterial r : A [3..1] -- B\n")
    assert isinstance(errs, list)


@pytest.mark.parametrize("text", [
    "model T\n\nkind A\nkind B\nmaterial r : A [{n}..*] -- [1..1] B\n",
    "model T\n\nkind A\nkind B\nmaterial r : A [1..{n}] -- [1..1] B\n",
    "model T\n\nquality Q\nspace Q ordered 0..{n}\n",
], ids=["multiplicity_min", "multiplicity_max", "space_bound"])
def test_integer_too_long_to_convert_is_a_parse_error(text):
    # 5000 digits is past the interpreter's default str-to-int limit (4300)
    errs = parse_text(text.format(n="9" * 5000))
    assert isinstance(errs, list)
    assert [(e.span.line, e.message) for e in errs] == [
        (text.count("\n", 0, text.index("{n}")) + 1, "integer of 5000 digits is too long"),
    ]


# 1500 specialization levels, past the interpreter's default recursion limit
DEEP = "model Deep\n\nkind A0\n" + "".join(
    f"subkind A{i} specializes A{i - 1}\n" for i in range(1, 1500)
)


def test_deep_taxonomy_parses():
    m = parse_text(DEEP)
    assert isinstance(m, Model)
    assert m.ancestors("A1499") == {f"A{i}" for i in range(1499)}


def test_deep_specialization_cycle_is_found():
    errs = parse_text(DEEP.replace("kind A0\n", "subkind A0 specializes A1499\n"))
    assert isinstance(errs, list)
    assert [e.message for e in errs] == ["specialization cycle through 'A0'"]


def test_render_round_trip_all_fixtures():
    for name in ("healthcare_plain.onto", "healthcare_relator.onto", "healthcare_event.onto"):
        original = parse_text((FIXTURES / name).read_text())
        assert isinstance(original, Model)
        again = parse_text(render_dsl(original))
        assert again == original, name


def test_render_is_deterministic(relator_model):
    assert render_dsl(relator_model) == render_dsl(relator_model)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=400))
def test_parser_is_total(text):
    """Arbitrary input yields a Model or an error list, never an exception."""
    result = parse_text(text)
    assert isinstance(result, (Model, list))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.sampled_from([
            "kind A", "kind B", "subkind S specializes A", "phase P specializes A",
            "role R specializes A", "relator Rel", "mode M", "quality Q",
            "material m : A -- B", "mediation med : Rel [1..*] -- [1..1] A",
            "space Q ordered 0..5", "wibble X", "kind A extra",
        ]),
        max_size=8,
    )
)
def test_parser_total_on_keyword_soup(lines):
    result = parse_text("model Soup\n\n" + "\n".join(lines) + "\n")
    assert isinstance(result, (Model, list))
