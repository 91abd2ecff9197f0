from __future__ import annotations

import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ontounpack.parser
from ontounpack import (
    Model,
    Multiplicity,
    ParseError,
    RelationStereotype,
    SourceSpan,
    Stereotype,
    parse_text,
    render_dsl,
)
from ontounpack.parser import KEYWORDS, _lex

from conftest import FIXTURES, copies_text, parse_ok

BENCH_MODELS = FIXTURES.parent / "perfbench" / "models"


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


def test_genset_refuses_a_repeated_specific():
    # a disjoint set counts a repeated specific twice, so no Adult could exist
    errs = parse_text(
        "model T\n\nkind Person\n"
        "phase Adult specializes Person\n"
        "phase Child specializes Person\n"
        "genset G disjoint general Person specifics Adult, Adult, Child\n"
    )
    assert isinstance(errs, list)
    assert [(e.span.line, e.message) for e in errs] == [
        (6, "specifics of generalization set 'G' must be distinct"),
    ]


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


@pytest.mark.parametrize("text, errors", [
    ("model T\n\nkind A\nkind B\nmaterial r : A [1 1] -- [1..1] B\n",
     ["5:19: found '1' (expected '..')"]),
    ("model T\n\nkind A\nkind B\nmaterial r : A [1..1] - [1..1] B\n",
     ["5:23: illegal character '-'", "5:25: found '[' (expected '--')"]),
    ("model T\n\nkind A\nkind B\nmaterial r : A [1..?] -- [1..1] B\n",
     ["5:20: illegal character '?'", "5:21: found ']' (expected integer, '*')"]),
    ("model T\n\nquality Q\nspace Q ordered 0 9\n", ["4:19: found '9' (expected '..')"]),
    ("model T\n\nquality Q\nspace Q between 0..5\n",
     ["4:9: found 'between' (expected 'ordered', 'nominal')"]),
    ("model T\n\nkind A\nkind B\nmaterial r : A [0..0] -- [1..1] B\n",
     ["5:16: multiplicity max must be >= 1, got 0"]),
    ("model T\n\nmode M\nquality Q\nspace Q ordered 0..9\n"
     "characterization h : Q [1..1] -- [1..1] M\ncomparative c : M -- M via Q up\n",
     ["7:30: found 'up' (expected 'asc', 'desc')"]),
], ids=["card_dotdot", "dashdash", "card_max", "space_dotdot", "space_kind", "card_max_zero",
        "direction"])
def test_punctuation_and_direction_errors(text, errors):
    assert [str(e) for e in parse_text(text)] == errors


@pytest.mark.parametrize("text, digit", [
    ("model M\n\nquality Q\nspace Q ordered \u0663..\u0665\n", "\u0663"),
    ("model T\n\nkind A\nkind B\nmaterial r : A [\u0661..*] -- [1..1] B\n", "\u0661"),
], ids=["space_bound", "multiplicity"])
def test_only_ascii_digits_are_integers(text, digit):
    # render_dsl writes ASCII digits only, so no other spelling parses
    errs = parse_text(text)
    assert isinstance(errs, list)
    assert f"illegal character {digit!r}" in [e.message for e in errs]


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


def test_cycle_error_names_a_classifier_on_the_cycle():
    # A only leads into the X-Y cycle, though the search starts from it
    errs = parse_text(
        "model T\n\nkind A specializes X\nkind X specializes Y\nkind Y specializes X\n"
    )
    assert isinstance(errs, list)
    assert [(e.span.line, e.message) for e in errs] == [
        (4, "specialization cycle through 'X'"),
    ]


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


# --- the one-pass lexer against the match-per-position loop it replaced ------

@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(len(self.text), 1))


_REF_SCANNER = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<int>[0-9]+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<dotdot>\.\.)
      | (?P<dashdash>--)
      | (?P<punct>[:,\[\]{}*=])
    """,
    re.VERBOSE,
)


def reference_lex(text: str) -> tuple[list[_RefToken], list[ParseError]]:
    """Tokens and errors of `text`, one `match` per position, columns summed per lexeme."""
    tokens: list[_RefToken] = []
    errors: list[ParseError] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REF_SCANNER.match(text, pos)
        if m is None:
            ch = text[pos]
            errors.append(ParseError(SourceSpan(line, col, 1), f"illegal character {ch!r}"))
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            if kind == "ident":
                tk = "KEYWORD" if lexeme in KEYWORDS else "IDENT"
            elif kind == "int":
                tk = "INT"
            else:
                tk = "PUNCT"
            tokens.append(_RefToken(tk, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(_RefToken("EOF", "", line, col))
    return tokens, errors


_LEX_FRAGMENTS = [
    " ", "\t", "\r", "\n", "\r\n", "# note", "#", "..", "--", "-", ".", "é", "٣", "\x00",
    "model", "kind", "via", "A", "x_1", "Zé", "0", "42", "007", ":", ",", "[", "]", "{", "}",
    "*", "=", "?", "\\", "'", '"',
]


def _lex_inputs() -> list[str]:
    texts = [path.read_text() for path in sorted(FIXTURES.glob("*.onto"))]
    texts += [path.read_text() for path in sorted(BENCH_MODELS.glob("*.onto"))]
    texts += [copies_text(40), ""]
    rng = random.Random(1207)
    texts += [
        "".join(rng.choices(_LEX_FRAGMENTS, k=rng.randint(1, 12))) for _ in range(3000)
    ]
    return texts


def test_lexer_matches_reference_lexer(monkeypatch):
    def rows(tokens):
        return [(t.kind, t.text, t.line, t.column, t.span) for t in tokens]

    inputs = _lex_inputs()
    assert len(inputs) > 3000
    for text in inputs:
        tokens, errors = _lex(text)
        ref_tokens, ref_errors = reference_lex(text)
        assert rows(tokens) == rows(ref_tokens), repr(text)
        assert [str(e) for e in errors] == [str(e) for e in ref_errors], repr(text)
        assert errors == ref_errors, repr(text)

    parsed = [parse_text(text) for text in inputs]
    monkeypatch.setattr(ontounpack.parser, "_lex", reference_lex)
    for text, result in zip(inputs, parsed):
        expected = parse_text(text)
        assert result == expected, repr(text)
        if isinstance(result, list):
            assert [str(e) for e in result] == [str(e) for e in expected], repr(text)
