"""Textual frontend: lexer, recursive-descent parser, and DSL renderer.

The lexer is one `finditer` pass of a single scanner regex whose last
alternative takes any character no token starts with, so an illegal
character becomes an error at its position and lexing goes on after it.

Parsing is total: `parse_text` always returns either a resolved Model or a
non-empty list of ParseErrors, never raises on malformed input. On a syntax
error inside a declaration the parser records the error and resynchronizes at
the next declaration keyword, so several errors are reported in one pass.

The syntax pass only collects raw declarations. `_resolve` then turns them
into a Model; it serves both front ends, since `jsonio.load_json` decodes
JSON into the same raw declarations, so DSL text and JSON obey one set of
declaration rules.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DEFAULT_SPAN,
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
)

CLASSIFIER_KEYWORDS = {s.value: s for s in Stereotype}
RELATION_KEYWORDS = {s.value: s for s in RelationStereotype}
DECL_KEYWORDS = set(CLASSIFIER_KEYWORDS) | set(RELATION_KEYWORDS) | {"genset", "space"}
KEYWORDS = DECL_KEYWORDS | {
    "model", "specializes", "ordered", "nominal",
    "general", "specifics", "disjoint", "complete",
    "derivedFrom", "via", "asc", "desc",
}


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        hint = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.span.line}:{self.span.column}: {self.message}{hint}"

    def to_dict(self) -> dict:
        return {
            "span": self.span.to_dict(),
            "message": self.message,
            "expected": list(self.expected),
        }


class _Token(NamedTuple):
    kind: str  # IDENT INT KEYWORD PUNCT EOF
    text: str
    line: int
    column: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.line, self.column, max(len(self.text), 1))


_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_SCANNER = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<nl>\n)
      | (?P<int>[0-9]+)
      | (?P<ident>""" + _IDENT + r""")
      | (?P<dotdot>\.\.)
      | (?P<dashdash>--)
      | (?P<punct>[:,\[\]{}*=])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _lex(text: str) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    for m in _SCANNER.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        pos = m.start()
        if kind == "nl":
            line += 1
            line_start = pos + 1
            continue
        lexeme = m.group()
        column = pos - line_start + 1
        if kind == "bad":
            errors.append(ParseError(SourceSpan(line, column, 1), f"illegal character {lexeme!r}"))
            continue
        if kind == "ident":
            tk = "KEYWORD" if lexeme in KEYWORDS else "IDENT"
        elif kind == "int":
            tk = "INT"
        else:
            tk = "PUNCT"
        tokens.append(_Token(tk, lexeme, line, column))
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens, errors


class _Unexpected(Exception):
    def __init__(self, error: ParseError):
        self.error = error


# Raw declarations collected by the syntax pass (or decoded from JSON);
# resolution happens afterwards so forward references work and structural
# errors come with proper spans.

@dataclass
class _RawClassifier:
    stereotype: Stereotype
    name: str
    parents: list[tuple[str, SourceSpan]]
    span: SourceSpan


@dataclass
class _RawRelation:
    stereotype: RelationStereotype
    name: str
    source: tuple[str, SourceSpan]
    target: tuple[str, SourceSpan]
    source_mult: Multiplicity | None
    target_mult: Multiplicity | None
    derived: tuple[str, SourceSpan, Multiplicity | None] | None
    via: tuple[str, SourceSpan, Direction] | None
    span: SourceSpan


@dataclass
class _RawGenset:
    name: str
    general: tuple[str, SourceSpan]
    specifics: list[tuple[str, SourceSpan]]
    disjoint: bool
    complete: bool
    span: SourceSpan


@dataclass
class _RawSpace:
    owner: str
    ordered: tuple[int, int] | None
    labels: tuple[str, ...] | None
    span: SourceSpan


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ParseError] = []
        self.model_name: str | None = None
        self.classifiers: list[_RawClassifier] = []
        self.relations: list[_RawRelation] = []
        self.gensets: list[_RawGenset] = []
        self.spaces: list[_RawSpace] = []

    # -- token helpers ---------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str, expected: tuple[str, ...] = ()):
        raise _Unexpected(ParseError(tok.span, message, expected))

    def unexpected(self, *expected: str):
        tok = self.peek()
        shown = "end of input" if tok.kind == "EOF" else f"'{tok.text}'"
        self.fail(tok, f"found {shown}", expected)

    def at(self, *texts: str) -> bool:
        """Is the next token one of these keywords or punctuation marks?

        No identifier, integer or EOF token spells one, so the text decides.
        """
        return self.peek().text in texts

    def expect(self, text: str) -> _Token:
        if not self.at(text):
            self.unexpected(f"'{text}'")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> _Token:
        tok = self.peek()
        if tok.kind == "IDENT":
            return self.advance()
        if tok.kind == "KEYWORD":
            self.fail(tok, f"'{tok.text}' is a reserved word", expected=(what,))
        self.unexpected(what)

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            self.unexpected("integer")
        self.advance()
        try:
            return int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            self.fail(tok, f"integer of {len(tok.text)} digits is too long")

    def names(self, what: str) -> list[_Token]:
        """One or more comma-separated identifiers."""
        toks = [self.expect_ident(what)]
        while self.at(","):
            self.advance()
            toks.append(self.expect_ident(what))
        return toks

    def sync(self):
        """Skip to the next declaration keyword (or EOF)."""
        while self.peek().kind != "EOF" and self.peek().text not in DECL_KEYWORDS:
            self.advance()

    # -- grammar ----------------------------------------------------------

    def parse(self):
        try:
            self.expect("model")
            self.model_name = self.expect_ident("model name").text
        except _Unexpected as exc:
            self.errors.append(exc.error)
            self.sync()
        while self.peek().kind != "EOF":
            text = self.peek().text
            try:
                if text in CLASSIFIER_KEYWORDS:
                    self.classifier_decl()
                elif text in RELATION_KEYWORDS:
                    self.relation_decl()
                elif text == "genset":
                    self.genset_decl()
                elif text == "space":
                    self.space_decl()
                else:
                    self.unexpected("declaration keyword")
            except _Unexpected as exc:
                self.errors.append(exc.error)
                self.sync()

    def classifier_decl(self):
        stereo = CLASSIFIER_KEYWORDS[self.advance().text]
        name_tok = self.expect_ident("classifier name")
        parents: list[tuple[str, SourceSpan]] = []
        if self.at("specializes"):
            self.advance()
            parents = [(p.text, p.span) for p in self.names("parent classifier name")]
        self.classifiers.append(_RawClassifier(stereo, name_tok.text, parents, name_tok.span))

    def card(self) -> Multiplicity:
        open_tok = self.expect("[")
        lo = self.expect_int()
        self.expect("..")
        if self.at("*"):
            self.advance()
            hi = None
        elif self.peek().kind == "INT":
            hi = self.expect_int()
        else:
            self.unexpected("integer", "'*'")
        self.expect("]")
        try:
            return Multiplicity(lo, hi)
        except ValueError as exc:
            self.fail(open_tok, str(exc))

    def relation_decl(self):
        stereo = RELATION_KEYWORDS[self.advance().text]
        name_tok = self.expect_ident("relation name")
        self.expect(":")
        src = self.expect_ident("source classifier")
        src_mult = self.card() if self.at("[") else None
        self.expect("--")
        tgt_mult = self.card() if self.at("[") else None
        tgt = self.expect_ident("target classifier")
        derived = None
        if self.at("derivedFrom"):
            self.advance()
            rel_tok = self.expect_ident("relator name")
            dmult = self.card() if self.at("[") else None
            derived = (rel_tok.text, rel_tok.span, dmult)
        via = None
        if self.at("via"):
            self.advance()
            q_tok = self.expect_ident("quality name")
            if not self.at("asc", "desc"):
                self.unexpected("'asc'", "'desc'")
            via = (q_tok.text, q_tok.span, Direction(self.advance().text))
        self.relations.append(_RawRelation(
            stereo, name_tok.text, (src.text, src.span), (tgt.text, tgt.span),
            src_mult, tgt_mult, derived, via, name_tok.span,
        ))

    def genset_decl(self):
        self.advance()
        name_tok = self.expect_ident("generalization set name")
        disjoint = complete = False
        while self.at("disjoint", "complete"):
            if self.advance().text == "disjoint":
                disjoint = True
            else:
                complete = True
        self.expect("general")
        gen = self.expect_ident("general classifier")
        self.expect("specifics")
        specifics = [(s.text, s.span) for s in self.names("specific classifier")]
        self.gensets.append(_RawGenset(
            name_tok.text, (gen.text, gen.span), specifics, disjoint, complete, name_tok.span,
        ))

    def space_decl(self):
        self.advance()
        owner = self.expect_ident("quality name")
        if self.at("ordered"):
            self.advance()
            lo = self.expect_int()
            self.expect("..")
            self.spaces.append(_RawSpace(owner.text, (lo, self.expect_int()), None, owner.span))
        elif self.at("nominal"):
            self.advance()
            self.expect("{")
            labels = tuple(lab.text for lab in self.names("label"))
            self.expect("}")
            self.spaces.append(_RawSpace(owner.text, None, labels, owner.span))
        else:
            self.unexpected("'ordered'", "'nominal'")


# the stereotypes a relation's source may have, and how messages name them
_SOURCE_STEREOTYPES = {
    RelationStereotype.MEDIATION: ({Stereotype.RELATOR}, "a relator"),
    RelationStereotype.CHARACTERIZATION: (
        {Stereotype.MODE, Stereotype.QUALITY}, "a mode or quality",
    ),
    RelationStereotype.PARTICIPATION: ({Stereotype.EVENT}, "an event"),
}


def _name_problem(name: str) -> str | None:
    """Why `name` cannot be written in DSL text, or None when it can."""
    if name in KEYWORDS:
        return f"'{name}' is a reserved word"
    if not re.fullmatch(_IDENT, name):
        return f"'{name}' is not an identifier"
    return None


def _resolve(
    model_name: str | None,
    raw_classifiers: list[_RawClassifier],
    raw_relations: list[_RawRelation],
    raw_gensets: list[_RawGenset],
    raw_spaces: list[_RawSpace],
    syntax_errors: tuple[ParseError, ...] | list[ParseError] = (),
) -> Model | list[ParseError]:
    """Second pass: name resolution plus the structural declaration invariants.

    Both front ends end here: the DSL parser and `jsonio.load_json` hand over
    raw declarations, so one rule set decides what a well-formed model is.
    JSON declarations carry no span, so every message names its declaration.
    A model name of None (the DSL header failed to parse) is not checked.
    """
    errors = list(syntax_errors)

    # JSON names must be spelled as DSL identifiers too, or render_dsl breaks
    named = [(model_name, DEFAULT_SPAN)] if model_name is not None else []
    named += [(d.name, d.span) for d in (*raw_classifiers, *raw_relations, *raw_gensets)]
    named += [(label, rs.span) for rs in raw_spaces for label in rs.labels or ()]
    for name, span in named:
        problem = _name_problem(name)
        if problem is not None:
            errors.append(ParseError(span, problem))

    names: set[str] = set()
    for rc in raw_classifiers:
        if rc.name in names:
            errors.append(ParseError(rc.span, f"duplicate classifier name '{rc.name}'"))
        names.add(rc.name)

    def known(ref: tuple[str, SourceSpan], owner: str) -> bool:
        name, span = ref
        if name not in names:
            errors.append(ParseError(span, f"unknown classifier '{name}' in '{owner}'"))
            return False
        return True

    classifiers: dict[str, Classifier] = {}
    for rc in raw_classifiers:
        if rc.name in classifiers:
            continue
        parents = tuple(pr[0] for pr in rc.parents if known(pr, rc.name))
        classifiers[rc.name] = Classifier(rc.name, rc.stereotype, parents, span=rc.span)

    # specialization cycles make every taxonomy query meaningless: reject here
    state: dict[str, int] = {}  # 1 while on the walk's path, 2 once finished

    def cyclic(start: str) -> bool:
        # an explicit path, not recursion: taxonomies may be deep
        state[start] = 1
        path = [(start, iter(classifiers[start].parents))]
        while path:
            name, parents = path[-1]
            for par in parents:
                if par in classifiers and state.get(par) != 2:
                    if state.get(par) == 1:
                        return True
                    state[par] = 1
                    path.append((par, iter(classifiers[par].parents)))
                    break
            else:
                state[name] = 2
                path.pop()
        return False

    for name in sorted(classifiers):
        if state.get(name) is None and cyclic(name):
            errors.append(ParseError(
                classifiers[name].span, f"specialization cycle through '{name}'",
            ))
            break

    def stereo(name: str) -> Stereotype | None:
        cls = classifiers.get(name)
        return cls.stereotype if cls else None

    relations: dict[str, RelationDecl] = {}
    for rr in raw_relations:
        if rr.name in relations:
            errors.append(ParseError(rr.span, f"duplicate relation name '{rr.name}'"))
            continue
        if rr.name in names:
            errors.append(ParseError(rr.span, f"relation '{rr.name}' collides with a classifier"))
            continue
        before = len(errors)
        known(rr.source, rr.name)
        known(rr.target, rr.name)
        problems: list[str] = []
        if rr.stereotype is RelationStereotype.COMPARATIVE:
            if rr.source_mult is not None or rr.target_mult is not None:
                problems.append(f"comparative '{rr.name}' carries no multiplicities")
            if rr.via is None:
                problems.append(
                    f"comparative '{rr.name}' needs a grounding ('via Quality asc|desc')"
                )
        else:
            if rr.source_mult is None or rr.target_mult is None:
                problems.append(f"relation '{rr.name}' needs multiplicities on both ends")
            if rr.via is not None:
                problems.append(
                    f"only comparative relations take a 'via' grounding, not '{rr.name}'"
                )
        if rr.derived is not None and rr.stereotype is not RelationStereotype.MATERIAL:
            problems.append(f"only material relations take 'derivedFrom', not '{rr.name}'")
        errors.extend(ParseError(rr.span, message) for message in problems)

        allowed = _SOURCE_STEREOTYPES.get(rr.stereotype)
        if allowed is not None and len(errors) == before and stereo(rr.source[0]) not in allowed[0]:
            errors.append(ParseError(rr.source[1], (
                f"{rr.stereotype.value} '{rr.name}' source '{rr.source[0]}' must be {allowed[1]}"
            )))

        derivation = None
        if rr.derived is not None and known(rr.derived[:2], rr.name):
            rel_name, rel_span, dmult = rr.derived
            if stereo(rel_name) is not Stereotype.RELATOR:
                errors.append(ParseError(rel_span, (
                    f"derivedFrom of '{rr.name}' must name a relator, '{rel_name}' is not one"
                )))
            else:
                derivation = Derivation(rel_name, dmult if dmult is not None else Multiplicity(1, None))

        via = None
        if rr.via is not None and known(rr.via[:2], rr.name):
            via = ViaQuality(rr.via[0], rr.via[2])

        if len(errors) == before:
            relations[rr.name] = RelationDecl(
                rr.name, rr.stereotype, rr.source[0], rr.target[0],
                rr.source_mult, rr.target_mult, derivation, via, rr.span,
            )

    gensets: dict[str, GeneralizationSet] = {}
    # ancestor checks below need the taxonomy of what resolved so far
    probe = Model(name=model_name, classifiers=classifiers)
    for rg in raw_gensets:
        if rg.name in gensets:
            errors.append(ParseError(rg.span, f"duplicate generalization set '{rg.name}'"))
            continue
        ok = known(rg.general, rg.name)
        specifics = [sp for sp in rg.specifics if known(sp, rg.name)]
        if len(rg.specifics) < 2:
            errors.append(ParseError(
                rg.span, f"generalization set '{rg.name}' needs at least two specifics",
            ))
            ok = False
        if ok:
            for sp_name, sp_span in specifics:
                if rg.general[0] not in probe.ancestors(sp_name):
                    errors.append(ParseError(
                        sp_span,
                        f"'{sp_name}' does not specialize '{rg.general[0]}' "
                        f"in generalization set '{rg.name}'",
                    ))
                    ok = False
        if ok and len(specifics) == len(rg.specifics):
            gensets[rg.name] = GeneralizationSet(
                rg.name, rg.general[0], tuple(s[0] for s in specifics),
                rg.disjoint, rg.complete, rg.span,
            )

    spaces: dict[str, QualitySpace] = {}
    for rs in raw_spaces:
        if rs.owner in spaces:
            message = f"duplicate space for quality '{rs.owner}'"
        elif rs.owner not in names:
            message = f"unknown quality '{rs.owner}'"
        elif stereo(rs.owner) is not Stereotype.QUALITY:
            message = f"space owner '{rs.owner}' must be a quality classifier"
        elif rs.ordered is not None and rs.ordered[0] > rs.ordered[1]:
            lo, hi = rs.ordered
            message = f"ordered space of '{rs.owner}': upper bound {hi} is below lower bound {lo}"
        elif rs.labels is not None and len(set(rs.labels)) != len(rs.labels):
            message = f"nominal labels of '{rs.owner}' must be distinct"
        else:
            spaces[rs.owner] = QualitySpace(rs.owner, rs.ordered, rs.labels, rs.span)
            continue
        errors.append(ParseError(rs.span, message))

    if errors:
        return sorted(errors, key=lambda e: (e.span.line, e.span.column, e.message))
    return Model(
        name=model_name,
        classifiers=classifiers,
        relations=relations,
        gensets=gensets,
        spaces=spaces,
    )


def parse_text(text: str) -> Model | list[ParseError]:
    """Parse DSL source into a Model, or report every error found."""
    tokens, lex_errors = _lex(text)
    parser = _Parser(tokens)
    parser.errors.extend(lex_errors)
    parser.parse()
    return _resolve(
        parser.model_name, parser.classifiers, parser.relations,
        parser.gensets, parser.spaces, parser.errors,
    )


def parse_file(path) -> Model | list[ParseError]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


# -- rendering ------------------------------------------------------------


def render_dsl(model: Model) -> str:
    """Model back to canonical DSL text (sorted declarations, LF endings)."""
    out: list[str] = [f"model {model.name}", ""]
    for cls in sorted(model.classifiers.values(), key=lambda c: c.name):
        line = f"{cls.stereotype.value} {cls.name}"
        if cls.parents:
            line += " specializes " + ", ".join(cls.parents)
        out.append(line)
    if model.spaces:
        out.append("")
        for sp in sorted(model.spaces.values(), key=lambda s: s.owner):
            if sp.ordered is not None:
                out.append(f"space {sp.owner} ordered {sp.ordered[0]}..{sp.ordered[1]}")
            else:
                out.append(f"space {sp.owner} nominal {{{', '.join(sp.labels or ())}}}")
    if model.gensets:
        out.append("")
        for gs in sorted(model.gensets.values(), key=lambda g: g.name):
            flags = ("disjoint " if gs.is_disjoint else "") + ("complete " if gs.is_complete else "")
            out.append(
                f"genset {gs.name} {flags}general {gs.general} "
                f"specifics {', '.join(gs.specifics)}"
            )
    if model.relations:
        out.append("")
        for rel in sorted(model.relations.values(), key=lambda r: r.name):
            if rel.stereotype is RelationStereotype.COMPARATIVE:
                line = f"comparative {rel.name} : {rel.source} -- {rel.target}"
            else:
                line = (
                    f"{rel.stereotype.value} {rel.name} : {rel.source} {rel.source_mult} "
                    f"-- {rel.target_mult} {rel.target}"
                )
            if rel.derived_from is not None:
                line += f" derivedFrom {rel.derived_from.relator} {rel.derived_from.mult}"
            if rel.via is not None:
                line += f" via {rel.via.quality} {rel.via.direction.value}"
            out.append(line)
    out.append("")
    return "\n".join(out)


__all__ = ["ParseError", "parse_text", "parse_file", "render_dsl"]
