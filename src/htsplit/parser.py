"""Parser and printer for the ``.htsplit`` problem format.

A problem file declares a many-sorted signature with finite domains and then
lists rules, first-order sentences, and named objects:

    % line comment
    sort block.  sort loc.
    int range 0..4.
    domain block = {b}.  domain loc = {l1, l2}.
    pred on(block, loc, int).

    on(B,L,T+1) :- on(B,L,T), not non(B,L,T+1), T < 2.   % ASP-style rule
    forall X (head(r1,X) <-> X = a).                     % FO sentence

    #intensional on(B,L,T) : T != 0.
    #part beta1 { on(B,L,T) : T != 0 & T <= 2 ; non(B,L,T) : T <= 2 }.
    #group lt { ... rules ... }.
    #context psi3 { ... sentences ... }.
    #formula f1 : q | (r & p).

Variables are upper-case identifiers, constants lower-case; ``not`` binds to
the following atomic formula; ``not not`` is allowed in rule bodies.  Variable
sorts are inferred from predicate and arithmetic positions: a variable gets
the least sort among those its positions and its equality ties ask for, and
a variable whose sort cannot be pinned down is rejected.  Rule heads list
predicate atoms.  Parenthesised arithmetic terms are not needed: ``X+1 = 2``
already parses with the comparison binding loosest.

Parsing is all-or-nothing: any problem raises :class:`ParseError` with a
``line:column`` location and no partial file is ever returned.  Tokens carry
only their offset in the text; the line and column are computed from it when
an error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Sequence

from .intensionality import IntensionalityStatement
from .syntax import (
    And,
    Atom,
    BOT,
    Bottom,
    COMPARISON_PREDICATES,
    DomainName,
    Equality,
    Exists,
    Forall,
    Formula,
    Func,
    INT_SORT,
    Implies,
    Literal,
    Or,
    PredKey,
    Rule,
    Signature,
    Statement,
    TOP,
    Term,
    Variable,
    format_formula,
    format_rule,
    forall_over,
    free_variables,
    iff,
    neg,
)

RESERVED = {"sort", "pred", "domain", "int", "range", "not", "forall", "exists"}


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


def _error(text: str, offset: int, message: str) -> ParseError:
    """The error at ``offset`` of ``text``, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - text.rfind("\n", 0, offset))


# ---------------------------------------------------------------------------
# lexer


class Token(NamedTuple):
    kind: str
    value: str
    offset: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<directive>\#[a-z]+)
  | (?P<int>[0-9]+)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_$][A-Za-z0-9_]*)
  | (?P<sym>:-|\.\.|<->|->|<=|>=|!=|[.,;:(){}|&<>=+\-*])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """The tokens of ``text``, comments and white space dropped, ending with
    an ``eof`` token at ``len(text)``.  Each token keeps its kind, its text
    and its offset; a character no token starts with raises
    :class:`ParseError`."""
    tokens = []
    # every character starts a match, the last alternative catching the rest
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        value = m.group()
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {value!r}")
        if kind == "ident" and value in RESERVED:
            kind = "keyword"
        tokens.append(Token(kind, value, m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# problem files


@dataclass
class ProblemFile:
    """A fully resolved problem: signature, finite domains, and the named
    theories, statements, partitions, contexts, and formulas of the file."""

    signature: Signature
    sort_order: tuple[str, ...] = ()
    subsort_decls: tuple[tuple[str, str], ...] = ()
    int_range: Optional[tuple[int, int]] = None
    constants: tuple[tuple[str, str], ...] = ()  # (name, sort), declaration order
    base: tuple[Statement, ...] = ()
    groups: tuple[tuple[str, tuple[Statement, ...]], ...] = ()
    default_lambda: IntensionalityStatement = None  # type: ignore[assignment]
    parts: tuple[tuple[str, IntensionalityStatement], ...] = ()
    contexts: tuple[tuple[str, tuple[Statement, ...]], ...] = ()
    formulas: tuple[tuple[str, Formula], ...] = ()

    def domains(self) -> dict[str, Sequence]:
        """Each sort's elements in order; the integers as a ``range``, so
        their count is known before any element is listed."""
        out: dict[str, list] = {s: [] for s in self.sort_order}
        for name, sort in self.constants:
            out[sort].append(name)
        # subsort containment: a supersort's domain includes its subsorts'
        for s in self.sort_order:
            for t in self.sort_order:
                if s != t and self.signature.is_subsort(s, t):
                    out[t].extend(c for c in out[s] if c not in out[t])
        result: dict[str, Sequence] = {s: tuple(es) for s, es in out.items()}
        if self.int_range is not None:
            lo, hi = self.int_range
            result[INT_SORT] = range(lo, hi + 1)
        return result

    def theory(self) -> list[Statement]:
        out = list(self.base)
        for _name, statements in self.groups:
            out.extend(statements)
        return out

    def group(self, name: str) -> list[Statement]:
        return list(_named(self.groups, name, "group"))

    def part(self, name: str) -> IntensionalityStatement:
        return _named(self.parts, name, "intensionality statement")

    def context(self, name: str) -> list[Statement]:
        return list(_named(self.contexts, name, "context"))

    def formula(self, name: str) -> Formula:
        return _named(self.formulas, name, "formula")


def _named(entries: Sequence[tuple[str, Any]], name: str, what: str) -> Any:
    for n, value in entries:
        if n == name:
            return value
    raise KeyError(f"no {what} named {name!r}")


# ---------------------------------------------------------------------------
# parser proper


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        # sort-resolution errors point at the first token of the statement
        self._statement_token = self.tokens[0]
        self.sorts: list[str] = []
        self.subsorts: list[tuple[str, str]] = []
        self.has_int = False
        self.int_range: Optional[tuple[int, int]] = None
        self.constants: dict[str, str] = {}
        self.constant_order: list[tuple[str, str]] = []
        self.predicates: dict[PredKey, tuple[str, ...]] = {}
        self.base: list[Statement] = []
        self.groups: list[tuple[str, tuple[Statement, ...]]] = []
        self.intensional_entries: dict[PredKey, tuple[tuple[Variable, ...], Formula]] = {}
        self.parts: list[tuple[str, IntensionalityStatement]] = []
        self.contexts: list[tuple[str, tuple[Statement, ...]]] = []
        self.formulas: list[tuple[str, Formula]] = []

    # token helpers ---------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {tok.value or 'end of input'!r}", tok)
        return self.next()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        """The error at ``tok``, by default the next token."""
        return _error(self.text, (tok or self.peek()).offset, message)

    # signature helpers -----------------------------------------------------

    def signature(self) -> Signature:
        return Signature.make(self.sorts, self.subsorts, self.predicates, self.has_int)

    def declare_sort(self, name: str, tok: Token) -> None:
        if name in self.sorts or (name == INT_SORT and self.has_int):
            raise self.error(f"duplicate sort {name}", tok)
        self.sorts.append(name)

    def check_sort(self, name: str, tok: Token) -> None:
        if name == INT_SORT and self.has_int:
            return
        if name not in self.sorts:
            raise self.error(f"undeclared sort {name}", tok)

    def sort_name(self) -> Token:
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == "int":
            return self.next()
        return self.expect("ident")

    # top level -------------------------------------------------------------

    def parse(self) -> ProblemFile:
        while self.peek().kind != "eof":
            self.statement()
        sig = self.signature()
        default = IntensionalityStatement.make(sig, self.intensional_entries, name="default")
        problem = ProblemFile(
            signature=sig,
            sort_order=tuple(self.sorts),
            subsort_decls=tuple(self.subsorts),
            int_range=self.int_range,
            constants=tuple(self.constant_order),
            base=tuple(self.base),
            groups=tuple(self.groups),
            default_lambda=default,
            parts=tuple(self.parts),
            contexts=tuple(self.contexts),
            formulas=tuple(self.formulas),
        )
        return problem

    def statement(self) -> None:
        tok = self.peek()
        if tok.kind == "keyword" and tok.value == "sort":
            self.sort_decl()
        elif tok.kind == "keyword" and tok.value == "pred":
            self.pred_decl()
        elif tok.kind == "keyword" and tok.value == "domain":
            self.domain_decl()
        elif tok.kind == "keyword" and tok.value == "int":
            self.int_decl()
        elif tok.kind == "directive" and tok.value not in ("#true", "#false"):
            self.directive()
        else:
            self.base.append(self.rule_or_sentence())

    def sort_decl(self) -> None:
        self.expect("keyword", "sort")
        tok = self.expect("ident")
        self.declare_sort(tok.value, tok)
        if self.accept("sym", "<"):
            sup = self.sort_name()
            self.check_sort(sup.value, sup)
            self.subsorts.append((tok.value, sup.value))
        self.expect("sym", ".")

    def int_decl(self) -> None:
        self.expect("keyword", "int")
        self.expect("keyword", "range")
        lo = self.integer_literal()
        self.expect("sym", "..")
        hi = self.integer_literal()
        tok = self.expect("sym", ".")
        if self.int_range is not None:
            raise self.error("duplicate int range declaration", tok)
        if lo > hi:
            raise self.error("empty integer range", tok)
        self.has_int = True
        self.int_range = (lo, hi)

    def integer_literal(self) -> int:
        sign = -1 if self.accept("sym", "-") else 1
        tok = self.expect("int")
        return sign * int(tok.value)

    def pred_decl(self) -> None:
        self.expect("keyword", "pred")
        tok = self.expect("ident")
        arg_sorts: list[str] = []
        if self.accept("sym", "("):
            if not self.accept("sym", ")"):
                while True:
                    s = self.sort_name()
                    self.check_sort(s.value, s)
                    arg_sorts.append(s.value)
                    if not self.accept("sym", ","):
                        break
                self.expect("sym", ")")
        self.expect("sym", ".")
        key = (tok.value, len(arg_sorts))
        if key in self.predicates:
            raise self.error(f"duplicate predicate {key[0]}/{key[1]}", tok)
        if len(arg_sorts) == 0 and tok.value in self.constants:
            raise self.error(
                f"{tok.value} is already a constant; a 0-ary predicate of the same name would be ambiguous",
                tok,
            )
        self.predicates[key] = tuple(arg_sorts)

    def domain_decl(self) -> None:
        self.expect("keyword", "domain")
        sort_tok = self.sort_name()
        self.check_sort(sort_tok.value, sort_tok)
        self.expect("sym", "=")
        self.expect("sym", "{")
        while True:
            c = self.expect("ident")
            if c.value in self.constants:
                raise self.error(f"duplicate constant {c.value}", c)
            if (c.value, 0) in self.predicates:
                raise self.error(
                    f"{c.value} is already a 0-ary predicate; a constant of the same name would be ambiguous",
                    c,
                )
            self.constants[c.value] = sort_tok.value
            self.constant_order.append((c.value, sort_tok.value))
            if not self.accept("sym", ","):
                break
        self.expect("sym", "}")
        self.expect("sym", ".")

    # directives ------------------------------------------------------------

    def directive(self) -> None:
        tok = self.next()
        if tok.value == "#intensional":
            key, entry = self.intensional_entry()
            if key in self.intensional_entries:
                raise self.error(f"duplicate intensionality declaration for {key[0]}/{key[1]}", tok)
            self.intensional_entries[key] = entry
            self.expect("sym", ".")
        elif tok.value == "#part":
            name = self.expect("ident").value
            if name == "default":  # --lambda and --partition read it as the #intensional statement
                raise self.error("the name default is reserved for the #intensional statement", tok)
            self.check_fresh_name(name, tok)
            entries: dict[PredKey, tuple[tuple[Variable, ...], Formula]] = {}
            self.expect("sym", "{")
            if not self.accept("sym", "}"):  # an empty body is the all-#false statement
                while True:
                    key, entry = self.intensional_entry()
                    if key in entries:
                        raise self.error(f"duplicate entry for {key[0]}/{key[1]}", tok)
                    entries[key] = entry
                    if not self.accept("sym", ";"):
                        break
                self.expect("sym", "}")
            self.expect("sym", ".")
            self.parts.append(
                (name, IntensionalityStatement.make(self.signature(), entries, name=name))
            )
        elif tok.value in ("#context", "#group"):
            name = self.expect("ident").value
            self.check_fresh_name(name, tok)
            self.expect("sym", "{")
            statements: list[Statement] = []
            while not self.accept("sym", "}"):
                statements.append(self.rule_or_sentence())
            self.expect("sym", ".")
            if tok.value == "#context":
                self.contexts.append((name, tuple(statements)))
            else:
                self.groups.append((name, tuple(statements)))
        elif tok.value == "#formula":
            name = self.expect("ident").value
            self.check_fresh_name(name, tok)
            self.expect("sym", ":")
            self._statement_token = self.peek()
            raw = self.formula()
            self.expect("sym", ".")
            self.formulas.append((name, self.resolve(raw, close=False)))
        else:
            raise self.error(f"unknown directive {tok.value}", tok)

    def check_fresh_name(self, name: str, tok: Token) -> None:
        taken = (
            {n for n, _ in self.parts}
            | {n for n, _ in self.contexts}
            | {n for n, _ in self.groups}
            | {n for n, _ in self.formulas}
        )
        if name in taken:
            raise self.error(f"duplicate name {name}", tok)

    def intensional_entry(self) -> tuple[PredKey, tuple[tuple[Variable, ...], Formula]]:
        tok = self.expect("ident")
        self._statement_token = tok
        args: list[str] = []
        if self.accept("sym", "("):
            if not self.accept("sym", ")"):
                while True:
                    v = self.expect("var")
                    args.append(v.value)
                    if not self.accept("sym", ","):
                        break
                self.expect("sym", ")")
        key = (tok.value, len(args))
        if key not in self.predicates:
            raise self.error(f"undeclared predicate {key[0]}/{key[1]}", tok)
        if len(set(args)) != len(args):
            raise self.error("argument variables must be pairwise distinct", tok)
        self.expect("sym", ":")
        raw = self.formula()
        arg_sorts = self.predicates[key]
        seed = {name: sort for name, sort in zip(args, arg_sorts)}
        resolved = self.resolve(raw, close=False, seed_sorts=seed)
        variables = tuple(Variable(n, s) for n, s in zip(args, arg_sorts))
        return key, (variables, resolved)

    # statements ------------------------------------------------------------

    def rule_or_sentence(self) -> Statement:
        # a rule is recognised by ':-' before the closing '.'
        self._statement_token = self.peek()
        depth = 0
        is_rule = False
        i = self.pos
        while i < len(self.tokens):
            tok = self.tokens[i]
            if tok.kind == "sym" and tok.value in "({":
                depth += 1
            elif tok.kind == "sym" and tok.value in ")}":
                depth -= 1
                if depth < 0:
                    break
            elif tok.kind == "sym" and tok.value == "." and depth == 0:
                break
            elif tok.kind == "sym" and tok.value == ":-" and depth == 0:
                is_rule = True
                break
            elif tok.kind == "eof":
                break
            i += 1
        if is_rule:
            return self.rule()
        raw = self.formula()
        self.expect("sym", ".")
        resolved = self.resolve(raw, close=True)
        return self.fact_from_sentence(resolved)

    def fact_from_sentence(self, sentence: Formula) -> Statement:
        """Quantifier-free disjunctions of predicate atoms are kept as facts,
        so files of plain rules round-trip as programs."""
        atoms: list[Formula] = []
        stack = [sentence]
        while stack:
            g = stack.pop()
            if isinstance(g, Or):
                stack.extend((g.rhs, g.lhs))
            elif isinstance(g, Atom) and g.pred not in COMPARISON_PREDICATES:
                atoms.append(g)
            else:
                return sentence
        return Rule(tuple(atoms), ())

    def rule(self) -> Rule:
        heads: list[Formula] = []
        if not (self.peek().kind == "sym" and self.peek().value == ":-"):
            while True:
                heads.append(self.head_atom())
                if not self.accept("sym", "|"):
                    break
        self.expect("sym", ":-")
        body: list[tuple[int, Formula]] = []
        if not (self.peek().kind == "sym" and self.peek().value == "."):
            while True:
                body.append(self.body_literal())
                if not self.accept("sym", ","):
                    break
        self.expect("sym", ".")
        if not heads and not body:
            raise self.error("a rule needs a head or a body")
        return self.resolve_rule(heads, body)

    def head_atom(self) -> Formula:
        tok = self.peek()
        f = self.atomic_formula()
        if not isinstance(f, Atom) or f.pred in COMPARISON_PREDICATES:
            raise self.error("rule heads list predicate atoms", tok)
        return f

    def body_literal(self) -> tuple[int, Formula]:
        negations = 0
        while self.accept("keyword", "not"):
            negations += 1
            if negations > 2:
                raise self.error("at most two occurrences of 'not' per literal")
        tok = self.peek()
        f = self.atomic_formula()
        if isinstance(f, Implies) and f.rhs == BOT:  # an inequality
            negations += 1
            f = f.lhs
        if negations > 2:
            raise self.error("at most two negations per literal", tok)
        return negations, f

    # formula grammar ---------------------------------------------------------

    def formula(self) -> Formula:
        f = self.imp_formula()
        while self.accept("sym", "<->"):
            f = iff(f, self.imp_formula())
        return f

    def imp_formula(self) -> Formula:
        f = self.or_formula()
        if self.accept("sym", "->"):
            return Implies(f, self.imp_formula())
        return f

    def or_formula(self) -> Formula:
        f = self.and_formula()
        while self.accept("sym", "|"):
            f = Or(f, self.and_formula())
        return f

    def and_formula(self) -> Formula:
        f = self.unary_formula()
        while self.accept("sym", "&"):
            f = And(f, self.unary_formula())
        return f

    def unary_formula(self) -> Formula:
        if self.accept("keyword", "not"):
            return neg(self.unary_formula())
        tok = self.peek()
        if tok.kind == "keyword" and tok.value in ("forall", "exists"):
            self.next()
            names = []
            while self.peek().kind == "var":
                names.append(self.next().value)
            if not names:
                raise self.error("quantifier needs at least one variable")
            self.expect("sym", "(")
            body = self.formula()
            self.expect("sym", ")")
            ctor = Forall if tok.value == "forall" else Exists
            for name in reversed(names):
                body = ctor(Variable(name, "?"), body)
            return body
        if tok.kind == "sym" and tok.value == "(":
            self.next()
            f = self.formula()
            self.expect("sym", ")")
            return f
        return self.atomic_formula()

    def atomic_formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "directive" and tok.value == "#true":
            self.next()
            return TOP
        if tok.kind == "directive" and tok.value == "#false":
            self.next()
            return BOT
        if tok.kind == "ident":
            nxt = self.peek(1)
            if nxt.kind == "sym" and nxt.value == "(":
                return self.predicate_atom()
            if (tok.value, 0) in self.predicates:
                self.next()
                return Atom(tok.value, ())
            # otherwise the identifier starts a term (a constant)
        return self.comparison()

    def predicate_atom(self) -> Formula:
        tok = self.expect("ident")
        self.expect("sym", "(")
        args: list[Term] = []
        if not self.accept("sym", ")"):
            while True:
                args.append(self.term())
                if not self.accept("sym", ","):
                    break
            self.expect("sym", ")")
        key = (tok.value, len(args))
        if key not in self.predicates:
            raise self.error(f"undeclared predicate {key[0]}/{key[1]}", tok)
        nxt = self.peek()
        if nxt.kind == "sym" and nxt.value in ("=", "!=") + COMPARISON_PREDICATES:
            raise self.error("predicates cannot be compared as terms", nxt)
        return Atom(tok.value, tuple(args))

    def comparison(self) -> Formula:
        tok = self.peek()
        lhs = self.term()
        op = self.peek()
        if op.kind == "sym" and op.value == "=":
            self.next()
            return Equality(lhs, self.term())
        if op.kind == "sym" and op.value == "!=":
            self.next()
            return neg(Equality(lhs, self.term()))
        if op.kind == "sym" and op.value in COMPARISON_PREDICATES:
            self.next()
            return Atom(op.value, (lhs, self.term()))
        raise self.error("expected a comparison after the term", tok)

    # terms -------------------------------------------------------------------

    def term(self) -> Term:
        t = self.mul_term()
        while True:
            tok = self.peek()
            if tok.kind == "sym" and tok.value in ("+", "-"):
                self.next()
                t = Func(tok.value, (t, self.mul_term()), INT_SORT)
            else:
                return t

    def mul_term(self) -> Term:
        t = self.primary_term()
        while self.accept("sym", "*"):
            t = Func("*", (t, self.primary_term()), INT_SORT)
        return t

    def primary_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "int" or (tok.kind == "sym" and tok.value == "-"):
            value = self.integer_literal()
            if not self.has_int:
                raise self.error("integers need an 'int range' declaration", tok)
            return DomainName(value, INT_SORT)
        if tok.kind == "var":
            self.next()
            return Variable(tok.value, "?")
        if tok.kind == "ident":
            self.next()
            sort = self.constants.get(tok.value)
            if sort is None:
                raise self.error(f"undeclared constant {tok.value}", tok)
            return DomainName(tok.value, sort)
        raise self.error("expected a term", tok)

    # sort resolution -----------------------------------------------------------
    # Two walks per statement: _collect gathers the sorts each variable's
    # positions ask for, _solve gives every variable the least sort of its
    # component of equality ties, and _rebuild puts the sorts in and checks
    # each term as it goes.  A sort error points at the statement.

    def resolve_rule(self, heads: list[Formula], body: list[tuple[int, Formula]]) -> Rule:
        # infer over the whole rule at once so shared variables agree
        matrix: Formula = TOP
        for f in heads + [f for _n, f in body]:
            matrix = And(matrix, f)
        sig = self.signature()
        lookup = self._solve(sig, *self._collect(matrix))
        new_heads = tuple(self._rebuild(sig, h, {}, lookup) for h in heads)
        new_body = tuple(Literal(self._rebuild(sig, f, {}, lookup), n) for n, f in body)
        return Rule(new_heads, new_body)

    def resolve(
        self,
        raw: Formula,
        close: bool,
        seed_sorts: Optional[dict[str, str]] = None,
    ) -> Formula:
        sig = self.signature()
        lookup = self._solve(sig, *self._collect(raw, seed_sorts))
        resolved = self._rebuild(sig, raw, {}, lookup)
        if close:
            resolved = forall_over(free_variables(resolved), resolved)
        return resolved

    def _arg_sorts(self, atom: Atom) -> tuple[str, ...]:
        if atom.pred in COMPARISON_PREDICATES:
            return (INT_SORT,) * len(atom.args)
        return self.predicates[(atom.pred, len(atom.args))]

    def _collect(
        self, f: Formula, seed_sorts: Optional[dict[str, str]] = None
    ) -> tuple[dict[tuple, set[str]], list[tuple[tuple, tuple]]]:
        """The slots of ``f`` in the order they are first met, each with the
        sorts asked of it, and the pairs of slots that an equality ties."""
        slots: dict[tuple, set[str]] = {}
        ties: list[tuple[tuple, tuple]] = []
        if seed_sorts:
            for name, sort in seed_sorts.items():
                slots.setdefault(("free", name), set()).add(sort)
        stack: list[tuple[Formula, tuple, dict[str, tuple]]] = [(f, (), {})]
        while stack:
            g, path, env = stack.pop()
            if isinstance(g, Atom):
                for t, s in zip(g.args, self._arg_sorts(g)):
                    _constrain_term(slots, t, s, env)
            elif isinstance(g, Equality):
                for t in (g.lhs, g.rhs):
                    _constrain_term(slots, t, None, env)
                lk, rk = _term_key(g.lhs, env), _term_key(g.rhs, env)
                ls, rs = _literal_sort(g.lhs), _literal_sort(g.rhs)
                if lk is not None and rs is not None:
                    slots[lk].add(rs)
                if rk is not None and ls is not None:
                    slots[rk].add(ls)
                if lk is not None and rk is not None:
                    ties.append((lk, rk))
            elif isinstance(g, (And, Or, Implies)):
                stack.append((g.rhs, path + (1,), env))
                stack.append((g.lhs, path + (0,), env))
            elif isinstance(g, (Forall, Exists)):
                key = ("bound", path)
                slots.setdefault(key, set())
                stack.append((g.body, path + (0,), {**env, g.var.name: key}))
        return slots, ties

    def _solve(
        self, sig: Signature, slots: dict[tuple, set[str]], ties: list[tuple[tuple, tuple]]
    ) -> dict[tuple, str]:
        """Each slot's sort: the least of the sorts asked of any slot in its
        component of ties.  The first slot in order without one names the
        error."""
        parent = {key: key for key in slots}
        for a, b in ties:
            parent[_root(parent, a)] = _root(parent, b)
        component: dict[tuple, set[str]] = {}
        for key, sorts in slots.items():
            component.setdefault(_root(parent, key), set()).update(sorts)
        out: dict[tuple, str] = {}
        for key in slots:
            sorts = component[_root(parent, key)]
            name = key[1] if key[0] == "free" else "a bound variable"
            if not sorts:
                raise self.error(f"cannot infer the sort of {name}", self._statement_token)
            least = [s for s in sorts if all(sig.is_subsort(s, o) for o in sorts)]
            if not least:
                raise self.error(
                    f"conflicting sorts for {name}: {', '.join(sorted(sorts))}", self._statement_token
                )
            out[key] = least[0]
        return out

    def _rebuild(
        self, sig: Signature, f: Formula, env: dict, lookup: dict, path: tuple = ()
    ) -> Formula:
        """``f`` with the solved sorts, checked as it is built, left before
        right: argument terms are subsorts of the declared ones, and equality
        operands share a supersort."""
        if isinstance(f, Atom):
            args = tuple(_fix_term(t, env, lookup) for t in f.args)
            for t, s in zip(args, self._arg_sorts(f)):
                self._check_term(sig, t, s)
            return Atom(f.pred, args)
        if isinstance(f, Equality):
            lhs, rhs = _fix_term(f.lhs, env, lookup), _fix_term(f.rhs, env, lookup)
            if sig.common_supersort(lhs.sort, rhs.sort) is None:
                raise self.error(
                    f"equality between unrelated sorts {lhs.sort} and {rhs.sort}", self._statement_token
                )
            for t in (lhs, rhs):
                if isinstance(t, Func):
                    self._check_term(sig, t, INT_SORT)
            return Equality(lhs, rhs)
        if isinstance(f, Bottom):
            return f
        if isinstance(f, (And, Or, Implies)):
            return type(f)(
                self._rebuild(sig, f.lhs, env, lookup, path + (0,)),
                self._rebuild(sig, f.rhs, env, lookup, path + (1,)),
            )
        if isinstance(f, (Forall, Exists)):
            key = ("bound", path)
            inner = dict(env)
            inner[f.var.name] = key
            return type(f)(
                Variable(f.var.name, lookup[key]),
                self._rebuild(sig, f.body, inner, lookup, path + (0,)),
            )
        raise TypeError(f"not a formula: {f!r}")

    def _check_term(self, sig: Signature, t: Term, expected: str) -> None:
        if not sig.is_subsort(t.sort, expected):
            message = f"term of sort {t.sort} where {expected} is expected"
            raise self.error(message, self._statement_token)
        if isinstance(t, Func):
            for a in t.args:
                self._check_term(sig, a, INT_SORT)


# sort inference: a slot per free variable name and per quantifier, keyed
# ("free", name) or ("bound", path); an equality between two variables ties
# their slots, and a component of ties shares one sort


def _root(parent: dict[tuple, tuple], key: tuple) -> tuple:
    """The representative of ``key``'s component, halving the path."""
    while parent[key] != key:
        parent[key] = parent[parent[key]]
        key = parent[key]
    return key


def _term_key(t: Term, env: dict[str, tuple]) -> Optional[tuple]:
    if isinstance(t, Variable):
        return env.get(t.name, ("free", t.name))
    return None


def _literal_sort(t: Term) -> Optional[str]:
    """The sort a term has before inference: None for a variable."""
    if isinstance(t, Func):
        return INT_SORT
    if isinstance(t, DomainName):
        return t.sort
    return None


def _constrain_term(
    slots: dict[tuple, set[str]], t: Term, expected: Optional[str], env: dict[str, tuple]
) -> None:
    if isinstance(t, Variable):
        sorts = slots.setdefault(env.get(t.name, ("free", t.name)), set())
        if expected is not None:
            sorts.add(expected)
    elif isinstance(t, Func):
        for a in t.args:
            _constrain_term(slots, a, INT_SORT, env)


def _fix_term(t: Term, env: dict, lookup: dict) -> Term:
    if isinstance(t, Variable):
        return Variable(t.name, lookup[env.get(t.name, ("free", t.name))])
    if isinstance(t, Func):
        return Func(t.name, tuple(_fix_term(a, env, lookup) for a in t.args), t.sort)
    return t


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; raises :class:`ParseError` with a location."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printer


def _format_statement(s: Statement) -> str:
    if isinstance(s, Rule):
        return format_rule(s)
    return f"{format_formula(s)}."


def print_problem(problem: ProblemFile) -> str:
    """Deterministic canonical text; ``parse_problem`` inverts it."""
    lines: list[str] = ["% htsplit problem file"]
    if problem.int_range is not None:
        lo, hi = problem.int_range
        lines.append(f"int range {lo}..{hi}.")
    supers = dict(problem.subsort_decls)
    for s in problem.sort_order:
        if s in supers:
            lines.append(f"sort {s} < {supers[s]}.")
        else:
            lines.append(f"sort {s}.")
    by_sort: dict[str, list[str]] = {}
    for name, sort in problem.constants:
        by_sort.setdefault(sort, []).append(name)
    for sort in problem.sort_order:
        if sort in by_sort:
            lines.append(f"domain {sort} = {{{', '.join(by_sort[sort])}}}.")
    for (name, arity), arg_sorts in sorted(problem.signature.predicates.items()):
        if arity == 0:
            lines.append(f"pred {name}.")
        else:
            lines.append(f"pred {name}({', '.join(arg_sorts)}).")
    for s in problem.base:
        lines.append(_format_statement(s))
    for name, statements in problem.groups:
        lines.append(f"#group {name} {{")
        for s in statements:
            lines.append(f"  {_format_statement(s)}")
        lines.append("}.")
    for key, (variables, formula) in problem.default_lambda.entries:
        head = key[0] if key[1] == 0 else f"{key[0]}({', '.join(v.name for v in variables)})"
        lines.append(f"#intensional {head} : {format_formula(formula)}.")
    for name, lam in problem.parts:
        entries = []
        for key, (variables, formula) in lam.entries:
            head = key[0] if key[1] == 0 else f"{key[0]}({', '.join(v.name for v in variables)})"
            entries.append(f"{head} : {format_formula(formula)}")
        lines.append(f"#part {name} {{ {' ; '.join(entries)} }}.")
    for name, statements in problem.contexts:
        lines.append(f"#context {name} {{")
        for s in statements:
            lines.append(f"  {_format_statement(s)}")
        lines.append("}.")
    for name, f in problem.formulas:
        lines.append(f"#formula {name} : {format_formula(f)}.")
    return "\n".join(lines) + "\n"
