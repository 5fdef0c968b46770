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
sorts are inferred from predicate and arithmetic positions; a variable whose
sort cannot be pinned down is rejected.  Rule heads list predicate atoms.
Parenthesised arithmetic terms are not needed: ``X+1 = 2`` already parses with
the comparison binding loosest.

Parsing is all-or-nothing: any problem raises :class:`ParseError` with a
source location and no partial file is ever returned.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

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


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<directive>\#[a-z]+)
  | (?P<int>[0-9]+)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<var>[A-Z_$][A-Za-z0-9_]*)
  | (?P<sym>:-|\.\.|<->|->|<=|>=|!=|[.,;:(){}|&<>=+\-*])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        value = m.group()
        if kind not in ("ws", "comment"):
            if kind == "ident" and value in RESERVED:
                kind = "keyword"
            tokens.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
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

    def domains(self) -> dict[str, tuple]:
        out: dict[str, list] = {s: [] for s in self.sort_order}
        for name, sort in self.constants:
            out[sort].append(name)
        # subsort containment: a supersort's domain includes its subsorts'
        for s in self.sort_order:
            for t in self.sort_order:
                if s != t and self.signature.is_subsort(s, t):
                    out[t].extend(c for c in out[s] if c not in out[t])
        result = {s: tuple(es) for s, es in out.items()}
        if self.int_range is not None:
            lo, hi = self.int_range
            result[INT_SORT] = tuple(range(lo, hi + 1))
        return result

    def theory(self) -> list[Statement]:
        out = list(self.base)
        for _name, statements in self.groups:
            out.extend(statements)
        return out

    def group(self, name: str) -> list[Statement]:
        for n, statements in self.groups:
            if n == name:
                return list(statements)
        raise KeyError(f"no group named {name!r}")

    def part(self, name: str) -> IntensionalityStatement:
        for n, lam in self.parts:
            if n == name:
                return lam
        raise KeyError(f"no intensionality statement named {name!r}")

    def context(self, name: str) -> list[Statement]:
        for n, statements in self.contexts:
            if n == name:
                return list(statements)
        raise KeyError(f"no context named {name!r}")

    def formula(self, name: str) -> Formula:
        for n, f in self.formulas:
            if n == name:
                return f
        raise KeyError(f"no formula named {name!r}")


# ---------------------------------------------------------------------------
# parser proper


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
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
            raise ParseError(f"expected {want!r}, found {tok.value or 'end of input'!r}", tok.line, tok.column)
        return self.next()

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.column)

    # signature helpers -----------------------------------------------------

    def signature(self) -> Signature:
        return Signature.make(self.sorts, self.subsorts, self.predicates, self.has_int)

    def declare_sort(self, name: str, tok: Token) -> None:
        if name in self.sorts or (name == INT_SORT and self.has_int):
            raise ParseError(f"duplicate sort {name}", tok.line, tok.column)
        self.sorts.append(name)

    def check_sort(self, name: str, tok: Token) -> None:
        if name == INT_SORT and self.has_int:
            return
        if name not in self.sorts:
            raise ParseError(f"undeclared sort {name}", tok.line, tok.column)

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
            raise ParseError("duplicate int range declaration", tok.line, tok.column)
        if lo > hi:
            raise ParseError("empty integer range", tok.line, tok.column)
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
            raise ParseError(f"duplicate predicate {key[0]}/{key[1]}", tok.line, tok.column)
        if len(arg_sorts) == 0 and tok.value in self.constants:
            raise ParseError(
                f"{tok.value} is already a constant; a 0-ary predicate of the same name would be ambiguous",
                tok.line,
                tok.column,
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
                raise ParseError(f"duplicate constant {c.value}", c.line, c.column)
            if (c.value, 0) in self.predicates:
                raise ParseError(
                    f"{c.value} is already a 0-ary predicate; a constant of the same name would be ambiguous",
                    c.line,
                    c.column,
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
                raise ParseError(
                    f"duplicate intensionality declaration for {key[0]}/{key[1]}", tok.line, tok.column
                )
            self.intensional_entries[key] = entry
            self.expect("sym", ".")
        elif tok.value == "#part":
            name = self.expect("ident").value
            if name == "default":  # --lambda and --partition read it as the #intensional statement
                raise ParseError(
                    "the name default is reserved for the #intensional statement", tok.line, tok.column
                )
            self.check_fresh_name(name, tok)
            entries: dict[PredKey, tuple[tuple[Variable, ...], Formula]] = {}
            self.expect("sym", "{")
            if not self.accept("sym", "}"):  # an empty body is the all-#false statement
                while True:
                    key, entry = self.intensional_entry()
                    if key in entries:
                        raise ParseError(
                            f"duplicate entry for {key[0]}/{key[1]}", tok.line, tok.column
                        )
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
            raise ParseError(f"duplicate name {name}", tok.line, tok.column)

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
            raise ParseError(f"undeclared predicate {key[0]}/{key[1]}", tok.line, tok.column)
        if len(set(args)) != len(args):
            raise ParseError("argument variables must be pairwise distinct", tok.line, tok.column)
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
            raise ParseError(f"undeclared predicate {key[0]}/{key[1]}", tok.line, tok.column)
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
                raise ParseError("integers need an 'int range' declaration", tok.line, tok.column)
            return DomainName(value, INT_SORT)
        if tok.kind == "var":
            self.next()
            return Variable(tok.value, "?")
        if tok.kind == "ident":
            self.next()
            sort = self.constants.get(tok.value)
            if sort is None:
                raise ParseError(f"undeclared constant {tok.value}", tok.line, tok.column)
            return DomainName(tok.value, sort)
        raise self.error("expected a term", tok)

    # sort resolution -----------------------------------------------------------

    def resolve_rule(self, heads: list[Formula], body: list[tuple[int, Formula]]) -> Rule:
        # infer over the whole rule at once so shared variables agree
        matrix: Formula = TOP
        for f in heads + [f for _n, f in body]:
            matrix = And(matrix, f)
        slots = self._collect(matrix, {})
        lookup = self._solve(slots)
        new_heads = tuple(self._rebuild(h, {}, lookup) for h in heads)
        new_body = tuple(
            Literal(self._rebuild(f, {}, lookup), n) for n, f in body
        )
        self._validate_sorts(new_heads + tuple(lit.atom for lit in new_body))
        return Rule(new_heads, new_body)

    def resolve(
        self,
        raw: Formula,
        close: bool,
        seed_sorts: Optional[dict[str, str]] = None,
    ) -> Formula:
        slots = self._collect(raw, {}, seed_sorts)
        lookup = self._solve(slots)
        resolved = self._rebuild(raw, {}, lookup)
        self._validate_sorts([resolved])
        if close:
            resolved = forall_over(free_variables(resolved), resolved)
        return resolved

    def _collect(
        self,
        f: Formula,
        env: dict[str, tuple],
        seed_sorts: Optional[dict[str, str]] = None,
    ) -> dict[tuple, dict]:
        slots: dict[tuple, dict] = {}
        if seed_sorts:
            for name, sort in seed_sorts.items():
                _slot(slots, ("free", name))["sorts"].add(sort)
        stack: list[tuple[Formula, tuple, dict[str, tuple]]] = [(f, (), env)]
        while stack:
            g, path, env = stack.pop()
            if isinstance(g, Atom):
                if g.pred in COMPARISON_PREDICATES:
                    arg_sorts: tuple[str, ...] = (INT_SORT,) * len(g.args)
                else:
                    arg_sorts = self.predicates[(g.pred, len(g.args))]
                for t, s in zip(g.args, arg_sorts):
                    _constrain_term(slots, t, s, env)
            elif isinstance(g, Equality):
                for t in (g.lhs, g.rhs):
                    _constrain_term(slots, t, None, env)
                lk, rk = _term_key(g.lhs, env), _term_key(g.rhs, env)
                ls, rs = _literal_sort(g.lhs), _literal_sort(g.rhs)
                if lk is not None and rs is not None:
                    _slot(slots, lk)["sorts"].add(rs)
                if rk is not None and ls is not None:
                    _slot(slots, rk)["sorts"].add(ls)
                if lk is not None and rk is not None:
                    _slot(slots, lk)["eq"].add(rk)
                    _slot(slots, rk)["eq"].add(lk)
            elif isinstance(g, (And, Or, Implies)):
                stack.append((g.rhs, path + (1,), env))
                stack.append((g.lhs, path + (0,), env))
            elif isinstance(g, (Forall, Exists)):
                key = ("bound", path)
                _slot(slots, key)
                stack.append((g.body, path + (0,), {**env, g.var.name: key}))
        return slots

    def _where(self) -> tuple[int, int]:
        tok = getattr(self, "_statement_token", None)
        return (tok.line, tok.column) if tok else (0, 0)

    def _solve(self, slots: dict[tuple, dict]) -> dict[tuple, str]:
        changed = True
        while changed:
            changed = False
            for key, data in slots.items():
                for other in data["eq"]:
                    merged = slots[other]["sorts"] | data["sorts"]
                    if merged != data["sorts"] or merged != slots[other]["sorts"]:
                        data["sorts"] |= merged
                        slots[other]["sorts"] |= merged
                        changed = True
        sig = self.signature()
        out: dict[tuple, str] = {}
        for key, data in slots.items():
            sorts = data["sorts"]
            name = key[1] if key[0] == "free" else "a bound variable"
            line, column = self._where()
            if not sorts:
                raise ParseError(f"cannot infer the sort of {name}", line, column)
            minimal = [s for s in sorts if all(sig.is_subsort(s, o) for o in sorts)]
            if not minimal:
                raise ParseError(
                    f"conflicting sorts for {name}: {', '.join(sorted(sorts))}", line, column
                )
            out[key] = minimal[0]
        return out

    def _validate_sorts(self, formulas: Sequence[Formula]) -> None:
        """Well-sortedness of resolved formulas: argument sorts are subsorts
        of the declared ones, equality operands share a supersort."""
        sig = self.signature()
        stack = list(reversed(formulas))
        while stack:
            g = stack.pop()
            if isinstance(g, Atom):
                if g.pred in COMPARISON_PREDICATES:
                    arg_sorts: tuple[str, ...] = (INT_SORT,) * len(g.args)
                else:
                    arg_sorts = self.predicates[(g.pred, len(g.args))]
                for t, s in zip(g.args, arg_sorts):
                    self._check_term(sig, t, s)
            elif isinstance(g, Equality):
                if sig.common_supersort(g.lhs.sort, g.rhs.sort) is None:
                    line, column = self._where()
                    raise ParseError(
                        f"equality between unrelated sorts {g.lhs.sort} and {g.rhs.sort}",
                        line,
                        column,
                    )
                for t in (g.lhs, g.rhs):
                    if isinstance(t, Func):
                        self._check_term(sig, t, INT_SORT)
            elif isinstance(g, (And, Or, Implies)):
                stack.append(g.rhs)
                stack.append(g.lhs)
            elif isinstance(g, (Forall, Exists)):
                stack.append(g.body)

    def _check_term(self, sig: Signature, t: Term, expected: str) -> None:
        if not sig.is_subsort(t.sort, expected):
            line, column = self._where()
            raise ParseError(f"term of sort {t.sort} where {expected} is expected", line, column)
        if isinstance(t, Func):
            for a in t.args:
                self._check_term(sig, a, INT_SORT)

    def _rebuild(self, f: Formula, env: dict, lookup: dict, path: tuple = ()) -> Formula:
        if isinstance(f, Atom):
            return Atom(f.pred, tuple(_fix_term(t, env, lookup) for t in f.args))
        if isinstance(f, Equality):
            return Equality(_fix_term(f.lhs, env, lookup), _fix_term(f.rhs, env, lookup))
        if isinstance(f, Bottom):
            return f
        if isinstance(f, (And, Or, Implies)):
            return type(f)(
                self._rebuild(f.lhs, env, lookup, path + (0,)),
                self._rebuild(f.rhs, env, lookup, path + (1,)),
            )
        if isinstance(f, (Forall, Exists)):
            key = ("bound", path)
            inner = dict(env)
            inner[f.var.name] = key
            return type(f)(
                Variable(f.var.name, lookup[key]),
                self._rebuild(f.body, inner, lookup, path + (0,)),
            )
        raise TypeError(f"not a formula: {f!r}")


# sort inference: a slot per free variable name and per quantifier, keyed
# ("free", name) or ("bound", path), holding its candidate sorts and the
# slots an equality ties it to


def _slot(slots: dict[tuple, dict], key: tuple) -> dict:
    if key not in slots:
        slots[key] = {"sorts": set(), "eq": set(), "tok": None}
    return slots[key]


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
    slots: dict[tuple, dict], t: Term, expected: Optional[str], env: dict[str, tuple]
) -> None:
    if isinstance(t, Variable):
        slot = _slot(slots, env.get(t.name, ("free", t.name)))
        if expected is not None:
            slot["sorts"].add(expected)
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
    supers = dict(problem.subsort_decls)
    for s in problem.sort_order:
        if s in supers:
            lines.append(f"sort {s} < {supers[s]}.")
        else:
            lines.append(f"sort {s}.")
    if problem.int_range is not None:
        lo, hi = problem.int_range
        lines.append(f"int range {lo}..{hi}.")
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
