"""Seeded generators for the benchmark's ``.htsplit`` inputs.

Every generator takes the workload seed and returns the file text together
with the facts of its construction that the output checks need (names,
groups, members).  The seed renames every symbol and shuffles the order of
statements and domain elements; it never changes the shape of an instance.
Names are drawn in ascending order, so a renamed instance sorts its atoms
as the original does: the search order follows atom order, and with names
drawn in any order the CPU time of ``models`` at horizon 0..3 ranged from
2.3 to 4.0 s over six seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """``count`` distinct lower-case identifiers in ascending order, none of
    them a keyword.  Ascending, so that a renamed instance orders its atoms
    as the original does."""
    return [f"{prefix}{n}" for n in sorted(rng.sample(range(100, 1000), count))]


def _shuffled(rng: random.Random, items: list[str]) -> list[str]:
    out = list(items)
    rng.shuffle(out)
    return out


def _group(name: str, statements: list[str]) -> str:
    body = "\n".join(f"  {s}" for s in statements)
    return f"#group {name} {{\n{body}\n}}."


@dataclass
class Instance:
    """One generated input file and the facts of its construction."""

    name: str
    text: str
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# blocks world: the threshold split of inertia, one block and two locations


def blocks(seed: int, horizon: int, threshold: int) -> Instance:
    """Blocks-world split at horizon ``0..horizon`` with the inertia rule
    rewritten at ``threshold``: the early group defines ``on`` up to the
    threshold, the late group after it.  Groups ``early``/``late`` split
    along the partition ``beta1``/``beta2`` of the default statement."""
    rng = random.Random(f"blocks/{seed}/{horizon}/{threshold}")
    (block,) = _names(rng, "blk", 1)
    loc1, loc2 = _names(rng, "loc", 2)
    location, move, non, on = _names(rng, "p", 4)
    th = threshold
    early = [
        f"{on}(B,L,T+1) :- {on}(B,L,T), not {non}(B,L,T+1), T < {th}.",
        f"{on}(B,L,T+1) :- {move}(B,L,T), T < {th}.",
        f"{non}(B,L2,T) :- {on}(B,L,T), {location}(L2), L != L2, T <= {th}.",
        f"{move}({block},{loc2},0).",
    ]
    late = [
        f"{on}(B,L,T+1) :- {on}(B,L,T), not {non}(B,L,T+1), T >= {th}.",
        f"{on}(B,L,T+1) :- {move}(B,L,T), T >= {th}.",
        f"{non}(B,L2,T) :- {on}(B,L,T), {location}(L2), L != L2, T > {th}.",
    ]
    text = "\n".join(
        [
            f"% blocks-world split, horizon 0..{horizon}, threshold {th}, seed {seed}",
            "sort block.",
            "sort loc.",
            f"int range 0..{horizon}.",
            f"domain block = {{{block}}}.",
            f"domain loc = {{{', '.join(_shuffled(rng, [loc1, loc2]))}}}.",
            f"pred {on}(block, loc, int).",
            f"pred {non}(block, loc, int).",
            f"pred {move}(block, loc, int).",
            f"pred {location}(loc).",
            _group("early", _shuffled(rng, early)),
            _group("late", _shuffled(rng, late)),
            f"#intensional {on}(B,L,T) : T != 0.",
            f"#intensional {non}(B,L,T) : #true.",
            f"#part beta1 {{ {on}(B,L,T) : T != 0 & T <= {th} ; {non}(B,L,T) : T <= {th} }}.",
            f"#part beta2 {{ {on}(B,L,T) : T > {th} ; {non}(B,L,T) : T > {th} }}.",
            "",
        ]
    )
    return Instance(
        f"blocks-{horizon}-{th}",
        text,
        {"groups": ["early", "late"], "members": ["beta1", "beta2"], "on": on, "non": non},
    )


# ---------------------------------------------------------------------------
# meta-interpreter encoding of the definite chain a0 <- a1 <- ... <- ak


def meta_chain(seed: int, k: int) -> Instance:
    """The conditional-literal meta-interpreter for the chain program with
    ``k`` rules, one theory part per rule plus a part of facts.

    Rule ``i`` (1-based) derives ``a(i-1)`` from ``a(i)``; member ``g<i>``
    defines ``holds`` at ``a(i-1)`` and the last member defines ``head`` and
    ``body``.  The context ``psi`` pins ``head`` and ``body`` to the facts.
    With k = 2 and the names a, b, c, r1, r2 this is the paper's three-way
    theory split."""
    rng = random.Random(f"meta/{seed}/{k}")
    atoms = _names(rng, "a", k + 1)
    rules = _names(rng, "r", k)
    objects = _shuffled(rng, atoms + rules)
    rule_groups = []
    facts = []
    context = []
    for i in range(1, k + 1):
        r, head, body = rules[i - 1], atoms[i - 1], atoms[i]
        rule_groups.append(
            _group(
                f"gamma{i}",
                [f"forall X (head({r},X) & forall W (body({r},W) -> holds(W)) -> holds(X))."],
            )
        )
        facts += [f"head({r},{head}).", f"body({r},{body})."]
        context += [
            f"forall X (head({r},X) <-> X = {head}).",
            f"forall X (body({r},X) <-> X = {body}).",
        ]
    defined = " | ".join(f"X = {a}" for a in atoms[:k])
    text = "\n".join(
        [
            f"% meta-interpreter encoding of a {k}-rule chain, seed {seed}",
            "sort obj.",
            f"domain obj = {{{', '.join(objects)}}}.",
            "pred head(obj, obj).",
            "pred body(obj, obj).",
            "pred holds(obj).",
            *rule_groups,
            _group("facts", _shuffled(rng, facts)),
            f"#intensional holds(X) : {defined}.",
            "#intensional head(X,Y) : #true.",
            "#intensional body(X,Y) : #true.",
            *[f"#part g{i} {{ holds(X) : X = {atoms[i - 1]} }}." for i in range(1, k + 1)],
            f"#part g{k + 1} {{ head(X,Y) : #true ; body(X,Y) : #true }}.",
            "#context psi {",
            *[f"  {s}" for s in _shuffled(rng, context)],
            "}.",
            "",
        ]
    )
    return Instance(
        f"meta-{k}",
        text,
        {
            "k": k,
            "groups": [f"gamma{i}" for i in range(1, k + 1)] + ["facts"],
            "members": [f"g{i}" for i in range(1, k + 2)],
        },
    )


# ---------------------------------------------------------------------------
# a long disjunctive chain over integers


def long_chain(seed: int, top: int) -> Instance:
    """``q(X) :- p(X), X >= 0.`` and ``p(X) | p(X+1) :- X >= 0.`` over
    ``int range 0..top``, with ``p`` and ``q`` in separate members."""
    rng = random.Random(f"chain/{seed}/{top}")
    p, q = _names(rng, "c", 2)
    rules = [f"{q}(X) :- {p}(X), X >= 0.", f"{p}(X) | {p}(X+1) :- X >= 0."]
    text = "\n".join(
        [
            f"% disjunctive chain over 0..{top}, seed {seed}",
            f"int range 0..{top}.",
            f"pred {p}(int).",
            f"pred {q}(int).",
            *_shuffled(rng, rules),
            f"#intensional {p}(X) : #true.",
            f"#intensional {q}(X) : #true.",
            f"#part mp {{ {p}(X) : #true }}.",
            f"#part mq {{ {q}(X) : #true }}.",
            "",
        ]
    )
    return Instance(f"chain-{top}", text, {"members": ["mp", "mq"], "p": p, "q": q})


# ---------------------------------------------------------------------------
# the threshold rewrite of the inertia rule


def threshold_rewrite(seed: int, horizon: int, thresholds: tuple[int, ...]) -> Instance:
    """The inertia rule (group ``plain``) against its rewrite into two
    complementary guards at each threshold (``guarded<t>``) and against the
    early guard alone (``early<t>``), at horizon ``0..horizon``.

    Splitting a rule body by ``T < t`` and ``T >= t`` is an HT-equivalence,
    so ``plain`` and ``guarded<t>`` are strongly equivalent under every
    statement.  ``early<t>`` drops the instances with ``T >= t``; those are
    vacuous exactly when ``t >= horizon`` (the head would leave the range),
    so ``plain`` and ``early<t>`` are strongly equivalent iff ``t >= horizon``.
    Statement ``onlyon`` makes ``on`` intensional everywhere and ``non`` an
    input."""
    rng = random.Random(f"rewrite/{seed}/{horizon}/{thresholds}")
    (block,) = _names(rng, "blk", 1)
    loc1, loc2 = _names(rng, "loc", 2)
    non, on = _names(rng, "p", 2)
    inertia = f"{on}(B,L,T+1) :- {on}(B,L,T), not {non}(B,L,T+1)"
    groups = [_group("plain", [f"{inertia}."])]
    for t in thresholds:
        guarded = [f"{inertia}, T < {t}.", f"{inertia}, T >= {t}."]
        groups.append(_group(f"guarded{t}", _shuffled(rng, guarded)))
        groups.append(_group(f"early{t}", [f"{inertia}, T < {t}."]))
    text = "\n".join(
        [
            f"% inertia rule against threshold rewrites, horizon 0..{horizon}, seed {seed}",
            "sort block.",
            "sort loc.",
            f"int range 0..{horizon}.",
            f"domain block = {{{block}}}.",
            f"domain loc = {{{', '.join(_shuffled(rng, [loc1, loc2]))}}}.",
            f"pred {on}(block, loc, int).",
            f"pred {non}(block, loc, int).",
            *groups,
            f"#intensional {on}(B,L,T) : T != 0.",
            f"#intensional {non}(B,L,T) : #true.",
            f"#part onlyon {{ {on}(B,L,T) : #true }}.",
            "",
        ]
    )
    return Instance(f"rewrite-{horizon}", text, {"horizon": horizon, "thresholds": thresholds})


def selftest_seed(seed: int) -> int:
    """The ``selftest`` seed for a workload seed."""
    return random.Random(f"selftest/{seed}").randrange(1 << 30)
