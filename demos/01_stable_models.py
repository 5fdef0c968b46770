"""Stable models refined by an intensionality statement.

A statement maps each predicate to a formula over its argument variables.
Where the formula holds, atoms are treated as defined by the theory and are
minimized; everywhere else they behave like inputs with a free choice of
truth value.  This script walks the one-rule example whose statement makes
p(_, 2) defined and p(_, 1) an input.
"""

from htsplit import (
    FiniteInterpretation,
    HTInterpretation,
    em_theory,
    enumerate_lambda_stable_models,
    format_atom_set,
    format_formula,
    ht_satisfies,
    is_lambda_stable,
    parse_problem,
    satisfies,
    theory_sentences,
)

TEXT = """
int range 1..2.
pred p(int, int).

p(X,2) :- p(X,1).

#intensional p(X1,X2) : X2 = 2.
"""


def main() -> None:
    problem = parse_problem(TEXT)
    lam = problem.default_lambda
    domains = problem.domains()

    print("The theory is the single rule:")
    for sentence in theory_sentences(problem.theory()):
        print("   ", format_formula(sentence))

    # em_theory is the formula-level statement; the library grounds excluded
    # middle from the statement's ground region (semantics.ground_region),
    # which agrees with it here because the condition holds no arithmetic
    print("\nIts excluded-middle companion, active only where the statement")
    print("says p is an input (second argument different from 2):")
    for sentence in em_theory(lam):
        print("   ", format_formula(sentence))

    print("\nEnumerating stable models of the rule plus that companion:")
    models = enumerate_lambda_stable_models(problem.theory(), lam, domains)
    for interp in models:
        print("   ", format_atom_set(interp.true_atoms))
    print(f"   ({len(models)} models: a free choice of p(_,1) inputs, with")
    print("    p(_,2) forced exactly where the rule derives it)")

    # the minimality test behind the scenes: shrink the here-world and the
    # two-world satisfaction relation must fail
    interp = models[1]
    sentences = theory_sentences(problem.theory()) + em_theory(lam)
    print(f"\nWhy {format_atom_set(interp.true_atoms)} is stable:")
    print("  it satisfies the theory classically:", satisfies(interp, sentences[0]))
    for atom in sorted(interp.true_atoms):
        here = frozenset(interp.true_atoms - {atom})
        ok = all(ht_satisfies(HTInterpretation(here, interp), s) for s in sentences)
        print(f"  dropping {format_atom_set([atom])} from the here-world keeps it satisfied: {ok}")
    print("  (dropping the input atom violates excluded middle; dropping the")
    print("   derived atom violates the rule in the here-world)")

    # an interpretation with an unsupported defined atom is rejected
    unsupported = FiniteInterpretation.make(
        problem.signature, domains, {("p", (1, 2))}
    )
    print(
        "\nA defined atom with no derivation is never stable:",
        is_lambda_stable(unsupported, problem.theory(), lam),
    )


if __name__ == "__main__":
    main()
