"""Stable models of many-sorted theories refined by intensionality
statements: satisfaction checking, model enumeration, dependency graphs, and
splitting-theorem verification over finite domains."""

from .depgraph import (
    ApproximatorResult,
    DependencyGraph,
    EdgeWitness,
    NegativityResult,
    SatVerdict,
    SeparabilityResult,
    bounded_sat,
    graph_to_dot,
    graph_to_json,
    is_approximator,
    is_negative_program,
    is_psi_negative,
    is_separable,
    program_dep_graph,
    theory_dep_graph,
)
from .engine import ResourceCapExceeded
from .intensionality import (
    IntensionalityStatement,
    Partition,
    equivalent,
    is_purely_extensional,
    is_purely_intensional,
    is_valid_partition,
    join,
    lambda_bot,
    lambda_top,
    meet,
)
from .interpretations import (
    FiniteInterpretation,
    GroundAtom,
    HTInterpretation,
    atom_universe,
    atoms_of,
    format_atom,
    format_atom_set,
)
from .occurrences import (
    Polarity,
    PolarityError,
    classify,
    nnn_formula,
    pnn_formula,
    pos_formula,
    restrict_formula,
)
from .parser import ParseError, ProblemFile, parse_problem, print_problem
from .semantics import (
    StrongEquivalenceResult,
    check_strong_equivalence,
    enumerate_lambda_stable_models,
)
from .splitting import (
    SplitReport,
    VerificationResult,
    check_one_direction,
    check_split_program,
    check_split_theory,
    verify_split,
)
from .syntax import (
    And,
    Atom,
    atom_occurrences,
    BOT,
    Bottom,
    DomainName,
    Equality,
    Exists,
    Forall,
    Formula,
    Func,
    Implies,
    INT_SORT,
    Literal,
    OccurrencePath,
    Or,
    Rule,
    Signature,
    TOP,
    Term,
    Variable,
    conj,
    disj,
    fold_constants,
    format_formula,
    format_rule,
    free_variables,
    iff,
    int_name,
    neg,
    rule_to_sentence,
    rules_of,
    substitute,
    theory_sentences,
)

__version__ = "0.1.0"

# The paper's definitions stay names of the package, but live in
# ``reference``, which no command needs: it is imported at the first use of
# one of them (PEP 562), so ``import htsplit`` does not load it.
_REFERENCE_NAMES = frozenset(
    {
        "all_interpretations",
        "atoms_of_lambda",
        "em_atoms",
        "em_theory",
        "eval_term",
        "grounded_dep_graph",
        "ht_satisfies",
        "is_a_stable",
        "is_lambda_stable",
        "is_stable",
        "nnn_atoms",
        "pnn_atoms",
        "pos_atoms",
        "satisfies",
    }
)


def __getattr__(name: str):
    if name in _REFERENCE_NAMES:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
