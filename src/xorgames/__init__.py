"""Deciders and verifiable certificates for perfect XOR-game strategies."""

from .decider import (
    DecisionOutcome,
    check_obstruction,
    decide,
    incidence_matrix,
    witness_clause_word,
)
from .games import (
    Clause,
    Game,
    GameFormatError,
    generate_random_game,
    make_game,
    parse_game,
    serialize_json,
    serialize_text,
)
from .graphs import (
    ClauseHypergraph,
    ComponentGame,
    PairGraph,
    build_hypergraph,
    decompose_components,
    gadget_word,
    hyperedge_path,
)
from .intlinalg import (
    IntMatrix,
    SmithDecomposition,
    smith_normal_form,
    solve_mod2_over_rationals,
)
from .merp import (
    MerpStrategy,
    StrategyValue,
    simulate_merp_value,
    solve_merp,
    verify_merp_symbolic,
)
from .oracle import ClassicalResult, classical_value
from .refutation import (
    Homomorphisms,
    RefutationCertificate,
    WordLengthCapExceeded,
    construct_sigma_word,
    decompose_pair_commutators,
    refute,
)
from .words import (
    GroupWord,
    abelianizes_to_sign,
    commutator,
    inverse,
    is_parity_trivial,
    multiply,
    reduce_clause_word,
)

__all__ = [name for name in dir() if not name.startswith("_")]
