"""Deciders and verifiable certificates for perfect XOR-game strategies.
The names in `__all__` load their module on first access, so importing one
module (`xorgames.check`, say) loads only what that module imports."""

import importlib

_EXPORTS = {
    "check": ("CertificateError", "check_certificate", "check_obstruction"),
    "decider": ("DecisionOutcome", "decide", "incidence_matrix", "witness_clause_word"),
    "games": ("Clause", "Game", "GameFormatError", "generate_random_game", "make_game",
              "parse_game", "serialize_json", "serialize_text"),
    "graphs": ("ClauseHypergraph", "ComponentGame", "PairGraph", "build_hypergraph",
               "decompose_components", "gadget_words", "hyperedge_path"),
    "intlinalg": ("IntMatrix", "SmithDecomposition", "smith_normal_form", "solve_mod2_over_rationals"),
    "merp": ("MerpStrategy", "StrategyValue", "simulate_merp_value", "solve_merp", "verify_merp_symbolic"),
    "oracle": ("ClassicalResult", "classical_value"),
    "refutation": ("Homomorphisms", "RefutationCertificate", "WordLengthCapExceeded",
                   "construct_sigma_word", "decompose_pair_commutators", "refute"),
    "words": ("GroupWord", "abelianizes_to_sign", "commutator", "inverse", "is_parity_trivial",
              "multiply", "reduce_clause_word"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    # Not cached here: each access reads the defining module's current binding.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
