"""Helpers the tests share that are not part of the library: they read its
results, and no program path calls them."""

from xorgames.merp import _matmul, merp_observable


def observables_pairwise_commute(thetas, tol: float = 1e-12) -> bool:
    """Check M(t1)M(t2)M(t3)M(t4) == M(t3)M(t4)M(t1)M(t2) numerically.

    Holds for every angle tuple: products of two conjugated-X observables
    commute with each other, which is what lets a shared-phase strategy
    satisfy the quotient relations the decider works in.
    """
    m1, m2, m3, m4 = (merp_observable(t) for t in thetas)
    lhs = _matmul(_matmul(_matmul(m1, m2), m3), m4)
    rhs = _matmul(_matmul(_matmul(m3, m4), m1), m2)
    return all(abs(x - y) <= tol for lr, rr in zip(lhs, rhs) for x, y in zip(lr, rr))


def commutator_entry_letters(entry) -> tuple[int, ...]:
    """The one-player word conj . [pair1, pair2] . conj^-1 that an entry of
    `decompose_pair_commutators` stands for."""
    a, b = entry.pair1
    c, d = entry.pair2
    return entry.conj + (a, b, c, d, b, a, d, c) + entry.conj[::-1]
