import random

import pytest

from xorgames.games import generate_random_game, parse_text
from xorgames.words import (
    GroupWord,
    commutator,
    inverse,
    is_parity_trivial,
    multiply,
    reduce_clause_word,
    reduce_letters,
)

from helpers import canon_letters, identity_word

GHZ = parse_text("1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1")
PAIR = parse_text("1 1 1 0\n1 1 1 1")


def random_word(rng, players=3, alphabet=3, max_len=6):
    seqs = tuple(
        tuple(rng.randrange(alphabet) for _ in range(rng.randrange(max_len + 1)))
        for _ in range(players)
    )
    return GroupWord(seqs, rng.randrange(2))


def test_normal_form_reduces_on_construction():
    w = GroupWord(((0, 0, 1), (2, 2), ()), 1)
    assert w.per_player == ((1,), (), ())
    assert w.sigma == 1


def test_one_clause_word():
    w = reduce_clause_word(GHZ, (1,))
    assert w.per_player == ((0,), (1,), (1,))
    assert w.sigma == 1
    w0 = reduce_clause_word(GHZ, (0,))
    assert w0.per_player == ((0,), (0,), (0,))
    assert w0.sigma == 0
    with pytest.raises(IndexError):
        reduce_clause_word(GHZ, (4,))


def test_clauses_are_involutions():
    for i in range(GHZ.num_clauses):
        w = reduce_clause_word(GHZ, (i,))
        assert multiply(w, w) == identity_word(3)


def test_free_product_cancellation():
    a = GroupWord(((0, 1), (), ()))
    b = GroupWord(((1, 0), (), ()))
    assert multiply(a, b) == identity_word(3)


def test_pair_of_contradictory_clauses_is_sigma():
    h0 = reduce_clause_word(PAIR, (0,))
    h1 = reduce_clause_word(PAIR, (1,))
    assert multiply(h0, h1) == GroupWord.sign(3)


def test_multiply_laws_randomized():
    rng = random.Random(11)
    e = identity_word(3)
    for _ in range(200):
        a, b, c = (random_word(rng) for _ in range(3))
        assert multiply(a, e) == a
        assert multiply(e, a) == a
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, inverse(a)) == e


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(identity_word(3), identity_word(2))


def test_projections_are_homomorphisms():
    rng = random.Random(5)
    for _ in range(200):
        a, b = random_word(rng), random_word(rng)
        ab = multiply(a, b)
        for alpha in range(3):
            assert ab.per_player[alpha] == reduce_letters(a.per_player[alpha] + b.per_player[alpha])
        assert ab.sigma == a.sigma ^ b.sigma


def test_projection_of_clause_word():
    w = reduce_clause_word(GHZ, (1,))  # (1,2,2|1)
    assert w.per_player[0] == (0,)
    assert GroupWord.sign(3).sigma == 1
    assert GroupWord.sign(3).per_player == ((), (), ())


def test_player_decomposition():
    rng = random.Random(3)
    for _ in range(100):
        w = random_word(rng)
        prod = identity_word(3)
        for alpha in range(3):
            only = tuple(seq if a == alpha else () for a, seq in enumerate(w.per_player))
            prod = multiply(prod, GroupWord(only))
        prod = multiply(prod, GroupWord(((), (), ()), w.sigma))
        assert prod == w


def test_reduce_clause_word():
    assert reduce_clause_word(GHZ, ()) == identity_word(3)
    assert reduce_clause_word(PAIR, (0, 1)) == GroupWord.sign(3)
    assert reduce_clause_word(GHZ, (2, 2)) == identity_word(3)
    with pytest.raises(IndexError):
        reduce_clause_word(GHZ, (9,))
    with pytest.raises(IndexError):
        reduce_clause_word(GHZ, (0, -1))



def reference_reduce_clause_word(game, cw):
    """The per-clause stack that reduced clause words before they streamed
    through reduce_letters: one push or pop per player per clause."""
    seqs = [[] for _ in range(game.players)]
    sigma = 0
    for i in cw:
        if not 0 <= i < game.num_clauses:
            raise IndexError(f"clause index {i} out of range")
        c = game.clauses[i]
        for a, q in enumerate(c.questions):
            seq = seqs[a]
            if seq and seq[-1] == q:
                seq.pop()
            else:
                seq.append(q)
        sigma ^= c.parity
    return GroupWord(tuple(tuple(s) for s in seqs), sigma)


def test_reduce_clause_word_matches_per_clause_stack():
    rng = random.Random(409)
    for _ in range(60):
        game = generate_random_game(
            rng.randrange(2, 6), rng.randrange(1, 4), rng.randrange(1, 9), rng.randrange(10**6)
        )
        cw = tuple(rng.randrange(game.num_clauses) for _ in range(rng.randrange(2001)))
        assert reduce_clause_word(game, cw) == reference_reduce_clause_word(game, cw)


@pytest.mark.parametrize("bad", [4, -1])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_reduce_clause_word_rejects_out_of_range_anywhere(bad, where):
    # An adjacent pair of the same bad index must raise too: the range
    # check runs before adjacent equal clauses cancel.
    for copies in (1, 2):
        cw = list((0, 1, 2, 3, 2, 1))
        cw[where:where] = [bad] * copies
        with pytest.raises(IndexError):
            reduce_clause_word(GHZ, tuple(cw))


def test_reduce_letters_edge_cases():
    assert reduce_letters(()) == ()
    assert reduce_letters((7,)) == (7,)
    assert reduce_letters((7, 7)) == ()
    assert reduce_letters(x for x in (1, 2, 2, 1, 3)) == (3,)
    assert reduce_letters(iter([0, 0, 0])) == (0,)
    assert reduce_letters((1, 2, 1, 2)) == (1, 2, 1, 2)


def nested_clause_word(rng, m, depth):
    """A clause word over range(m) built so that much of it cancels at the
    clause level, to varying depths: mirrored pairs, palindromes around a
    letter, and a piece repeated on both sides of a core."""
    def piece(k):
        return tuple(rng.randrange(m) for _ in range(rng.randrange(k)))

    if depth == 0:
        return piece(5)
    core = nested_clause_word(rng, m, depth - 1)
    u = piece(6)
    kind = rng.randrange(5)
    if kind == 0:
        return u + core + core[::-1] + u[::-1]
    if kind == 1:
        return u + (rng.randrange(m),) + u[::-1]
    if kind == 2:
        r = rng.randrange(1, 4)
        return u * r + core + u[::-1] * r
    if kind == 3:
        return core + u + core[::-1]
    return piece(3) + core + piece(3)


def test_cancelling_clauses_never_changes_the_product():
    rng = random.Random(1409)
    for trial in range(120):
        game = generate_random_game(
            rng.randrange(2, 6), rng.randrange(1, 5), rng.randrange(1, 9), rng.randrange(10**6)
        )
        m = game.num_clauses
        cw = nested_clause_word(rng, m, rng.randrange(1, 7))
        if trial % 10 == 0:  # long words: a nested piece repeated around a core
            block = nested_clause_word(rng, m, 3) or (0,)
            reps = 10**4 // len(block) + 1
            cw = block * reps + cw + block[::-1] * (reps - rng.randrange(2))
            assert len(cw) > 10**4
        expected = reference_reduce_clause_word(game, cw)
        assert reduce_clause_word(game, cw) == expected
        assert reduce_clause_word(game, reduce_letters(cw)) == expected


def test_normal_forms_multiply_to_the_normal_form_of_the_concatenation():
    # Normal forms are unique, so a word grown piece by piece can carry its
    # normal form instead of reducing the whole word again.
    rng = random.Random(211)
    for _ in range(300):
        game = generate_random_game(
            rng.randrange(2, 6), rng.randrange(1, 5), rng.randrange(1, 9), rng.randrange(10**6)
        )
        a, b = (
            tuple(rng.randrange(game.num_clauses) for _ in range(rng.randrange(16)))
            for _ in range(2)
        )
        assert multiply(reduce_clause_word(game, a), reduce_clause_word(game, b)) == (
            reduce_clause_word(game, a + b)
        )


def test_clause_word_inverse():
    w = (0, 1, 2)
    assert w[::-1] == (2, 1, 0)
    assert reduce_clause_word(GHZ, w + w[::-1]) == identity_word(3)
    assert reduce_clause_word(GHZ, w[::-1]) == inverse(reduce_clause_word(GHZ, w))


def test_clause_word_commutator():
    a, b = (0, 1), (2,)
    assert commutator(a, b) == (0, 1, 2, 1, 0, 2)
    ra, rb = reduce_clause_word(GHZ, a), reduce_clause_word(GHZ, b)
    expected = multiply(multiply(ra, rb), multiply(inverse(ra), inverse(rb)))
    assert reduce_clause_word(GHZ, commutator(a, b)) == expected


def test_clause_word_per_player_parity():
    # Reduction preserves per-player letter parity, so an odd product of
    # clauses keeps an odd (hence nonempty) letter count for every player
    # and can never equal the bare sign element.
    rng = random.Random(17)
    for _ in range(150):
        length = rng.randrange(1, 8)
        cw = tuple(rng.randrange(4) for _ in range(length))
        red = reduce_clause_word(GHZ, cw)
        for alpha in range(3):
            assert len(red.per_player[alpha]) % 2 == length % 2


# canonical form ---------------------------------------------------------

LETTERS = {ch: i for i, ch in enumerate("abcdefghijklmnopqrstuvwxyz")}


def to_letters(s):
    return tuple(LETTERS[ch] for ch in s)


def test_canon_worked_example():
    # zgabcdefzz: even part gbdfz, odd part zacez; z cancels across, leaving
    # evQ = gbdf and oddQ = zace; sorted and recombined odd-first: abcdefzg.
    assert canon_letters(to_letters("zgabcdefzz")) == to_letters("abcdefzg")


def test_canon_idempotent():
    rng = random.Random(23)
    for _ in range(300):
        letters = [rng.randrange(5) for _ in range(rng.randrange(3, 10))]
        once = canon_letters(letters)
        assert canon_letters(once) == once


def parity_preserving_shuffle(rng, letters, swaps=6):
    letters = list(letters)
    for _ in range(swaps):
        if len(letters) < 3:
            break
        j = rng.randrange(len(letters) - 2)
        letters[j], letters[j + 2] = letters[j + 2], letters[j]
    return letters


def test_canon_invariant_under_parity_transpositions():
    rng = random.Random(29)
    for _ in range(500):
        letters = [rng.randrange(4) for _ in range(rng.randrange(3, 9))]
        shuffled = parity_preserving_shuffle(rng, letters)
        assert canon_letters(letters) == canon_letters(shuffled)


def test_canon_exhaustive_parity_orbits():
    # All parity-preserving permutations of short words agree on canon.
    from itertools import permutations

    rng = random.Random(31)
    for _ in range(30):
        n = rng.randrange(3, 7)
        letters = [rng.randrange(3) for _ in range(n)]
        base = canon_letters(letters)
        odd = [i for i in range(n) if i % 2 == 0]
        even = [i for i in range(n) if i % 2 == 1]
        for podd in permutations(odd):
            for peven in permutations(even):
                perm = [0] * n
                for src, dst in zip(odd, podd):
                    perm[dst] = letters[src]
                for src, dst in zip(even, peven):
                    perm[dst] = letters[src]
                assert canon_letters(perm) == base


def test_canon_word_api():
    # A one-player word's class is read off its letters; the sign bit plays
    # no part. Odd positions 2, 1 sort to 1, 2 around the even 0.
    w = GroupWord(((), (2, 0, 1), ()), 1)
    assert canon_letters(w.per_player[1]) == (1, 0, 2)


def test_parity_trivial():
    assert is_parity_trivial(())
    assert is_parity_trivial((0, 1, 1, 0))
    assert not is_parity_trivial((0, 1))
    assert not is_parity_trivial((0, 1, 0, 1))
    # Commutator of two pairs: a b c a b c with pairs (a,b),(c,b).
    assert is_parity_trivial((0, 1, 2, 0, 1, 2))


def test_parity_trivial_matches_canonical_form():
    # Against the reference canonical form: the word is parity-trivial
    # exactly when its canonical form is empty. Every other word is built
    # parity-trivial (one multiset on the odd and on the even positions).
    rng = random.Random(37)
    trivial = 0
    for n in range(20000):
        if n % 2:
            half = [rng.randrange(1, 5) for _ in range(rng.randrange(7))]
            odd, even = half[:], half[:]
            rng.shuffle(odd)
            rng.shuffle(even)
            letters = tuple(x for pair in zip(odd, even) for x in pair)
        else:
            letters = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(14)))
        assert is_parity_trivial(letters) == (not canon_letters(letters)), letters
        trivial += is_parity_trivial(letters)
    assert trivial >= 10000
