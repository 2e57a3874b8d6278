import random

import pytest

from xorgames.games import parse_text
from xorgames.graphs import (
    PairGraph,
    build_hypergraph,
    decompose_components,
    gadget_word,
    hyperedge_path,
    hypergraph_dot,
    pair_graph_dot,
)
from xorgames.refutation import Homomorphisms
from xorgames.words import reduce_clause_word

# 11-clause alphabet-6 sample: one connected hypergraph whose induced
# two-player graphs split into three components each.
SAMPLE_A = parse_text(
    """
    1 1 1 0
    1 2 1 0
    2 2 2 0
    1 3 3 0
    2 3 4 0
    3 4 4 0
    4 4 3 0
    5 4 4 0
    5 6 5 0
    5 5 5 0
    6 6 6 0
    """
)

# Variant used for the gadget walkthrough (differs in two clauses).
SAMPLE_B = parse_text(
    """
    1 1 1 0
    1 2 1 0
    1 3 3 0
    2 2 2 0
    2 3 4 0
    3 4 4 0
    4 4 3 0
    5 4 4 0
    5 6 5 0
    5 5 5 0
    6 6 6 0
    """
)

GHZ = parse_text("1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1")


def test_sample_hypergraph_connected():
    hg = build_hypergraph(SAMPLE_A)
    assert len(set(hg.component_id.values())) == 1
    assert hg.is_connected()


def test_sample_pair_graph_23_matches_edge_list():
    pg = PairGraph(SAMPLE_A, 1, 2)
    edges = sorted(
        (c.questions[1] + 1, c.questions[2] + 1) for c in SAMPLE_A.clauses
    )
    assert edges == sorted(
        [(1, 1), (2, 1), (2, 2), (3, 3), (3, 4), (4, 4), (4, 3), (4, 4), (6, 5), (5, 5), (6, 6)]
    )
    assert len(set(pg.component_id.values())) == 3


def test_sample_pair_component_grouping():
    # The middle component of the induced (2,3) graph carries exactly the
    # clauses whose questions to players 2 and 3 sit in {3, 4}.
    pg = PairGraph(SAMPLE_A, 1, 2)
    comp = pg.component_id[(1, 2)]  # player 2, question 3
    members = [
        i
        for i, c in enumerate(SAMPLE_A.clauses)
        if pg.component_id[(1, c.questions[1])] == comp
    ]
    assert members == [3, 4, 5, 6, 7]


def test_single_clause_components():
    game = parse_text("# alphabet: 3\n1 1 1 0")
    hg = build_hypergraph(game)
    # one clause component plus (N-1)*k isolated vertices
    assert len(set(hg.component_id.values())) == 1 + 2 * 3
    comps = decompose_components(game)
    assert len(comps) == 1
    assert comps[0].game.alphabet == 1


def test_decompose_connected_game_is_identity_up_to_compaction():
    comps = decompose_components(GHZ)
    assert len(comps) == 1
    assert comps[0].game == GHZ
    assert comps[0].clause_map == (0, 1, 2, 3)


def test_decompose_two_disjoint_copies():
    text = (
        "1 1 1 0\n1 2 2 1\n2 1 2 1\n2 2 1 1\n"
        "3 3 3 0\n3 4 4 1\n4 3 4 1\n4 4 3 1\n"
    )
    game = parse_text(text)
    comps = decompose_components(game)
    assert len(comps) == 2
    assert comps[0].game == comps[1].game == GHZ
    assert comps[0].clause_map == (0, 1, 2, 3)
    assert comps[1].clause_map == (4, 5, 6, 7)
    # The second copy asks questions 3 and 4 (0-based 2 and 3) of every
    # player; they are relabelled 0 and 1 in sorted order.
    for j, orig in enumerate(comps[1].clause_map):
        old = game.clauses[orig].questions
        assert comps[1].game.clauses[j].questions == tuple(q - 2 for q in old)
        assert all(q in (2, 3) for q in old)


def test_decompose_preserves_clause_multiset():
    rng = random.Random(73)
    from xorgames.games import generate_random_game

    for _ in range(50):
        game = generate_random_game(3, 4, 6, seed=rng.randrange(10**6))
        comps = decompose_components(game)
        seen = sorted(i for comp in comps for i in comp.clause_map)
        assert seen == list(range(game.num_clauses))
        for comp in comps:
            # Each player's asked questions, relabelled in sorted order.
            asked = [sorted({game.clauses[i].questions[a] for i in comp.clause_map})
                     for a in range(3)]
            assert comp.game.alphabet == max(map(len, asked))
            for j, orig in enumerate(comp.clause_map):
                new_c = comp.game.clauses[j]
                old_c = game.clauses[orig]
                assert new_c.parity == old_c.parity
                for a in range(3):
                    assert new_c.questions[a] == asked[a].index(old_c.questions[a])


def test_decompose_matches_networkx_components():
    nx = pytest.importorskip("networkx")
    from xorgames.games import generate_random_game

    rng = random.Random(307)
    split = 0
    for _ in range(100):
        k = rng.randrange(2, 6)
        game = generate_random_game(
            k, rng.randrange(2, 7), rng.randrange(1, 9), rng.randrange(10**6)
        )
        graph = nx.Graph()
        for i, c in enumerate(game.clauses):
            graph.add_edges_from((("clause", i), (a, q)) for a, q in enumerate(c.questions))
        expected = sorted(
            (
                min(v for v in comp if v[0] != "clause"),
                [i for _, i in sorted(v for v in comp if v[0] == "clause")],
            )
            for comp in nx.connected_components(graph)
        )
        assert [list(comp.clause_map) for comp in decompose_components(game)] == [
            clauses for _, clauses in expected
        ]
        split += len(expected) > 1
    assert split >= 20



def networkx_labels(nx, vertices, edges):
    """Component ids numbered by smallest vertex, as networkx finds them."""
    graph = nx.Graph()
    graph.add_nodes_from(vertices)
    for edge in edges:
        graph.add_edges_from(zip(edge, edge[1:]))
    comps = sorted(sorted(comp) for comp in nx.connected_components(graph))
    return {v: n for n, comp in enumerate(comps) for v in comp}, comps


def test_component_labels_match_networkx():
    nx = pytest.importorskip("networkx")
    from xorgames.games import generate_random_game

    rng = random.Random(311)
    for _ in range(100):
        k = rng.randrange(2, 6)
        game = generate_random_game(
            k, rng.randrange(2, 7), rng.randrange(1, 9), rng.randrange(10**6)
        )
        vertices = [(a, q) for a in range(k) for q in range(game.alphabet)]
        edges = [tuple(enumerate(c.questions)) for c in game.clauses]
        expected, comps = networkx_labels(nx, vertices, edges)
        hg = build_hypergraph(game)
        assert hg.component_id == expected  # never-asked vertices included
        assert len(set(hg.component_id.values())) == len(comps)
        if k != 3:
            continue
        for alpha in range(3):
            for beta in range(3):
                if alpha == beta:
                    continue
                pg = PairGraph(game, alpha, beta)
                expected, comps = networkx_labels(
                    nx,
                    [(side, q) for side in (alpha, beta) for q in range(game.alphabet)],
                    [((alpha, c.questions[alpha]), (beta, c.questions[beta]))
                     for c in game.clauses],
                )
                assert pg.component_id == expected
                assert len(set(pg.component_id.values())) == len(comps)
                assert pg.representative == {
                    n: min(v for v in comp if v[0] == beta)
                    for n, comp in enumerate(comps) if any(v[0] == beta for v in comp)
                }


def test_two_disjoint_clauses_make_two_components():
    game = parse_text("1 1 1 0\n2 2 2 0")
    hg = build_hypergraph(game)
    assert hg.clause_component(0) != hg.clause_component(1)
    assert len(decompose_components(game)) == 2


def test_path_word_of_representative_is_empty():
    pg = PairGraph(GHZ, 0, 1)
    rep = pg.representative[pg.component_id[(1, 0)]]
    assert len(pg.path_word(rep)) == 0


def test_three_clause_tree_path():
    # (1,2) multigraph with component {x1,x2 | x1,x2,x3}: the tree path from
    # x2 of player 1 hops x2^(1) - x2^(2) - x1^(1) - x1^(2), three clauses,
    # and reduces to x2^(1) x1^(2) times a player-3 residue.
    game = parse_text(
        "1 1 1 0\n1 2 1 0\n1 3 1 0\n2 2 1 0\n2 3 1 0\n"
        "3 4 1 0\n4 4 1 0\n5 5 1 0\n5 6 1 0\n6 5 1 0\n6 6 1 0"
    )
    pg = PairGraph(game, 0, 1)
    word = pg.path_word((0, 1))
    assert word == (3, 1, 0)
    red = reduce_clause_word(game, word)
    assert red.per_player[0] == (1,)
    assert red.per_player[1] == (0,)


def test_path_word_projections():
    rng = random.Random(79)
    from xorgames.games import generate_random_game

    checked = 0
    for _ in range(60):
        game = generate_random_game(3, 3, 6, seed=rng.randrange(10**6))
        for alpha, beta in ((0, 1), (2, 0), (2, 1)):
            pg = PairGraph(game, alpha, beta)
            for q in range(game.alphabet):
                v = (alpha, q)
                try:
                    rep = pg.rep_of(v)
                except KeyError:
                    continue
                word = pg.path_word(v)
                assert len(word) % 2 == 1  # alpha-to-beta paths are odd
                red = reduce_clause_word(game, word)
                assert red.per_player[alpha] == (q,)
                assert red.per_player[beta] == (rep[1],)
                checked += 1
    assert checked > 100


def test_path_word_parity_matches_bipartition():
    pg = PairGraph(SAMPLE_A, 1, 2)
    for v in pg.component_id:
        try:
            pg.rep_of(v)
        except KeyError:
            continue
        word = pg.path_word(v)
        if v[0] == 1:  # alpha side: odd path unless... always odd
            assert len(word) % 2 == 1
        else:  # beta side: even path (zero for the representative itself)
            assert len(word) % 2 == 0


def test_hyperedge_path_minimality_no_triple_overlap():
    # On a minimal path no vertex is shared by three consecutive clauses,
    # and in particular no two clauses two apart share any vertex.
    rng = random.Random(83)
    from xorgames.games import generate_random_game

    for _ in range(40):
        game = generate_random_game(3, 3, 7, seed=rng.randrange(10**6))
        hg = build_hypergraph(game)
        if not hg.is_connected():
            continue
        for i in (0, game.num_clauses // 2):
            for j in (game.num_clauses - 1, game.num_clauses // 3):
                start = (0, game.clauses[i].questions[0])
                goal = (2, game.clauses[j].questions[2])
                path = hyperedge_path(game, start, goal)
                for r in range(len(path) - 2):
                    va = set(enumerate(game.clauses[path[r]].questions))
                    vc = set(enumerate(game.clauses[path[r + 2]].questions))
                    assert not (va & vc)


def reference_hyperedge_path(game, start, goal):
    """The search with every clause's sorted neighbour list built up front:
    the tables it must agree with, path for path."""
    if start == goal:
        return ()
    by_vertex = {}
    for i, c in enumerate(game.clauses):
        for v in enumerate(c.questions):
            by_vertex.setdefault(v, []).append(i)
    adj = {
        i: sorted({j for v in enumerate(c.questions) for j in by_vertex[v] if j != i})
        for i, c in enumerate(game.clauses)
    }
    sources = [i for i in range(game.num_clauses) if game.clauses[i].questions[start[0]] == start[1]]
    prev = {i: None for i in sources}
    queue = list(sources)
    end = next((i for i in sources if game.clauses[i].questions[goal[0]] == goal[1]), None)
    while queue and end is None:
        i = queue.pop(0)
        for j in adj[i]:
            if j not in prev:
                prev[j] = i
                if game.clauses[j].questions[goal[0]] == goal[1]:
                    end = j
                    break
                queue.append(j)
    path = []
    while end is not None:
        path.append(end)
        end = prev[end]
    return tuple(reversed(path))


def test_hyperedge_path_matches_prebuilt_adjacency():
    from xorgames.games import generate_random_game

    rng = random.Random(401)
    games = pairs = 0
    while games < 100:
        game = generate_random_game(3, rng.randrange(2, 6), rng.randrange(3, 16),
                                    seed=rng.randrange(10**6))
        if not build_hypergraph(game).is_connected():
            continue
        games += 1
        asked = sorted({v for c in game.clauses for v in enumerate(c.questions)})
        for _ in range(4):
            start, goal = rng.choice(asked), rng.choice(asked)
            assert hyperedge_path(game, start, goal) == reference_hyperedge_path(game, start, goal)
            pairs += start != goal
    assert pairs >= 300


def reference_path_words(game, pg):
    """Tree paths by walking BFS parent pointers from each vertex up to its
    representative, with the graph rebuilt here from the clauses."""
    adj = {}
    for i, c in enumerate(game.clauses):
        va, vb = (pg.alpha, c.questions[pg.alpha]), (pg.beta, c.questions[pg.beta])
        adj.setdefault(va, []).append((vb, i))
        adj.setdefault(vb, []).append((va, i))
    parent = {}
    for rep in pg.representative.values():
        queue, seen = [rep], {rep}
        while queue:
            v = queue.pop(0)
            for w, i in sorted(adj.get(v, []), key=lambda e: (e[0][1], e[1])):
                if w not in seen:
                    seen.add(w)
                    parent[w] = (v, i)
                    queue.append(w)
    words = {}
    for v in parent:
        word, cur = [], v
        while cur not in pg.representative.values():
            cur, i = parent[cur]
            word.append(i)
        words[v] = tuple(word)
    return words


def test_path_word_matches_parent_walk():
    from xorgames.games import generate_random_game

    rng = random.Random(409)
    checked = 0
    for _ in range(60):
        game = generate_random_game(3, rng.randrange(2, 6), rng.randrange(2, 14),
                                    seed=rng.randrange(10**6))
        for alpha, beta in ((1, 0), (2, 0), (2, 1), (0, 2)):
            pg = PairGraph(game, alpha, beta)
            expected = reference_path_words(game, pg)
            for v in pg.component_id:
                try:
                    rep = pg.rep_of(v)
                except KeyError:
                    continue
                assert pg.path_word(v) == expected.get(v, ())
                checked += v != rep
    assert checked >= 500


def test_gadget_word_walkthrough():
    # Gadget for question 5 of player 3 against beta = player 2. The
    # representative of x5^(3) is x5^(2), the path target is x1^(2), the
    # minimal hyperedge path is x5x5x5, x5x4x4, x2x3x4, x1x3x3, x1x1x1, and
    # the pairs kept are the two that agree on player 1.
    pg = PairGraph(SAMPLE_B, 2, 1)
    assert pg.rep_of((2, 4)) == (1, 4)
    assert hyperedge_path(SAMPLE_B, (1, 4), (1, 0)) == (9, 7, 4, 2, 0)
    # x5x5x5, x5x4x4, then x1x3x3, x1x1x1; question 5 is 0-based 4
    assert gadget_word(SAMPLE_B, pg, 4) == (9, 7, 2, 0)


def test_gadget_kept_pairs_cancel_on_other_player():
    rng = random.Random(89)
    from xorgames.games import generate_random_game

    checked = 0
    for _ in range(60):
        game = generate_random_game(3, 3, 6, seed=rng.randrange(10**6))
        if not build_hypergraph(game).is_connected():
            continue
        for beta in (0, 1):
            pg = PairGraph(game, 2, beta)
            other = 1 - beta
            for q in sorted({c.questions[2] for c in game.clauses}):
                red = reduce_clause_word(game, gadget_word(game, pg, q))
                assert red.per_player[other] == ()
                checked += 1
    assert checked >= 50


def test_gadget_requires_connected_game():
    # gadget_word takes connectivity as a precondition; the right-inverse
    # tables that call it check it once per game.
    game = parse_text("1 1 1 0\n2 2 2 0")
    with pytest.raises(ValueError):
        Homomorphisms(game)


def test_dot_exports():
    dot = hypergraph_dot(GHZ)
    assert dot.startswith("graph clauses {")
    assert '"x1^(1)"' in dot and '"h4"' in dot
    pdot = pair_graph_dot(PairGraph(GHZ, 1, 2))
    assert "color=red" in pdot and "graph pair {" in pdot
    assert pdot == pair_graph_dot(PairGraph(GHZ, 1, 2))
