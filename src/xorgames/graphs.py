"""Clause hypergraph, induced pair multigraphs, components, and gadget words.

Vertices are (player, question) generators; every clause is a hyperedge
through one vertex per player, and the induced graph on two players is a
bipartite multigraph with one edge per clause. Connectivity splits a game
into independent subgames. The spanning-tree path words and the kept-pair
gadget subsequences built here are the raw material of the constructive
refutation pipeline.

All structures are deterministic: components are numbered by their smallest
vertex, representatives are the smallest-index question on the far side,
BFS explores neighbours ordered by (question index, clause index), and
hyperedge paths are minimal length by BFS over clauses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .games import Clause, Game

Vertex = tuple[int, int]  # (player, question), 0-based


@dataclass(frozen=True)
class ClauseHypergraph:
    game: Game
    component_id: dict[Vertex, int]

    def clause_component(self, i: int) -> int:
        return self.component_id[(0, self.game.clauses[i].questions[0])]

    def is_connected(self) -> bool:
        """Every clause sits in one component; isolated (never-asked)
        vertices don't count, they can be dropped from the game group."""
        comps = {self.clause_component(i) for i in range(self.game.num_clauses)}
        return len(comps) == 1


def _components(vertices, edges) -> dict[Vertex, int]:
    """Union-find labelling of the vertices joined by the edges, each an
    iterable of vertices; components are numbered by their smallest vertex."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    for first, *rest in edges:
        root = find(first)
        for v in rest:
            parent[find(v)] = root
    number: dict[Vertex, int] = {}
    return {v: number.setdefault(find(v), len(number)) for v in sorted(parent)}


def build_hypergraph(game: Game) -> ClauseHypergraph:
    component_id = _components(
        ((a, q) for a in range(game.players) for q in range(game.alphabet)),
        (enumerate(c.questions) for c in game.clauses),
    )
    return ClauseHypergraph(game=game, component_id=component_id)


@dataclass(frozen=True)
class ComponentGame:
    """One connected piece, with its map back to the original clauses."""

    game: Game
    clause_map: tuple[int, ...]  # new clause index -> original clause index

    def lift(self, num_clauses: int, z, sigma_word=()) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A certificate of this component in the original clause indices:
        z padded with zeros off the component, and sigma_word mapped back."""
        full = [0] * num_clauses
        for i, zi in zip(self.clause_map, z, strict=True):
            full[i] = zi
        return tuple(full), tuple(self.clause_map[i] for i in sigma_word)


def decompose_components(game: Game) -> list[ComponentGame]:
    """Partition the clause multiset by hypergraph component and re-compact
    question indices per player; unused questions are dropped."""
    hg = build_hypergraph(game)
    by_comp: dict[int, list[int]] = {}
    for i in range(game.num_clauses):
        by_comp.setdefault(hg.clause_component(i), []).append(i)
    out = []
    for comp in sorted(by_comp):
        indices = by_comp[comp]
        used = [sorted({game.clauses[i].questions[a] for i in indices})
                for a in range(game.players)]
        remap = [{q: j for j, q in enumerate(qs)} for qs in used]
        alphabet = max(len(qs) for qs in used)
        clauses = tuple(
            Clause(
                tuple(remap[a][q] for a, q in enumerate(game.clauses[i].questions)),
                game.clauses[i].parity,
            )
            for i in indices
        )
        out.append(
            ComponentGame(
                game=Game(players=game.players, alphabet=alphabet, clauses=clauses),
                clause_map=tuple(indices),
            )
        )
    return out


class PairGraph:
    """Induced bipartite multigraph on two players with spanning-tree paths.

    One representative vertex is fixed per component, always on the `beta`
    side (smallest question index there); `paths` holds the clause sequence
    of every vertex's tree path to it. Paths from an alpha-side vertex have
    odd clause count, from a beta-side vertex even.
    """

    def __init__(self, game: Game, alpha: int, beta: int):
        if alpha == beta:
            raise ValueError("need two distinct players")
        self.game = game
        self.alpha = alpha
        self.beta = beta
        vertices = [(side, q) for side in (alpha, beta) for q in range(game.alphabet)]
        edges = [((alpha, c.questions[alpha]), (beta, c.questions[beta])) for c in game.clauses]
        self.component_id = _components(vertices, edges)

        self.representative: dict[int, Vertex] = {}
        for v in sorted(vertices):
            c = self.component_id[v]
            if c not in self.representative and v[0] == beta:
                self.representative[c] = v

        adj: dict[Vertex, list[tuple[Vertex, int]]] = {v: [] for v in vertices}
        for i, (va, vb) in enumerate(edges):
            adj[va].append((vb, i))
            adj[vb].append((va, i))
        for v in adj:
            adj[v].sort(key=lambda e: (e[0][1], e[1]))
        # BFS trees rooted at the representatives: the path of w is the
        # edge to its parent followed by the parent's path.
        self.paths: dict[Vertex, tuple[int, ...]] = {}
        for rep in self.representative.values():
            queue = deque([rep])
            self.paths[rep] = ()
            while queue:
                v = queue.popleft()
                for w, i in adj[v]:
                    if w not in self.paths:
                        self.paths[w] = (i,) + self.paths[v]
                        queue.append(w)

    def rep_of(self, v: Vertex) -> Vertex:
        """Component representative (beta side) of an alpha- or beta-vertex."""
        if v not in self.component_id:
            raise KeyError(f"unknown vertex {v}")
        comp = self.component_id[v]
        if comp not in self.representative:
            raise KeyError(f"component of {v} has no {self.beta}-side vertex")
        return self.representative[comp]

    def path_word(self, v: Vertex) -> tuple[int, ...]:
        """Tree path from v to its representative as a clause sequence.

        The reduced word projects to v's letter on v's own side and to the
        representative's letter on the other side, interior letters
        cancelling in adjacent pairs.
        """
        self.rep_of(v)
        return self.paths[v]


def hyperedge_path(game: Game, start: Vertex, goal: Vertex) -> tuple[int, ...]:
    """Minimal-length clause sequence connecting two vertices: the first
    clause contains start, the last contains goal, and consecutive clauses
    share a vertex. Empty iff start == goal."""
    if start == goal:
        return ()

    by_vertex: dict[Vertex, list[int]] = {}
    for i, c in enumerate(game.clauses):
        for v in enumerate(c.questions):
            by_vertex.setdefault(v, []).append(i)
    prev: dict[int, int | None] = dict.fromkeys(by_vertex.get(start, []))
    queue = deque(prev)
    # The goal is tested on dequeue: the queue keeps discovery order, so the
    # first goal clause dequeued is the first discovered, its path fixed then.
    while queue:
        i = queue.popleft()
        if game.clauses[i].questions[goal[0]] == goal[1]:
            break
        # Neighbours are listed only for the clauses the search reaches.
        for j in sorted({j for v in enumerate(game.clauses[i].questions)
                         for j in by_vertex[v] if j != i}):
            if j not in prev:
                prev[j] = i
                queue.append(j)
    else:
        raise ValueError(f"no path between {start} and {goal}")
    path = []
    cur: int | None = i
    while cur is not None:
        path.append(cur)
        cur = prev[cur]
    return tuple(reversed(path))


def gadget_words(game: Game, pg: PairGraph, questions) -> dict[int, tuple[int, ...]]:
    """Gadget word of each third-player question relative to pg = PairGraph(2, beta).

    Walks the minimal hyperedge path from the question's pair-graph
    representative to the smallest question asked of player beta and keeps,
    as a clause word, the adjacent pairs that agree on the other player of
    {1, 2}; minimality makes the kept pairs disjoint. The word is built once
    per representative. The game must be connected, which `Homomorphisms`
    checks once per game."""
    if pg.alpha != 2 or pg.beta not in (0, 1):
        raise ValueError("gadgets pair player 3 with player 1 or 2")
    other = 1 - pg.beta
    target = (pg.beta, min(c.questions[pg.beta] for c in game.clauses))
    reps = {q: pg.rep_of((pg.alpha, q)) for q in questions}
    words = {}
    for rep in dict.fromkeys(reps.values()):
        path = hyperedge_path(game, rep, target)
        kept = []
        r = 0
        while r + 1 < len(path):
            i, j = path[r], path[r + 1]
            if game.clauses[i].questions[other] == game.clauses[j].questions[other]:
                kept += (i, j)
                r += 2
            else:
                r += 1
        words[rep] = tuple(kept)
    return {q: words[rep] for q, rep in reps.items()}


def hypergraph_dot(game: Game) -> str:
    """DOT rendering with clauses star-expanded into their own nodes."""
    lines = ["graph clauses {", "  node [shape=circle];"]
    hg = build_hypergraph(game)
    for a in range(game.players):
        for q in range(game.alphabet):
            comp = hg.component_id[(a, q)]
            lines.append(f'  "x{q + 1}^({a + 1})" [tooltip="component {comp}"];')
    lines.append("  node [shape=point];")
    for i, c in enumerate(game.clauses):
        lines.append(f'  "h{i + 1}" [xlabel="h{i + 1}"];')
        for a, q in enumerate(c.questions):
            lines.append(f'  "h{i + 1}" -- "x{q + 1}^({a + 1})";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def pair_graph_dot(pg: PairGraph) -> str:
    """DOT rendering of a pair multigraph; representatives are colored and
    spanning-tree edges highlighted."""
    game = pg.game
    reps = set(pg.representative.values())
    tree_edges = {path[0] for path in pg.paths.values() if path}
    lines = ["graph pair {", "  node [shape=circle];"]
    for side in (pg.alpha, pg.beta):
        for q in range(game.alphabet):
            v = (side, q)
            color = ' color=red' if v in reps else ""
            lines.append(
                f'  "x{q + 1}^({side + 1})"'
                f' [tooltip="component {pg.component_id[v]}"{color}];'
            )
    for i, c in enumerate(game.clauses):
        va, vb = (pg.alpha, c.questions[pg.alpha]), (pg.beta, c.questions[pg.beta])
        attr = ' [color=blue]' if i in tree_edges else ""
        lines.append(
            f'  "x{va[1] + 1}^({va[0] + 1})" -- "x{vb[1] + 1}^({vb[0] + 1})"{attr};'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
