"""Exact lottery decomposition and randomized rounding of share matrices.

Two dual tools live here.

``bvn_decompose`` writes a matrix with unit row sums and column sums at most
one as an exact convex combination of assignment matrices (each agent exactly
one good, each good at most one agent).  The pivot is deterministic: find a
matching that saturates every agent (augmenting paths, ascending-index
scans), repair it so that every column whose sum equals the common row sum
stays matched (such columns must lose mass every round or they could never
finish), extract the largest weight that keeps the residual well-shaped, and
subtract.  Each extraction either zeroes an entry or saturates a column, so
the loop terminates with an exact reconstruction.  The column sums, each
row's positive entries (``adj``) and each column's positive entries
(``col_adj``) are kept across terms: a term lowers only its matched
entries and their columns, and drops an entry that reaches 0 from both
lists.  The matching resumes too: each root's search records the columns
it reached, and since the graph only loses edges, a term reruns the search
only from the first root that reached a column along an edge the previous
term removed.  A root whose first positive column is still unmatched takes
it without a search, recording what the search would have reached.  So
every term gets the matching a search from scratch would.  A term skips the
repair when every full column is already matched, and the slack scan when
every column is.

``dependent_round`` rounds a fractional matrix with integral column sums to a
0/1 matrix by randomized pipage: repeatedly pick a cycle (else a maximal
path) in the graph of strictly fractional entries, split its edges into the
two alternating classes, and shift one class up and the other down by the
largest feasible amounts, choosing the direction with odds that keep every
entry a martingale.  Column sums never change (fractional columns always
have two or more fractional entries, so path endpoints are row vertices),
per-entry marginals equal the input, and entries sharing a column are
negatively correlated.  A ``PreparedMatrix`` holds what does not depend on
the seed: the checked, scaled matrix, its column sums and its floating
graph.  A sampler that rounds one matrix with many seeds prepares it once;
``dependent_round`` prepares raw rows itself, and each call pivots on its
own copy of the entries and of the graph.  The graph only loses edges: a
pivot moves only the walk's entries, all fractional, so it drops the walk
edges that reached 0 or 1 and nothing else.  Each vertex maps
its neighbours to the entries of their edges, so a pivot reads its walk's
entries in one pass, takes both shifts from the minimum and maximum of the
two alternating classes, and writes the entries and drops the finished
edges in a second.  One lowest-index depth-first search serves every pivot
of a call (``_walks``): since edges only go, it resumes after each pivot at
the cycle's first vertex instead of restarting from the first agent, and
once no cycle is left it takes each maximal path from the first leaf.
Every walk, draw and output is the one a search from scratch gives.

Both scale their input once (rounding, once per prepared matrix): each
entry is read as an exact rational, its numerator and denominator once, the
matrix is multiplied by D, the LCM of the distinct denominators, and the
pivots run on the resulting ints, where "one" is D.  Only the pivot odds
(reduced, so the random draws are those of the rational odds) and the
emitted term weights are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, cycle
from math import lcm
from operator import add, getitem
from typing import Iterator, Optional, Sequence

from .core import (
    PreconditionError,
    format_rational,
    json_field,
    json_goods,
    parse_exact,
    parse_rational,
    sums_to_one,
)
from .eating import TraceSummary
from .rng import SplitMix64

Matrix = tuple[tuple[Fraction, ...], ...]


def _scaled(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(D, Y) for a rectangular nonempty matrix: D is the LCM of the entries'
    denominators and Y[i][j] = rows[i][j] * D, an int.  Entries parse like
    every other exact value (``parse_exact``), so floats and bools are a
    PreconditionError.  Each entry's (numerator, denominator) is read once,
    and each distinct denominator d costs one D // d."""
    X = [
        [(x if type(x) is Fraction else parse_exact(x)).as_integer_ratio() for x in row]
        for row in rows
    ]
    if not X or any(len(r) != len(X[0]) for r in X):
        raise PreconditionError("matrix must be rectangular and nonempty")
    denominators = {d for row in X for _, d in row}
    D = lcm(*denominators)
    scale = {d: D // d for d in denominators}
    return D, [[p * scale[d] if p else 0 for p, d in row] for row in X]


# ---------------------------------------------------------------------------
# Birkhoff / von Neumann style decomposition


@dataclass(frozen=True)
class Decomposition:
    # each term: (weight, assignment) with assignment[i] = good held by agent i
    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "terms",
            tuple((parse_rational(w), tuple(a)) for w, a in self.terms),
        )
        if any(w <= 0 for w, _ in self.terms):
            raise PreconditionError("term weights must be positive")
        if not sums_to_one([w for w, _ in self.terms]):
            raise PreconditionError("term weights must sum to exactly one")
        for _, assignment in self.terms:
            if len(set(assignment)) != len(assignment):
                raise PreconditionError("a term assigns one good to two agents")

    def reconstruct(self, n: int, m: int) -> Matrix:
        """The n x m share matrix the terms add up to; each term must give
        each of the n agents one of the m goods."""
        for _, assignment in self.terms:
            if len(assignment) != n or not all(type(g) is int and 0 <= g < m for g in assignment):
                raise PreconditionError(f"a term must give each of the {n} agents one of the {m} goods")
        rows = [[Fraction(0)] * m for _ in range(n)]
        for w, assignment in self.terms:
            for i, g in enumerate(assignment):
                rows[i][g] += w
        return tuple(tuple(r) for r in rows)

    def to_json(self) -> dict:
        return {
            "terms": [
                {"weight": format_rational(w), "assignment": list(a)} for w, a in self.terms
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "Decomposition":
        return cls(
            tuple(
                (json_field(t, "weight"), json_goods(json_field(t, "assignment"), "an assignment"))
                for t in json_field(data, "terms", list)
            )
        )


def _kuhn_search(adj: list[list[int]], match_col: dict[int, int], root: int) -> dict[int, int]:
    """Extend the matching `match_col` ({column: row}) to row `root` by the
    first augmenting path in ascending-index order.  The search keeps its own
    stack of (row, column iterator) with the column each row is trying, so
    the length of an augmenting path is not bounded by Python's recursion
    limit.  Returns {column: row} for every column the search reached, with
    the row it reached the column from."""
    reached: dict[int, int] = {}
    stack = [(root, iter(adj[root]))]
    path: list[int] = []  # path[k] is the column stack[k] is trying
    while stack:
        row, cols = stack[-1]
        for g in cols:
            if g not in reached:
                break
        else:
            stack.pop()
            if path:
                path.pop()
            continue
        reached[g] = row
        path.append(g)
        row = match_col.get(g)
        if row is None:
            break
        stack.append((row, iter(adj[row])))
    else:
        raise PreconditionError("no agent-saturating matching: matrix violates its shape preconditions")
    for (row, _), g in zip(stack, path):
        match_col[g] = row
    return reached


def _resume_matching(
    adj: list[list[int]], runs: list[tuple[dict[int, int], dict[int, int]]], start: int
) -> dict[int, int]:
    """The matching {column: row} saturating every row vertex, found by
    ascending-index augmenting paths and rerun only from root `start`;
    `_resume_matching(adj, [], 0)` finds it from scratch.  runs[r] holds
    what root r's search reached and a copy of the matching after it;
    runs[:start] must still hold on `adj`, as they do when `adj` has only
    lost edges since and none of those edges was reached.  The rest of `runs`
    is redone.  Returns a fresh copy of the matching."""
    match_col = dict(runs[start - 1][1]) if start else {}
    del runs[start:]
    for root in range(start, len(adj)):
        row = adj[root]
        if row and row[0] not in match_col:  # the search would take it and reach nothing else
            match_col[row[0]] = root
            runs.append(({row[0]: root}, dict(match_col)))
        else:
            runs.append((_kuhn_search(adj, match_col, root), dict(match_col)))
    return match_col


def _repair_matching(
    col_adj: list[list[int]], match_col: dict[int, int], target: int, protected: set[int]
) -> bool:
    """Try to bring `target` into the matching by flipping an alternating
    path that ends at a droppable (unprotected) matched column.  `col_adj[g]`
    lists, ascending, the rows with a positive entry in column g.  Mutates
    the matching on success.  BFS, lowest-index-first, deterministic."""
    if target in match_col:
        return True
    col_of = {i: g for g, i in match_col.items()}
    parent: dict[int, tuple[int, int]] = {}  # column -> (prev column, row used)
    frontier = [target]
    seen = {target}
    while frontier:
        nxt = []
        for c in frontier:
            for i in col_adj[c]:
                c2 = col_of.get(i)
                if c2 is None or c2 in seen:
                    continue
                parent[c2] = (c, i)
                if c2 not in protected:
                    # flip: every row on the path moves one column toward target
                    moves = []
                    cur = c2
                    while cur != target:
                        prev, row = parent[cur]
                        moves.append((prev, row))
                        cur = prev
                    del match_col[c2]
                    for col, row in moves:
                        match_col[col] = row
                    return True
                seen.add(c2)
                nxt.append(c2)
        frontier = nxt
    return False


def bvn_decompose(rows: Sequence[Sequence[Fraction]]) -> Decomposition:
    """Decompose a unit-row-sum matrix (column sums <= 1) into assignment
    terms with exact weights.  Term count never exceeds the number of nonzero
    entries plus the number of initially unsaturated columns."""
    D, X = _scaled(rows)
    n, m = len(X), len(X[0])
    for i, row in enumerate(X):
        if sum(row) != D:
            raise PreconditionError(f"row {i} must sum to exactly one")
        if min(row) < 0:
            raise PreconditionError("entries must be nonnegative")
    col_sums = list(map(sum, zip(*X)))
    for j, s in enumerate(col_sums):
        if s > D:
            raise PreconditionError(f"column {j} sums above one")

    adj = [[j for j in range(m) if X[i][j] > 0] for i in range(n)]
    col_adj = [[i for i in range(n) if X[i][j] > 0] for j in range(m)]
    runs: list[tuple[dict[int, int], dict[int, int]]] = []
    start = 0
    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    remaining = D
    while remaining > 0:
        full = {j for j, s in enumerate(col_sums) if s == remaining}
        match_col = _resume_matching(adj, runs, start)
        if not full <= match_col.keys():
            for c in sorted(full):
                if not _repair_matching(col_adj, match_col, c, protected=full):
                    raise AssertionError("a saturated column could not be matched")

        # Cap the weight so no unmatched column can outgrow the residual row
        # sum; when the cap binds below the matched entries, force the binding
        # column into the matching if an alternating repair allows it.
        banned: set[int] = set()
        forced = set(full)
        while True:
            entry_min = min([X[i][g] for g, i in match_col.items()])
            slack = {} if len(match_col) == m else {
                j: remaining - col_sums[j]
                for j in range(m)
                if j not in match_col and col_sums[j] > 0
            }
            binding = [j for j, s in sorted(slack.items()) if s < entry_min and j not in banned]
            if not binding:
                weight = min([entry_min] + list(slack.values()))
                break
            c = binding[0]
            if _repair_matching(col_adj, match_col, c, protected=forced):
                forced.add(c)
            else:
                banned.add(c)

        if weight <= 0:  # pragma: no cover - shape invariants forbid this
            raise AssertionError("nonpositive extraction weight")
        vector = [0] * n
        for g, i in match_col.items():
            vector[i] = g
        terms.append((Fraction(weight, D), tuple(vector)))
        # The graph only loses edges, so a root's search runs as before
        # unless it reached a column along an edge this term removes.
        start = n
        for i, g in enumerate(vector):
            row = X[i]
            x = row[g] = row[g] - weight
            col_sums[g] -= weight
            if not x:
                adj[i].remove(g)
                col_adj[g].remove(i)
                for r in range(start):
                    if runs[r][0].get(g) == i:
                        start = r
                        break
        remaining -= weight

    if any(map(any, X)):  # pragma: no cover
        raise AssertionError("decomposition left mass behind")
    return Decomposition(tuple(terms))


# ---------------------------------------------------------------------------
# randomized dependent rounding


def _walks(adj: list[dict[int, int]], n: int) -> Iterator[list[int]]:
    """The walks of successive pivots on the floating graph `adj`, as vertex
    lists: a cycle (its first vertex repeated at the end) while one is
    left, then a maximal path.  Agent i is vertex i and good j is vertex
    n + j, each vertex's neighbours are the keys of its dict in ascending
    order, and scans are lowest-index-first, so the choice is deterministic.
    Between two walks the caller may change the values of the last walk's
    edges and delete some of them, at least one, and nothing else.

    Each walk is the one a lowest-index depth-first search from scratch
    finds.  One search serves the whole call and resumes after each pivot,
    which is exact because the graph only loses edges:
    - A root whose component was explored without a cycle stays acyclic, so
      its vertices stay finished.
    - No walk edge lies on the open path from the root to the junction, the
      cycle's first vertex, nor in a subtree finished off that path before
      the search went on past the junction.  A new search would rebuild that
      path with the same scan positions, so the search resumes at the
      junction with a fresh scan of its neighbours, which skips the
      finished ones as a new scan would after exploring them again.
    - Every vertex opened or finished after the junction's successor on the
      path is forgotten: the pivot may have cut it off into a component
      that a new search enters from another vertex.
    - Once no cycle is left the graph stays a forest.  Each walk starts at
      the first leaf, which integral column sums force to be an agent, and
      takes the lowest neighbour it did not come from."""
    place: list[Optional[int]] = [None] * len(adj)  # position on the path; -1 once finished
    path: list[int] = []  # the open vertices; `scan` holds path[-1]'s neighbours left to try
    scans: list[Iterator[int]] = []  # scans[k]: the neighbours path[k] has left to try
    finished: list[tuple[int, int]] = []  # (position, vertex) as each vertex finished
    for root in range(n):
        if not adj[root] or place[root] is not None:
            continue
        place[root] = 0
        path.append(root)
        scan, parent = iter(adj[root]), -1
        while True:
            for w in scan:
                if w != parent and (at := place[w]) != -1:
                    break
            else:
                v = path.pop()
                place[v] = -1
                finished.append((len(path), v))
                if not path:
                    break
                scan, parent = scans.pop(), path[-2] if len(path) > 1 else -1
                continue
            if at is None:
                place[w] = len(path)
                parent = path[-1]
                path.append(w)
                scans.append(scan)
                scan = iter(adj[w])
                continue
            # a back edge closes the cycle from the junction w onward
            walk = path[at:] + [w]
            yield walk
            # Resume at the junction: forget its successor on the path and
            # everything opened since, the subtrees finished since included
            # (their positions are past at + 1).
            for v in path[at + 1 :]:
                place[v] = None
            while finished and finished[-1][0] > at + 1:
                place[finished.pop()[1]] = None
            del path[at + 1 :], scans[at:]
            scan, parent = iter(adj[w]), path[at - 1] if at else -1

    while True:
        degrees = list(map(len, adj))
        if 1 not in degrees:
            return
        v = degrees.index(1)
        if v >= n:
            raise AssertionError("a column with a single fractional entry cannot have an integral sum")
        walk, prev = [v], -1
        while True:
            for w in adj[v]:
                if w != prev:
                    break
            else:
                break
            walk.append(w)
            prev, v = v, w
        yield walk


def _prepare(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[int, list[list[int]], list[int], list[dict[int, int]]]:
    """(D, X, column_sums, adj) of a matrix to round, checked: the scaled
    matrix (``_scaled``), its integral column sums and its floating graph,
    an edge per entry with 0 < x < D, each vertex's dict mapping its
    neighbours to the entry of the edge, agent i as vertex i and good j as
    vertex n + j.  A walk reads its entries without telling agents from
    goods, and deleting from insertion-ordered dicts keeps every neighbour
    scan ascending."""
    D, X = _scaled(rows)
    n, m = len(X), len(X[0])
    if min(chain.from_iterable(X), default=0) < 0 or max(chain.from_iterable(X), default=0) > D:
        raise PreconditionError("entries must lie in [0, 1]")
    sums = list(map(sum, zip(*X)))
    for j, s in enumerate(sums):
        if s % D:
            raise PreconditionError(f"column {j} sum {Fraction(s, D)} is not an integer")
    goods = range(n, n + m)
    adj = [dict(compress(zip(goods, row), map(D.__rmod__, row))) for row in X]
    adj += [{} for _ in goods]
    for i in range(n):
        for g, x in adj[i].items():
            adj[g][i] = x
    return D, X, [s // D for s in sums], adj


class PreparedMatrix:
    """A matrix checked, scaled and turned into its floating graph once, for
    ``dependent_round`` to round with many seeds.  ``D`` is the LCM of the
    entries' denominators, ``X`` the entries times D (ints),
    ``column_sums`` the (integral) column sums and ``adj`` the graph of
    fractional entries.  Each draw pivots on copies of ``X`` and ``adj``:
    none mutates the object."""

    __slots__ = ("D", "X", "column_sums", "adj")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        D, X, column_sums, adj = _prepare(rows)
        self.D = D
        self.X = tuple(map(tuple, X))
        self.column_sums = tuple(column_sums)
        self.adj = tuple(adj)


def dependent_round(
    rows: Sequence[Sequence[Fraction]] | PreparedMatrix, seed: int
) -> tuple[tuple[int, ...], ...]:
    """Round a fractional matrix with integral column sums to 0/1, exactly
    preserving every column sum, with per-entry marginals equal to the input
    and negative correlation within columns.  `rows` may be a
    ``PreparedMatrix``, to check and scale a matrix once for many seeds."""
    if isinstance(rows, PreparedMatrix):
        D, column_sums = rows.D, rows.column_sums
        X, adj = list(map(list, rows.X)), list(map(dict.copy, rows.adj))
    else:  # prepared for this call alone, so pivoted on in place
        D, X, column_sums, adj = _prepare(rows)
    n = len(X)
    rng = SplitMix64(seed)
    for walk in _walks(adj, n):
        # edge k joins walk[k] and walk[k + 1]; the even edges form one
        # alternating class and the odd edges the other
        ends = walk[1:]
        entries = list(map(getitem, map(adj.__getitem__, walk), ends))
        plus, minus = entries[0::2], entries[1::2]
        alpha = min(D - max(plus), min(minus))
        beta = min(min(plus), D - max(minus))
        shift = (alpha, -alpha) if rng.event(Fraction(beta, alpha + beta)) else (-beta, beta)
        for u, w, x in zip(walk, ends, map(add, entries, cycle(shift))):
            if x % D:
                adj[u][w] = adj[w][u] = x
            else:
                del adj[u][w], adj[w][u]
                if u < w:
                    X[u][w - n] = x
                else:
                    X[w][u - n] = x

    out = tuple(tuple(map(D.__rfloordiv__, row)) for row in X)
    for j, (s, t) in enumerate(zip(map(sum, zip(*out)), column_sums)):
        if s != t:  # hard guarantee, never tolerated
            raise AssertionError(f"column {j} sum drifted during rounding")
    return out


# ---------------------------------------------------------------------------
# the capacity-k aggregated column for last goods


def build_supergood_matrix(summary: TraceSummary) -> tuple[tuple[int, ...], Matrix]:
    """Aggregate all last goods of a duration-one run into one column of
    capacity k: (base_goods, matrix), where base_goods lists the fully eaten
    ordinary goods in ascending order, matrix column c < len(base_goods)
    holds good base_goods[c], and the last column holds each agent's share
    of its own last good."""
    if summary.duration != 1:
        raise PreconditionError("the aggregated column is defined for duration-one runs")
    if summary.k.denominator != 1:
        raise AssertionError("non-integral last-good mass")
    m = len(summary.eaten)
    base_goods = []
    for g in range(m):
        if g in summary.L or g in summary.U:
            continue
        if summary.eaten[g] != 1:
            raise AssertionError(f"good {g} was started but not finished outside the last-good set")
        base_goods.append(g)
    n = len(summary.X)
    for i in range(n):
        for g in summary.L:
            if g != summary.last_goods[i] and summary.X[i][g] != 0:
                raise AssertionError("an agent consumed a last good that is not its own")
    matrix = tuple(
        tuple(summary.X[i][g] for g in base_goods) + (summary.X[i][summary.last_goods[i]],)
        for i in range(n)
    )
    for row in matrix:
        if sum(row) != 1:
            raise AssertionError("agent consumption does not add to one")
    return tuple(base_goods), matrix
