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
the loop terminates with an exact reconstruction.

``dependent_round`` rounds a fractional matrix with integral column sums to a
0/1 matrix by randomized pipage: repeatedly pick a cycle (else a maximal
path) in the graph of strictly fractional entries, split its edges into the
two alternating classes, and shift one class up and the other down by the
largest feasible amounts, choosing the direction with odds that keep every
entry a martingale.  Column sums never change (fractional columns always
have two or more fractional entries, so path endpoints are row vertices),
per-entry marginals equal the input, and entries sharing a column are
negatively correlated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import PreconditionError, format_rational, json_field, json_goods, parse_rational
from .eating import TraceSummary
from .rng import SplitMix64

Matrix = tuple[tuple[Fraction, ...], ...]


def _freeze(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if not out or any(len(r) != len(out[0]) for r in out):
        raise PreconditionError("matrix must be rectangular and nonempty")
    return out


def _column_sums(rows: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    m = len(rows[0])
    return [sum((r[j] for r in rows), start=Fraction(0)) for j in range(m)]


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
        if sum(w for w, _ in self.terms) != 1:
            raise PreconditionError("term weights must sum to exactly one")
        for _, assignment in self.terms:
            if len(set(assignment)) != len(assignment):
                raise PreconditionError("a term assigns one good to two agents")

    def reconstruct(self, n: int, m: int) -> Matrix:
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


def _kuhn_matching(adj: list[list[int]], n: int) -> dict[int, int]:
    """Matching saturating every row vertex; ascending-index augmenting paths.
    Returns {column: row}."""
    match_col: dict[int, int] = {}
    match_row: dict[int, int] = {}

    def extend(i: int, seen: set[int]) -> bool:
        for g in adj[i]:
            if g in seen:
                continue
            seen.add(g)
            if g not in match_col or extend(match_col[g], seen):
                match_col[g] = i
                match_row[i] = g
                return True
        return False

    for i in range(n):
        if not extend(i, set()):
            raise PreconditionError("no agent-saturating matching: matrix violates its shape preconditions")
    return match_col


def _repair_matching(
    adj: list[list[int]], match_col: dict[int, int], target: int, protected: set[int]
) -> bool:
    """Try to bring `target` into the matching by flipping an alternating
    path that ends at a droppable (unprotected) matched column.  Mutates the
    matching on success.  BFS, lowest-index-first, deterministic."""
    if target in match_col:
        return True
    col_of = {i: g for g, i in match_col.items()}
    col_adj: dict[int, list[int]] = {}
    for i, goods in enumerate(adj):
        for g in goods:
            col_adj.setdefault(g, []).append(i)
    parent: dict[int, tuple[int, int]] = {}  # column -> (prev column, row used)
    frontier = [target]
    seen = {target}
    while frontier:
        nxt = []
        for c in frontier:
            for i in sorted(col_adj.get(c, ())):
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
    X = [list(r) for r in _freeze(rows)]
    n, m = len(X), len(X[0])
    for i, row in enumerate(X):
        if sum(row) != 1:
            raise PreconditionError(f"row {i} must sum to exactly one")
        if any(x < 0 for x in row):
            raise PreconditionError("entries must be nonnegative")
    for j, s in enumerate(_column_sums(X)):
        if s > 1:
            raise PreconditionError(f"column {j} sums above one")

    terms: list[tuple[Fraction, tuple[int, ...]]] = []
    remaining = Fraction(1)
    while remaining > 0:
        col_sums = _column_sums(X)
        adj = [[j for j in range(m) if X[i][j] > 0] for i in range(n)]
        full = {j for j in range(m) if col_sums[j] == remaining}
        match_col = _kuhn_matching(adj, n)
        for c in sorted(full):
            if not _repair_matching(adj, match_col, c, protected=full):
                raise AssertionError("a saturated column could not be matched")

        # Cap the weight so no unmatched column can outgrow the residual row
        # sum; when the cap binds below the matched entries, force the binding
        # column into the matching if an alternating repair allows it.
        banned: set[int] = set()
        forced = set(full)
        while True:
            entry_min = min(X[match_col[g]][g] for g in match_col)
            slack = {
                j: remaining - col_sums[j]
                for j in range(m)
                if j not in match_col and col_sums[j] > 0
            }
            binding = [j for j, s in sorted(slack.items()) if s < entry_min and j not in banned]
            if not binding:
                weight = min([entry_min] + list(slack.values()))
                break
            c = binding[0]
            if _repair_matching(adj, match_col, c, protected=forced):
                forced.add(c)
            else:
                banned.add(c)

        if weight <= 0:  # pragma: no cover - shape invariants forbid this
            raise AssertionError("nonpositive extraction weight")
        vector = tuple(g for _, g in sorted((i, g) for g, i in match_col.items()))
        terms.append((weight, vector))
        for i, g in enumerate(vector):
            X[i][g] -= weight
        remaining -= weight

    if any(x != 0 for row in X for x in row):  # pragma: no cover
        raise AssertionError("decomposition left mass behind")
    return Decomposition(tuple(terms))


# ---------------------------------------------------------------------------
# randomized dependent rounding


def _walk_cycle_or_path(X: list[list[Fraction]]) -> Optional[list[tuple[int, int]]]:
    """Edges (agent, good) of one cycle (preferred) or one maximal path of the
    floating graph, whose edges are the strictly fractional entries; None
    when none remain.  Agent i is vertex i and good j is vertex n + j, and
    scans are lowest-index-first, so the choice is deterministic."""
    n, m = len(X), len(X[0])
    adj = [[n + j for j in range(m) if 0 < X[i][j] < 1] for i in range(n)]
    adj += [[i for i in range(n) if 0 < X[i][j] < 1] for j in range(m)]
    if not any(adj[:n]):
        return None

    def edges(vertices: list[int]) -> list[tuple[int, int]]:
        return [(min(u, w), max(u, w) - n) for u, w in zip(vertices, vertices[1:])]

    # Depth-first search for a cycle, iterative: `path` holds the open
    # vertices, `scans` the neighbours each has left to try, and `at` each
    # open vertex's position on the path.
    seen: set[int] = set()
    for root in range(n):
        if not adj[root] or root in seen:
            continue
        seen.add(root)
        path, scans, at = [root], [iter(adj[root])], {root: 0}
        while path:
            parent = path[-2] if len(path) > 1 else None
            for w in scans[-1]:
                if w == parent:
                    continue
                if w in at:  # a back edge closes the cycle from w onward
                    return edges(path[at[w] :] + [w])
                if w not in seen:
                    break
            else:
                del at[path.pop()]
                scans.pop()
                continue
            seen.add(w)
            at[w] = len(path)
            path.append(w)
            scans.append(iter(adj[w]))

    # No cycle: the floating graph is a forest.  Maximal paths run between
    # two leaves; integral column sums force every leaf to be an agent.
    v = next(u for u, nbrs in enumerate(adj) if len(nbrs) == 1)
    if v >= n:
        raise AssertionError("a column with a single fractional entry cannot have an integral sum")
    path, prev = [v], None
    while (w := next((u for u in adj[v] if u != prev), None)) is not None:
        path.append(w)
        prev, v = v, w
    return edges(path)


def dependent_round(
    rows: Sequence[Sequence[Fraction]], seed: int
) -> tuple[tuple[int, ...], ...]:
    """Round a fractional matrix with integral column sums to 0/1, exactly
    preserving every column sum, with per-entry marginals equal to the input
    and negative correlation within columns."""
    X = [list(r) for r in _freeze(rows)]
    n, m = len(X), len(X[0])
    for row in X:
        for x in row:
            if x < 0 or x > 1:
                raise PreconditionError("entries must lie in [0, 1]")
    target = _column_sums(X)
    for j, s in enumerate(target):
        if s.denominator != 1:
            raise PreconditionError(f"column {j} sum {s} is not an integer")

    rng = SplitMix64(seed)
    while True:
        walk = _walk_cycle_or_path(X)
        if walk is None:
            break
        plus = walk[0::2]
        minus = walk[1::2]
        alpha = min(
            min(1 - X[i][j] for i, j in plus),
            min(X[i][j] for i, j in minus),
        )
        beta = min(
            min(X[i][j] for i, j in plus),
            min(1 - X[i][j] for i, j in minus),
        )
        if rng.event(beta / (alpha + beta)):
            delta_plus, delta_minus = alpha, -alpha
        else:
            delta_plus, delta_minus = -beta, beta
        for i, j in plus:
            X[i][j] += delta_plus
        for i, j in minus:
            X[i][j] += delta_minus

    out = tuple(tuple(int(x) for x in row) for row in X)
    for j in range(m):
        if sum(r[j] for r in out) != target[j]:  # hard guarantee, never tolerated
            raise AssertionError(f"column {j} sum drifted during rounding")
    return out


# ---------------------------------------------------------------------------
# the capacity-k aggregated column for last goods


@dataclass(frozen=True)
class SuperGoodMatrix:
    base: Matrix  # n x |base_goods| shares of fully eaten ordinary goods
    base_goods: tuple[int, ...]  # ascending good indices for base columns
    super_column: tuple[Fraction, ...]  # per-agent share of its own last good
    k: int  # capacity of the aggregated column

    @property
    def matrix(self) -> Matrix:
        return tuple(
            tuple(row) + (self.super_column[i],) for i, row in enumerate(self.base)
        )


def build_supergood_matrix(summary: TraceSummary) -> SuperGoodMatrix:
    """Aggregate all last goods of a duration-one run into one column of
    capacity k; ordinary columns keep their (fully eaten) goods."""
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
    base = tuple(tuple(summary.X[i][g] for g in base_goods) for i in range(n))
    super_col = tuple(summary.X[i][summary.last_goods[i]] for i in range(n))
    for i in range(n):
        if sum(base[i], start=Fraction(0)) + super_col[i] != 1:
            raise AssertionError("agent consumption does not add to one")
    return SuperGoodMatrix(
        base=base, base_goods=tuple(base_goods), super_column=super_col, k=int(summary.k)
    )
