"""Seeded input generators owned by the benchmark.

Every generator takes a ``random.Random`` built from the run's ``--seed``,
so the same seed gives the same inputs on every commit.  Nothing here uses
the package's own generator or the test helpers: a later change to either
must not shift what the benchmark measures.  The ``bobw`` module is passed
in, because the runner imports the package from the checkout under test.
"""

from __future__ import annotations

import random
from fractions import Fraction


def lex_instance(bobw, rng: random.Random, n: int, m: int):
    rankings = []
    for _ in range(n):
        ranking = list(range(m))
        rng.shuffle(ranking)
        rankings.append(bobw.Lexicographic(tuple(ranking)))
    return bobw.Instance(n=n, m=m, valuations=tuple(rankings))


def lex_consistent_values(rng: random.Random, m: int) -> tuple[Fraction, ...]:
    """Fraction values, one per good, in which every value exceeds the sum of
    all smaller ones, so single goods dominate every bundle ranked below."""
    order = list(range(m))
    rng.shuffle(order)  # order[0] is the least-valued good
    values = [Fraction(0)] * m
    below = Fraction(0)
    for g in order:
        v = below + Fraction(rng.randint(1, 9), rng.randint(1, 9))
        values[g] = v
        below += v
    return tuple(values)


def additive_instance(bobw, rng: random.Random, n: int, m: int):
    vals = tuple(bobw.Additive(lex_consistent_values(rng, m)) for _ in range(n))
    return bobw.Instance(n=n, m=m, valuations=vals)


def k2_instance(bobw, rng: random.Random, n: int, m: int):
    """Lexicographic instance whose duration-one eating run ends with exactly
    two units of last-good mass, found by rejection."""
    while True:
        inst = lex_instance(bobw, rng, n, m)
        if bobw.summarize(bobw.unit_run(inst)).k == 2:
            return inst


def stochastic_matrix(rng: random.Random, size: int, terms: int) -> tuple:
    """Square matrix with unit row and column sums: a convex combination of
    random permutation matrices with rational weights."""
    denominator = rng.randint(60, 360)
    cuts = sorted(rng.sample(range(1, denominator), terms - 1))
    weights = [Fraction(b - a, denominator) for a, b in zip([0] + cuts, cuts + [denominator])]
    rows = [[Fraction(0)] * size for _ in range(size)]
    for w in weights:
        perm = list(range(size))
        rng.shuffle(perm)
        for i, j in enumerate(perm):
            rows[i][j] += w
    return tuple(tuple(r) for r in rows)


def monotone_table(rng: random.Random, m: int) -> list[int]:
    """v(S) = max over S minus one good, plus a random increment in 0..3."""
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        floor, rest = 0, mask
        while rest:
            low = rest & -rest
            if table[mask ^ low] > floor:
                floor = table[mask ^ low]
            rest ^= low
        table[mask] = floor + rng.getrandbits(2)
    return table


def capped_additive_table(rng: random.Random, m: int) -> list[int]:
    """min(additive sum, cap): monotone and subadditive."""
    per_good = [rng.randint(1, 5) for _ in range(m)]
    cap = rng.randint(max(per_good), sum(per_good))
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        table[mask] = table[mask ^ low] + per_good[low.bit_length() - 1]
    return [min(v, cap) for v in table]


def table_instance_json(rng: random.Random, n: int, m: int, capped: bool) -> dict:
    """Instance JSON in the package's file format, built without the package."""
    valuations = []
    for _ in range(n):
        if capped:
            valuations.append(
                {"kind": "table", "values": [str(v) for v in capped_additive_table(rng, m)], "subadditive": True}
            )
        else:
            valuations.append({"kind": "table", "values": [str(v) for v in monotone_table(rng, m)]})
    return {"n": n, "m": m, "valuations": valuations}


def ranking(valuation) -> tuple[int, ...]:
    """Goods from most to least preferred, for the instances made here:
    a ``Lexicographic`` ranking, or lexicographic-consistent values."""
    if hasattr(valuation, "ranking"):
        return valuation.ranking
    values = valuation.values
    return tuple(sorted(range(len(values)), key=lambda g: -values[g]))


def failing_allocations(bobw, inst):
    """Two complete allocations of ``inst`` that fail by construction: the
    first is not EFX and the second is not Pareto optimal.  The agents must
    be lexicographic, or additive with lexicographic-consistent values."""
    ranks = [ranking(v) for v in inst.valuations]
    n, m = inst.n, inst.m
    # Agent 1 holds only its least-liked good, and agent 0 at least two
    # others: agent 1 prefers agent 0's bundle less any one good to its own.
    bundles = [set() for _ in range(n)]
    free = set(range(m))
    for j in range(1, n):
        g = next(g for g in reversed(ranks[j]) if g in free)
        bundles[j].add(g)
        free.discard(g)
    bundles[0] = free
    not_efx = bobw.IntegralAllocation(tuple(map(frozenset, bundles)))
    # Agents 0 and b rank goods y, x in opposite orders; 0 holds x and b
    # holds y, so swapping the two leaves both strictly better off.
    b = next(j for j in range(1, n) if ranks[j] != ranks[0])
    pos = {g: k for k, g in enumerate(ranks[b])}
    y, x = next((y, x) for y, x in zip(ranks[0], ranks[0][1:]) if pos[x] < pos[y])
    bundles = [set() for _ in range(n)]
    bundles[0].add(x)
    bundles[b].add(y)
    for k, g in enumerate(g for g in range(m) if g not in (x, y)):
        bundles[k % n].add(g)
    not_po = bobw.IntegralAllocation(tuple(map(frozenset, bundles)))
    return not_efx, not_po
