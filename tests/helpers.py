"""Seeded random-instance generators and reference helpers shared across
the test modules."""

from __future__ import annotations

from fractions import Fraction

from bobw import Additive, Instance, IntegralAllocation, Lexicographic, Table, value_of
from bobw.rng import SplitMix64


def lex_instance(rng: SplitMix64, n: int, m: int) -> Instance:
    vals = tuple(Lexicographic(ranking=tuple(rng.permutation(m))) for _ in range(n))
    return Instance(n=n, m=m, valuations=vals)


def additive_instance(rng: SplitMix64, n: int, m: int, spread: int = 50) -> Instance:
    # distinct integer values per agent so the ordinal ranking is unambiguous
    vals = []
    for _ in range(n):
        pool = list(range(1, spread + 1))
        chosen = []
        for _ in range(m):
            chosen.append(pool.pop(rng.below(len(pool))))
        vals.append(Additive(values=tuple(Fraction(v) for v in chosen)))
    return Instance(n=n, m=m, valuations=tuple(vals))


def monotone_instance(rng: SplitMix64, n: int, m: int, max_step: int = 3) -> Instance:
    # v(S) = max over one-good-removed subsets plus a random increment
    vals = []
    for _ in range(n):
        table = [Fraction(0)] * (1 << m)
        for mask in range(1, 1 << m):
            floor = max(
                table[mask & ~(1 << g)] for g in range(m) if mask >> g & 1
            )
            table[mask] = floor + rng.below(max_step + 1)
        vals.append(Table(values=tuple(table)))
    return Instance(n=n, m=m, valuations=tuple(vals))


def capped_additive_instance(rng: SplitMix64, n: int, m: int) -> Instance:
    # min(additive sum, cap) tables: monotone and subadditive
    vals = []
    for _ in range(n):
        per_good = [1 + rng.below(5) for _ in range(m)]
        lo, hi = max(per_good), sum(per_good)
        cap = lo + rng.below(hi - lo + 1)
        table = []
        for mask in range(1 << m):
            s = sum(per_good[g] for g in range(m) if mask >> g & 1)
            table.append(Fraction(min(s, cap)))
        vals.append(Table(values=tuple(table), subadditive=True))
    return Instance(n=n, m=m, valuations=tuple(vals))


def from_assignment(assignment, n: int) -> IntegralAllocation:
    bundles = [set() for _ in range(n)]
    for g, i in enumerate(assignment):
        bundles[i].add(g)
    return IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))


def all_pooled(inst: Instance) -> IntegralAllocation:
    """The pool-swap loop's start: empty bundles, every good pooled."""
    return IntegralAllocation(bundles=tuple(frozenset() for _ in inst.agents), pool=frozenset(inst.goods))


def _ref_enviers_of_set(inst, alloc, goods):
    return [i for i in inst.agents if value_of(inst, i, alloc.bundles[i]) < value_of(inst, i, goods)]
