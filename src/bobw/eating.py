"""Simultaneous-eating simulation over divisible copies of the goods.

All agents eat at unit speed, each always consuming its most-preferred good
with mass remaining.  The simulation is event-driven and exact.  Each good
being eaten keeps its finish time, which changes only when its eater count
does: a good whose rest would last d more time units at a eaters lasts
d * a / b at b eaters.  The run jumps to the earliest finish time (capped by
the requested duration); only the eaters of the goods that ran out move on,
and an agent's segment is closed only when its good runs out or the run
ends.

Every switch happens at a rational time, and the loop keeps all of them on
one integer clock: a time is an int over a common scale L, which starts at
the LCM of the first eater groups' sizes.  A good that goes from a to b
eaters has rest r = (finish - T) * a clock units (L for a fresh good) and
now finishes at T + r / b; when b does not divide r, L, the current time T,
r and every live finish time are first multiplied by b / gcd(r, b).  So
each time is the rational the Fraction arithmetic would give, comparisons
are int comparisons, and one ``Fraction`` per event closes the segments.
`summarize` and `representative_matrix` read each segment once and add
its share as an int over D, the LCM of the segment ends' denominators.
Each returns a ``ShareMatrix``: a tuple of ``Fraction`` rows, with one
``Fraction`` per distinct share shared by the cells that hold it, that also
carries those int rows and D, so ``rounding.bvn_decompose`` pivots on them
without reading a cell back.

A run of duration one (feasible whenever m >= n) is the building block for
the lottery constructions: its summary records each agent's final good g_i,
the set L of those final goods, the untouched set U, and the total mass
k = sum_{i, g in L} X[i][g], which is always a positive integer for a
duration-one run.  Every good outside L that anyone started is fully eaten.

Instances with fewer goods than agents (or full runs with n not dividing m)
are handled by appending dummy goods that every agent ranks below all real
goods; dummies participate in the simulation and decomposition but are
stripped from reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Sequence

from .core import Instance, IntegralAllocation, PreconditionError, format_rational, parse_rational

Segment = tuple[int, Fraction, Fraction]  # (good, start, end)


class ShareMatrix(tuple):
    """A share matrix: a tuple of ``Fraction`` rows that compares, iterates
    and serializes like any other, and also carries its integer form,
    ``scaled = (D, Y)``, where Y holds int rows as tuples and every cell is
    ``Fraction(y, D)`` of the int y in its place.  It is built only from its
    ints, ``ShareMatrix(D, Y)``, so the two forms agree by construction."""

    scaled: tuple[int, tuple[tuple[int, ...], ...]]

    def __new__(cls, D: int, Y: tuple[tuple[int, ...], ...]) -> "ShareMatrix":
        """The matrix of the int rows Y over the denominator D: one
        ``Fraction`` per distinct value, shared by the cells that hold it."""
        zero = Fraction(0)
        made: dict[int, Fraction] = {}
        X = []
        for row in Y:
            cells = [zero] * len(row)
            for g in compress(range(len(row)), row):
                y = row[g]
                x = made.get(y)
                if x is None:
                    x = made[y] = Fraction(y, D)
                cells[g] = x
            X.append(tuple(cells))
        X = super().__new__(cls, X)
        X.scaled = (D, Y)
        return X

    def __reduce__(self):
        return type(self), self.scaled


def ordinal_rankings(inst: Instance) -> tuple[tuple[int, ...], ...]:
    """Strict preference order per agent; rejects valuations without one,
    naming the agent.  The instance caches the rankings, never a refusal."""
    return inst._ordinal_rankings


@dataclass(frozen=True)
class EatingTrace:
    n: int
    m_real: int
    n_dummies: int
    duration: Fraction
    segments: tuple[tuple[Segment, ...], ...]  # per agent, in time order

    @property
    def m_total(self) -> int:
        return self.m_real + self.n_dummies


@dataclass(frozen=True)
class TraceSummary:
    X: tuple[tuple[Fraction, ...], ...]  # n x m_total consumption shares
    last_goods: tuple[int, ...]  # g_i per agent
    L: frozenset[int]
    U: frozenset[int]
    k: Fraction
    eaten: tuple[Fraction, ...]  # per good total
    duration: Fraction


def run_eating(inst: Instance, duration: Fraction, n_dummies: int = 0) -> EatingTrace:
    """Simulate eating for `duration` time units (duration <= m_total / n)."""
    duration = parse_rational(duration)
    if duration <= 0:
        raise PreconditionError("duration must be positive")
    if type(n_dummies) is not int or n_dummies < 0:
        raise PreconditionError("the number of dummy goods must be a non-negative integer")
    m_total = inst.m + n_dummies
    if duration * inst.n > m_total:
        raise PreconditionError(
            f"duration {duration} infeasible: goods would be exhausted (max {Fraction(m_total, inst.n)})"
        )
    base = ordinal_rankings(inst)
    dummies = tuple(range(inst.m, m_total))
    rankings = [r + dummies for r in base]

    finished = [False] * m_total
    cursor = [0] * inst.n  # per-agent index into its ranking
    start = [Fraction(0)] * inst.n  # when each agent began its current good
    segments: list[list[Segment]] = [[] for _ in inst.agents]
    eaters: dict[int, list[int]] = {}  # per good being eaten
    for i, r in enumerate(rankings):
        eaters.setdefault(r[0], []).append(i)
    # every time is an int over the clock scale L (see the module docstring)
    L = lcm(*map(len, eaters.values()))
    finish = {g: L // len(group) for g, group in eaters.items()}
    stop, per = duration.numerator, duration.denominator

    while True:
        T = min(finish.values())
        if T * per >= stop * L:
            break
        t = Fraction(T, L)
        gone = [g for g, f in finish.items() if f == T]
        for g in gone:
            finished[g] = True
            del finish[g]
        joining: dict[int, list[int]] = {}
        for g in gone:
            for i in eaters.pop(g):
                segments[i].append((g, start[i], t))
                start[i] = t
                r, c = rankings[i], cursor[i] + 1
                while finished[r[c]]:
                    c += 1
                cursor[i] = c
                joining.setdefault(r[c], []).append(i)
        for g, new in joining.items():
            group = eaters.setdefault(g, [])
            a = len(group)
            b = a + len(new)
            rest = (finish[g] - T) * a if a else L  # clock units of g left
            if rest % b:
                q = b // gcd(rest, b)
                L *= q
                T *= q
                rest *= q
                for h in finish:
                    finish[h] *= q
            finish[g] = T + rest // b
            group += new

    for i, r in enumerate(rankings):
        segments[i].append((r[cursor[i]], start[i], duration))
    return EatingTrace(
        n=inst.n,
        m_real=inst.m,
        n_dummies=n_dummies,
        duration=duration,
        segments=tuple(tuple(s) for s in segments),
    )


def _common_scale(trace: EatingTrace) -> tuple[int, dict[int, int]]:
    """(D, scale): D is the LCM of the segment ends' denominators, and a time
    t is the int t.numerator * scale[t.denominator] over D."""
    denominators = {t.denominator for segs in trace.segments for _, a, b in segs for t in (a, b)}
    D = lcm(*denominators)
    return D, {d: D // d for d in denominators}


def summarize(trace: EatingTrace) -> TraceSummary:
    if not all(trace.segments):
        raise PreconditionError("agent with empty trace")
    m = trace.m_total
    D, scale = _common_scale(trace)
    Y = [[0] * m for _ in range(trace.n)]
    eaten = [0] * m
    for row, segs in zip(Y, trace.segments):
        for g, a, b in segs:
            share = b.numerator * scale[b.denominator] - a.numerator * scale[a.denominator]
            row[g] += share
            eaten[g] += share
    last = tuple(segs[-1][0] for segs in trace.segments)
    L = frozenset(last)
    U = frozenset(g for g in range(m) if not eaten[g])
    k = Fraction(sum(eaten[g] for g in L), D)
    if trace.duration == 1 and k.denominator != 1:
        raise AssertionError(f"last-good mass k = {k} is not integral on a duration-one run")
    zero = Fraction(0)
    return TraceSummary(
        X=ShareMatrix(D, tuple(map(tuple, Y))),
        last_goods=last,
        L=L,
        U=U,
        k=k,
        eaten=tuple(Fraction(x, D) if x else zero for x in eaten),
        duration=trace.duration,
    )


def prefix_allocation(trace: EatingTrace, z: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Consumption matrix of the run truncated at time z <= duration."""
    z = parse_rational(z)
    if z < 0 or z > trace.duration:
        raise PreconditionError("prefix time outside the run")
    m = trace.m_total
    X = [[Fraction(0)] * m for _ in range(trace.n)]
    for i, segs in enumerate(trace.segments):
        for g, a, b in segs:
            if b > z:  # segments run in time order: the first past z is the last to count
                if a < z:
                    X[i][g] += z - a
                break
            X[i][g] += b - a
    return tuple(tuple(row) for row in X)


def unit_run(inst: Instance) -> EatingTrace:
    """Duration-one run, padding with dummies when there are fewer goods than
    agents so the run is feasible."""
    return run_eating(inst, Fraction(1), n_dummies=max(0, inst.n - inst.m))


def full_run(inst: Instance) -> EatingTrace:
    """Run until everything (dummies included) is eaten: duration m'/n after
    padding the good count to a multiple of n."""
    n_dummies = (-inst.m) % inst.n
    m_total = inst.m + n_dummies
    return run_eating(inst, Fraction(m_total, inst.n), n_dummies=n_dummies)


def fractional_outcome(trace: EatingTrace) -> tuple[tuple[Fraction, ...], ...]:
    """Real-goods consumption matrix of the whole run, dummy columns dropped."""
    return tuple(row[: trace.m_real] for row in prefix_allocation(trace, trace.duration))


def representative_matrix(trace: EatingTrace) -> tuple[tuple[Fraction, ...], ...]:
    """Square per-round matrix for a full run whose duration r is an integer:
    row t*n + i holds agent i's consumption during round [t, t+1).  Rows and
    columns all sum to one exactly."""
    r = trace.duration
    if r.denominator != 1:
        raise PreconditionError("representative matrix needs an integer number of rounds")
    rounds = int(r)
    m = trace.m_total
    if rounds * trace.n != m:
        raise PreconditionError("full-run matrix must be square")
    n = trace.n
    D, scale = _common_scale(trace)
    Y = [[0] * m for _ in range(m)]
    for i, segs in enumerate(trace.segments):
        for g, a, b in segs:
            # split [a, b) at whole rounds.  An agent eats at unit speed
            # from a good of one unit, so a segment lasts at most one unit
            # and spans at most two rounds; an agent eats a good in one
            # segment, so each (round, agent, good) cell is written once
            A, B = a.numerator * scale[a.denominator], b.numerator * scale[b.denominator]
            first, last = A // D, -(-B // D) - 1
            if first == last:
                Y[first * n + i][g] = B - A
            else:
                Y[first * n + i][g] = last * D - A
                Y[last * n + i][g] = B - last * D
    return ShareMatrix(D, tuple(map(tuple, Y)))


def rounds_allocation(
    assignment: Sequence[int], n: int, m_real: int
) -> IntegralAllocation:
    """Map a one-good-per-row assignment of the per-round matrix back to the
    agents: row t*n + i belongs to agent i.  Dummy goods are dropped."""
    bundles = [set() for _ in range(n)]
    for row, g in enumerate(assignment):
        if g < m_real:
            bundles[row % n].add(g)
    return IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))


def eat_report(inst: Instance, trace: EatingTrace) -> dict:
    """CLI-facing JSON: summary with dummy goods stripped."""
    s = summarize(trace)
    real = range(inst.m)
    return {
        "duration": format_rational(trace.duration),
        "padded_with": trace.n_dummies,
        "matrix": [[format_rational(x) for x in row[: inst.m]] for row in s.X],
        "last_goods": [g if g < inst.m else None for g in s.last_goods],
        "L": sorted(g for g in s.L if g < inst.m),
        "U": sorted(g for g in s.U if g < inst.m),
        "k": format_rational(s.k),
        "eaten": [format_rational(s.eaten[g]) for g in real],
    }
