"""Simultaneous-eating simulation over divisible copies of the goods.

All agents eat at unit speed, each always consuming its most-preferred good
with mass remaining.  The simulation is event-driven and exact: the next
event time is the smallest remaining-mass / eater-count quotient among the
goods currently being eaten (capped by the requested duration), so every
switch happens at a rational time and the final consumption matrix is exact.

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
from typing import Sequence

from .core import Instance, IntegralAllocation, PreconditionError, format_rational

Segment = tuple[int, Fraction, Fraction]  # (good, start, end)


def ordinal_rankings(inst: Instance) -> list[tuple[int, ...]]:
    """Strict preference order per agent; rejects valuations without one."""
    rankings = []
    for i, val in enumerate(inst.valuations):
        try:
            rankings.append(val.ordinal_ranking())
        except PreconditionError as exc:
            raise PreconditionError(f"agent {i}: {exc}") from None
    return rankings


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
    duration = Fraction(duration)
    if duration <= 0:
        raise PreconditionError("duration must be positive")
    if n_dummies < 0:
        raise PreconditionError("the number of dummy goods must be non-negative")
    m_total = inst.m + n_dummies
    if duration * inst.n > m_total:
        raise PreconditionError(
            f"duration {duration} infeasible: goods would be exhausted (max {Fraction(m_total, inst.n)})"
        )
    base = ordinal_rankings(inst)
    dummies = tuple(range(inst.m, m_total))
    rankings = [r + dummies for r in base]

    remaining = [Fraction(1)] * m_total
    cursor = [0] * inst.n  # per-agent index into its ranking
    segments: list[list[Segment]] = [[] for _ in inst.agents]
    t = Fraction(0)

    def current_good(i: int) -> int:
        r = rankings[i]
        while remaining[r[cursor[i]]] == 0:
            cursor[i] += 1
        return r[cursor[i]]

    while t < duration:
        eaters: dict[int, list[int]] = {}
        for i in inst.agents:
            eaters.setdefault(current_good(i), []).append(i)
        dt = duration - t
        for g, group in eaters.items():
            dt = min(dt, Fraction(remaining[g], len(group)))
        for g, group in eaters.items():
            remaining[g] -= dt * len(group)
            for i in group:
                segs = segments[i]
                if segs and segs[-1][0] == g and segs[-1][2] == t:
                    segs[-1] = (g, segs[-1][1], t + dt)
                else:
                    segs.append((g, t, t + dt))
        t += dt

    return EatingTrace(
        n=inst.n,
        m_real=inst.m,
        n_dummies=n_dummies,
        duration=duration,
        segments=tuple(tuple(s) for s in segments),
    )


def summarize(trace: EatingTrace) -> TraceSummary:
    if not all(trace.segments):
        raise PreconditionError("agent with empty trace")
    m = trace.m_total
    X = prefix_allocation(trace, trace.duration)
    last = tuple(segs[-1][0] for segs in trace.segments)
    eaten = tuple(sum((X[i][g] for i in range(trace.n)), start=Fraction(0)) for g in range(m))
    L = frozenset(last)
    U = frozenset(g for g in range(m) if eaten[g] == 0)
    k = sum((X[i][g] for i in range(trace.n) for g in L), start=Fraction(0))
    if trace.duration == 1 and k.denominator != 1:
        raise AssertionError(f"last-good mass k = {k} is not integral on a duration-one run")
    return TraceSummary(
        X=X,
        last_goods=last,
        L=L,
        U=U,
        k=k,
        eaten=eaten,
        duration=trace.duration,
    )


def prefix_allocation(trace: EatingTrace, z: Fraction) -> tuple[tuple[Fraction, ...], ...]:
    """Consumption matrix of the run truncated at time z <= duration."""
    z = Fraction(z)
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
    Y = [[Fraction(0)] * m for _ in range(m)]
    for i, segs in enumerate(trace.segments):
        for g, a, b in segs:
            # split [a, b) across integer round windows
            t = int(a)
            while Fraction(t) < b:
                lo = max(a, Fraction(t))
                hi = min(b, Fraction(t + 1))
                if hi > lo:
                    Y[t * trace.n + i][g] += hi - lo
                t += 1
    return tuple(tuple(row) for row in Y)


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


def event_times(trace: EatingTrace) -> list[Fraction]:
    times = {Fraction(0), trace.duration}
    for segs in trace.segments:
        for _, a, b in segs:
            times.add(a)
            times.add(b)
    return sorted(times)


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
