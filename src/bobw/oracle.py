"""Independent ground-truth references: brute-force enumeration, exact linear
feasibility, exact swap-loop distributions, and seeded Monte Carlo envy ratios.

Everything here is deliberately simple and exhaustive; these routines exist
to check the fast constructions, not to be fast themselves.  The linear
feasibility solver is a textbook Phase-I simplex with Bland's rule over
exact integers.  A feasible system yields the witness weights of a vertex.
An infeasible one yields Farkas multipliers: one positive integer per
labelled constraint, whose combination is negative on every support, which
a reader checks in one pass.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .audit import check_efx, check_sdef
from .charity_algos import _allocation, _envied_subset, _mask_values, bounded_charity, require_monotone_integer
from .core import (
    Instance,
    IntegralAllocation,
    PreconditionError,
    RandomizedAllocation,
    ResourceCapError,
    format_rational,
    require_fits,
)
from .eating import ordinal_rankings
from .rng import derive_seed

ENUMERATION_CAP = 10**7
# simplex tableau entries: the largest lexicographic instances under it
# (2/13, 3/9) decide in at most 2.5 s on a 2-CPU host
SDEF_TABLEAU_CAP = 50_000
DEFAULT_LEAF_CAP = 10**6


# ---------------------------------------------------------------------------
# brute-force EFX enumeration


def enumerate_efx(inst: Instance) -> tuple[IntegralAllocation, ...]:
    """All complete (pool-free) EFX allocations, in canonical order of the
    good -> agent assignment vector."""
    if inst.n**inst.m > ENUMERATION_CAP:
        raise ResourceCapError(
            f"{inst.n}^{inst.m} assignments exceed the enumeration cap {ENUMERATION_CAP}"
        )
    out = []
    for assignment in itertools.product(inst.agents, repeat=inst.m):
        bundles = [set() for _ in inst.agents]
        for g, i in enumerate(assignment):
            bundles[i].add(g)
        alloc = IntegralAllocation(bundles=tuple(frozenset(b) for b in bundles))
        if check_efx(inst, alloc).passed:
            out.append(alloc)
    return tuple(out)


# ---------------------------------------------------------------------------
# exact feasibility of prefix-dominance mixtures


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    weights: Optional[tuple[Fraction, ...]] = None
    certificate: Optional[dict] = None

    def to_json(self) -> dict:
        out: dict = {"feasible": self.feasible}
        if self.weights is not None:
            out["weights"] = [format_rational(w) for w in self.weights]
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def sdef_feasibility(inst: Instance, supports: Sequence[IntegralAllocation]) -> FeasibilityResult:
    """Can a lottery over `supports` be prefix-dominance envy-free for every
    pair?  An exact Phase-I simplex decides.  Feasible gives the weights of
    a vertex, checked by `check_sdef`; infeasible gives a replayed
    certificate.  Past SDEF_TABLEAU_CAP entries it raises ResourceCapError."""
    q = len(supports)
    if q == 0:
        raise PreconditionError("need at least one support allocation")
    require_fits(inst, supports)
    margins = _margins(inst, supports)
    # a lottery's margin mixes its supports' margins, so a row they all meet never binds
    live = [label for label, row in margins.items() if min(row) < 0]
    entries = (len(live) + 2) * (q + len(live) + 1)
    if entries > SDEF_TABLEAU_CAP:
        raise ResourceCapError(
            f"feasibility capped at {SDEF_TABLEAU_CAP} tableau entries (SDEF_TABLEAU_CAP), got {entries}"
        )
    feasible, values = _phase_one([margins[label] for label in live], q)
    if not feasible:
        cert = {"constraints": [{"label": label, "multiplier": y} for label, y in zip(live, values) if y]}
        if not _replay_certificate(margins, cert):  # pragma: no cover
            raise AssertionError("infeasibility certificate does not replay")
        return FeasibilityResult(feasible=False, certificate=cert)
    # the lottery checks that the positive weights sum to one
    mix = RandomizedAllocation(tuple((w, a) for w, a in zip(values, supports) if w > 0))
    verdict = check_sdef(inst, mix.associated_fractional(inst.m))
    if min(values) < 0 or not verdict.passed:  # pragma: no cover
        raise AssertionError(f"witness {values} is not a dominance-fair distribution: {verdict.witness}")
    return FeasibilityResult(feasible=True, weights=tuple(values))


def _margins(inst: Instance, supports: Sequence[IntegralAllocation]) -> dict[str, tuple[int, ...]]:
    """Each prefix-dominance constraint by label, as its margin on every
    support: how many of agent i's top t goods i holds, less how many j
    holds.  A lottery meets it when its weighted margins sum to >= 0."""
    rankings = ordinal_rankings(inst)
    out = {}
    for i, j in itertools.permutations(inst.agents, 2):
        margin = [0] * len(supports)
        for t, g in enumerate(rankings[i]):
            for l, alloc in enumerate(supports):
                margin[l] += (g in alloc.bundles[i]) - (g in alloc.bundles[j])
            out[f"agent {i} vs {j}, top-{t + 1} prefix"] = tuple(margin)
    return out


def _phase_one(rows: list[tuple[int, ...]], q: int) -> tuple[bool, list]:
    """Phase I with Bland's rule on rows[k] . w >= 0 for every k, sum(w) = 1
    and w >= 0.  Row k is -rows[k] . w + s_k = 0, its slack basic at 0.  The
    sum row's artificial is not stored; it has the least index, so it
    leaves on every tie, and the phase ends when it leaves.  Each row is a
    primitive integer multiple of the rational row, which keeps every sign,
    ratio and basic value.  Returns (True, vertex weights), or (False,
    coprime y >= 0, the slacks' reduced costs) with sum_k y_k rows[k][l] < 0
    for every l."""
    m = len(rows)
    tableau = [[-a for a in row] + [int(k == j) for j in range(m)] + [0] for k, row in enumerate(rows)]
    # the sum row, then the cost row: z + sum(w) = 1 for the artificial z
    tableau += [[1] * q + [0] * m + [1], [1] * q + [0] * m + [1]]
    basis = list(range(q, q + m)) + [-1]
    while basis[m] < 0:
        enter = next((j for j, c in enumerate(tableau[-1][:-1]) if c > 0), None)  # a negative reduced cost
        if enter is None:
            g = math.gcd(*tableau[-1][q:-1])
            return False, [-c // g for c in tableau[-1][q:-1]]
        ratios = [(Fraction(row[-1], row[enter]), basis[k], k) for k, row in enumerate(tableau[:-1]) if row[enter] > 0]
        out = min(ratios)[2]
        pivot = tableau[out]
        for k, row in enumerate(tableau):
            if row[enter] and k != out:
                row = [pivot[enter] * x - row[enter] * y for x, y in zip(row, pivot)]
                g = math.gcd(*row)
                tableau[k] = [x // g for x in row] if g > 1 else row
        basis[out] = enter
    basic = dict(zip(basis, tableau))
    return True, [Fraction(basic[l][-1], basic[l][l]) if l in basic else Fraction(0) for l in range(q)]


def _replay_certificate(margins: dict[str, tuple[int, ...]], certificate: dict) -> bool:
    """Does `certificate` prove that no lottery over the supports of
    `margins` meets every constraint: positive integer multipliers on named
    constraints whose combination is negative on every support?"""
    terms = [(margins.get(entry["label"]), entry["multiplier"]) for entry in certificate["constraints"]]
    if not terms or any(row is None or type(y) is not int or y <= 0 for row, y in terms):
        return False
    return all(sum(y * row[l] for row, y in terms) < 0 for l in range(len(terms[0][0])))


# ---------------------------------------------------------------------------
# exact distribution of the pool-swap samplers


def exact_distribution_charity(
    inst: Instance, algorithm: int = 3, leaf_cap: int = DEFAULT_LEAF_CAP
) -> RandomizedAllocation:
    """Exact output lottery of the randomized pool-swap loop (algorithm=3),
    optionally followed by the deterministic pool-shrinking pass
    (algorithm=4).

    The loop is a Markov chain on (bundle masks, pool mask) states, and many
    runs reach the same state, so the walk keeps one mass per state and
    expands each state once; `leaf_cap` bounds the number of distinct
    states.  A swap strictly raises the chosen agent's own value and leaves
    everyone else's alone, so the sum of own values rises along every edge:
    states popped from a heap keyed by that sum come off only after every
    state that leads to them.  The pass is deterministic, so it runs once per
    distinct swap-loop outcome and the merged results are merged again."""
    if algorithm not in (3, 4):
        raise PreconditionError("algorithm must be 3 (swap loop) or 4 (with pool shrinking)")
    if leaf_cap < 0:
        raise PreconditionError(f"leaf cap must be non-negative, got {leaf_cap}")
    require_monotone_integer(inst)
    values = _mask_values(inst)
    start = ((0,) * inst.n, (1 << inst.m) - 1)
    mass = {start: Fraction(1)}
    heap = [(0, *start)]  # every empty bundle is worth 0
    leaves = []
    while heap:
        key, masks, pool = heapq.heappop(heap)
        prob = mass[masks, pool]
        envy = _envied_subset(values, masks, pool)
        if envy is None:
            leaves.append((prob, _allocation(masks, pool)))
            continue
        subset, enviers = envy
        rest = pool & ~subset
        share = prob / len(enviers)
        for k in enviers:
            child = (masks[:k] + (subset,) + masks[k + 1 :], rest | masks[k])
            if child in mass:
                mass[child] += share
                continue
            mass[child] = share
            if len(mass) > leaf_cap:
                raise ResourceCapError(f"exact walk exceeded {leaf_cap} states")
            heapq.heappush(heap, (key - values[k](masks[k]) + values[k](subset), *child))
    lottery = RandomizedAllocation.merged(leaves)
    if algorithm == 4:
        lottery = RandomizedAllocation.merged((p, bounded_charity(inst, a)) for p, a in lottery.support)
    return lottery


# ---------------------------------------------------------------------------
# seeded Monte Carlo envy ratios


def ratio_table(
    inst: Instance,
    sampler: Callable[[int], IntegralAllocation],
    n_samples: int,
    seed: int,
) -> list[dict]:
    """Monte Carlo envy ratios: for every ordered pair (i, j), i != j, agent
    i's mean value for its own bundle over its mean value for j's bundle,
    over n_samples draws seeded derive_seed(seed, r).  Each ratio carries a
    first-order (delta-method) standard error, which accounts for the two
    means being correlated, and a three-sigma interval.  The ratio is None
    where the mean value of j's bundle is 0."""
    n, N = inst.n, n_samples
    own = [[0.0] * n for _ in range(n)]  # own[i][j] accumulates v_i(X_j)
    sq = [[0.0] * n for _ in range(n)]
    cross = [[0.0] * n for _ in range(n)]  # v_i(X_i) * v_i(X_j) per pair
    for r in range(N):
        alloc = sampler(derive_seed(seed, r))
        vals = [[val.int_value(b) / val.scale for b in alloc.bundles] for val in inst.valuations]
        for i in range(n):
            for j in range(n):
                own[i][j] += vals[i][j]
                sq[i][j] += vals[i][j] ** 2
                if j != i:
                    cross[i][j] += vals[i][i] * vals[i][j]

    pairs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            mi = own[i][i] / N
            mj = own[i][j] / N
            if mj == 0.0:
                pairs.append({"pair": [i, j], "own_mean": mi, "other_mean": mj, "ratio": None})
                continue
            var_i = sq[i][i] / N - mi * mi
            var_j = sq[i][j] / N - mj * mj
            cov = cross[i][j] / N - mi * mj
            ratio = mi / mj
            var_r = (
                var_i / (mj * mj)
                + (mi * mi) * var_j / (mj**4)
                - 2 * mi * cov / (mj**3)
            ) / N
            se = math.sqrt(max(var_r, 0.0))
            pairs.append(
                {
                    "pair": [i, j],
                    "own_mean": mi,
                    "other_mean": mj,
                    "ratio": ratio,
                    "stderr": se,
                    "ci99_7": [ratio - 3 * se, ratio + 3 * se],
                }
            )
    return pairs
