"""Twelve end-to-end checks, one per advertised guarantee.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see them
all) and enforces the stated runtime budget.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

from bobw import (
    Decomposition,
    bvn_decompose,
    check_bounded_charity,
    check_ef1,
    check_efx,
    check_efx_with_charity,
    check_exante_ef,
    check_po_lex,
    check_sdef_instance,
    check_stochastic_dominance_half,
    check_support,
    dependent_round,
    enumerate_efx,
    exact_distribution_charity,
    exante_ratio,
    fractional_outcome,
    full_run,
    get_fixture,
    k2_sampler,
    min_exante_ratio,
    ratio_table,
    representative_matrix,
    rounds_allocation,
    sdef_feasibility,
    summarize,
    uniform_permutation,
    unit_run,
    utse,
    value_of,
)
from bobw.cli import main
from bobw.rng import SplitMix64, derive_seed

from helpers import capped_additive_instance, lex_instance, monotone_instance

F = Fraction
HALF = F(1, 2)


def _report(num: int, label: str, budget_s: float, body) -> None:
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        if elapsed > budget_s:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget")
    except BaseException as exc:
        print(f"[FAIL] criterion {num:2d}: {label} ({exc})")
        raise
    print(f"[PASS] criterion {num:2d}: {label} ({elapsed:.2f}s)")


def _bundles(alloc):
    return tuple(tuple(sorted(b)) for b in alloc.bundles)


# ---------------------------------------------------------------------------
# 1: three agents, four goods: only four EFX allocations and no
# dominance-fair lottery over them


def test_criterion_01_no_fair_mixture_over_efx(tmp_path):
    def body():
        inst = get_fixture("FIX-A")
        allocs = enumerate_efx(inst)
        assert [_bundles(a) for a in allocs] == [
            ((0,), (1,), (2, 3)),
            ((0,), (2, 3), (1,)),
            ((2, 3), (0,), (1,)),
            ((2,), (0,), (1, 3)),
        ]
        res = sdef_feasibility(inst, allocs)
        assert not res.feasible
        assert res.certificate["constraints"]
        out = tmp_path / "impossibility.json"
        assert main(["repro", "impossibility", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["efx_count"] == 4

    _report(1, "no sd-EF mixture exists over the four EFX allocations", 1.0, body)


# ---------------------------------------------------------------------------
# 2: six-agent worked example: exact permutation-lottery matrix and the
# closed-form ratio at epsilon = 1/1000


def test_criterion_02_permutation_lottery_closed_form(tmp_path):
    def body():
        inst = get_fixture("FIX-B")
        dist = uniform_permutation(inst, mode="exact")
        rows = dist.associated_fractional(inst.m).entries
        assert rows[0] == (F(288, 720), F(144, 720), F(72, 720), F(96, 720), F(120, 720), F(0))
        assert rows[1] == (F(0), F(4, 5), F(1, 30), F(1, 15), F(1, 10), F(0))
        for i in (2, 3, 4, 5):
            assert rows[i] == (F(3, 20), F(0), F(13, 60), F(1, 5), F(11, 60), F(1, 4))
        eps = F(1, 1000)
        expected = (F(432) + 5808 * eps) / (F(576) + 528 * eps)
        assert exante_ratio(dist, inst, 0, 1) == expected
        out = tmp_path / "example.json"
        assert main(["repro", "example-4-1", "-o", str(out)]) == 0

    _report(2, "uniform-permutation matrix and pair ratio match the worked example", 5.0, body)


# ---------------------------------------------------------------------------
# 3: four-agent tight case: eating matrix, k = 2, pinned-decomposition ratio,
# and the default decomposition staying at 6/7 or better


def test_criterion_03_tail_lottery_tight_case(tmp_path):
    def body():
        inst = get_fixture("FIX-C")
        s = summarize(unit_run(inst))
        assert s.X == (
            (HALF, HALF, F(0), F(0), F(0)),
            (HALF, HALF, F(0), F(0), F(0)),
            (F(0), F(0), HALF, HALF, F(0)),
            (F(0), F(0), F(0), HALF, HALF),
        )
        assert s.k == 2
        pinned = Decomposition(terms=((HALF, (0, 1, 3, 4)), (HALF, (1, 0, 2, 3))))
        eps = F(1, 1000)
        expected = (F(3) + 25 * eps / 32) / (F(7, 2) + 3 * eps / 4)
        assert exante_ratio(utse(inst, decomposition=pinned), inst, 0, 1) == expected
        default_ratio = min_exante_ratio(utse(inst), inst)
        assert default_ratio >= F(6, 7)
        out = tmp_path / "tight.json"
        assert main(["repro", "utse-tight", "-o", str(out)]) == 0

    _report(3, "tail lottery hits the pinned ratio and the 6/7 floor", 1.0, body)


# ---------------------------------------------------------------------------
# 4 and 5 share one seeded sweep


_SWEEP: list = []


def _sweep_200():
    if _SWEEP:
        return _SWEEP
    rng = SplitMix64(20260816)
    for _ in range(200):
        n = 2 + rng.below(4)
        m = 1 + rng.below(8)
        inst = lex_instance(rng, n, m)
        dist = utse(inst)
        k = int(summarize(unit_run(inst)).k)
        _SWEEP.append((inst, dist, k))
    return _SWEEP


def test_criterion_04_tail_lottery_ratio_floor_sweep():
    def body():
        for inst, dist, k in _sweep_200():
            assert sum((w for w, _ in dist.support), start=F(0)) == 1
            reports = check_support(inst, dist, {"efx": check_efx, "po": check_po_lex})
            assert reports["efx"].passed, reports["efx"].witness
            assert reports["po"].passed, reports["po"].witness
            ratio = min_exante_ratio(dist, inst)
            if ratio is not None:
                assert ratio >= F(3 * k, 3 * k + 1), (k, ratio)

    _report(4, "200-instance sweep holds the 3k/(3k+1) floor with EFX+PO support", 120.0, body)


def test_criterion_05_unit_last_mass_is_envy_free():
    def body():
        ones = [(inst, dist) for inst, dist, k in _sweep_200() if k == 1]
        assert ones, "the sweep produced no k = 1 instances"
        for inst, dist in ones:
            ratio = min_exante_ratio(dist, inst)
            assert ratio is None or ratio >= 1, ratio

    _report(5, "every swept k = 1 instance is exactly envy-free in expectation", 120.0, body)


# ---------------------------------------------------------------------------
# 6: the k = 2 sampler, checked empirically


def _k2_instances():
    insts = [get_fixture("FIX-C")]
    rng = SplitMix64(20260817)
    while len(insts) < 20:
        n = 2 + rng.below(4)
        m = n + rng.below(max(1, 9 - n))
        inst = lex_instance(rng, n, m)
        if summarize(unit_run(inst)).k == 2:
            insts.append(inst)
    return insts


def test_criterion_06_sampler_ratio_nine_tenths():
    def body():
        n_samples = 20_000
        for idx, inst in enumerate(_k2_instances()):
            sample = k2_sampler(inst)

            def checked(seed):
                alloc = sample(seed)
                assert check_efx(inst, alloc).passed
                assert check_po_lex(inst, alloc).passed
                return alloc

            for row in ratio_table(inst, checked, n_samples, idx):
                if row["ratio"] is not None:
                    assert row["ci99_7"][1] >= 0.9, (idx, row)

    _report(6, "k = 2 sampler: EFX+PO every draw, pair ratios at 0.9 within 3 sigma", 600.0, body)


# ---------------------------------------------------------------------------
# 7: dependent rounding statistics on a fixed battery


_BATTERY = (
    ((HALF,), (HALF,)),
    ((HALF, HALF), (HALF, HALF)),
    ((F(1), F(0)), (F(0), F(1))),
    ((F(1, 3),) * 3,) * 3,
    ((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))),
    ((F(2, 3), F(1, 3), F(0)), (F(1, 3), F(1, 3), F(1, 3)), (F(0), F(1, 3), F(2, 3))),
    ((HALF, F(0), HALF), (HALF, F(0), HALF), (F(0), HALF, HALF), (F(0), HALF, HALF)),
    ((F(1, 5), F(4, 5)), (F(4, 5), F(1, 5))),
    ((HALF, F(1, 4), F(1, 4)), (F(1, 4), HALF, F(1, 4)), (F(1, 4), F(1, 4), HALF)),
    (
        (HALF, F(1, 4), F(1, 4)),
        (HALF, F(1, 4), F(1, 4)),
        (F(0), F(1, 4), F(3, 4)),
        (F(0), F(1, 4), F(3, 4)),
    ),
)


def test_criterion_07_rounding_marginals_and_negative_correlation():
    def body():
        n_samples = 50_000
        for mat_idx, rows in enumerate(_BATTERY):
            n, m = len(rows), len(rows[0])
            col_targets = [sum((r[j] for r in rows), start=F(0)) for j in range(m)]
            counts = [[0] * m for _ in range(n)]
            pair_counts = {
                (j, a, b): 0
                for j in range(m)
                for a in range(n)
                for b in range(a + 1, n)
                if 0 < rows[a][j] < 1 and 0 < rows[b][j] < 1
            }
            for r in range(n_samples):
                out = dependent_round(rows, seed=derive_seed(mat_idx, r))
                for j in range(m):
                    assert sum(row[j] for row in out) == col_targets[j]
                for i in range(n):
                    for j in range(m):
                        counts[i][j] += out[i][j]
                for (j, a, b) in pair_counts:
                    if out[a][j] == 1 and out[b][j] == 1:
                        pair_counts[(j, a, b)] += 1
            for i in range(n):
                for j in range(m):
                    p = float(rows[i][j])
                    freq = counts[i][j] / n_samples
                    if p in (0.0, 1.0):
                        assert freq == p
                        continue
                    sigma = math.sqrt(p * (1 - p) / n_samples)
                    assert abs(freq - p) <= 3 * sigma, (mat_idx, i, j, freq, p)
            for (j, a, b), hits in pair_counts.items():
                pab = float(rows[a][j]) * float(rows[b][j])
                freq = hits / n_samples
                sigma = math.sqrt(max(pab * (1 - pab), 1e-12) / n_samples)
                assert freq <= pab + 3 * sigma, (mat_idx, j, a, b, freq, pab)

    _report(7, "rounding battery: exact column sums, 3-sigma marginals, no positive pairing", 300.0, body)


# ---------------------------------------------------------------------------
# 8: decomposition reconstructs random feasible matrices


def test_criterion_08_decomposition_reconstruction():
    def body():
        rng = SplitMix64(20260818)
        for _ in range(500):
            n = 1 + rng.below(5)
            m = n + rng.below(4)
            terms = 1 + rng.below(8)
            rows = [[F(0)] * m for _ in range(n)]
            weights = [1 + rng.below(9) for _ in range(terms)]
            total = sum(weights)
            for w in weights:
                perm = rng.permutation(m)[:n]
                for i, g in enumerate(perm):
                    rows[i][g] += F(w, total)
            grid = tuple(tuple(r) for r in rows)
            decomp = bvn_decompose(grid)
            assert decomp.reconstruct(n, m) == grid
            assert len(decomp.terms) <= n * m

    _report(8, "500 random matrices decompose exactly with at most n*m terms", 60.0, body)


# ---------------------------------------------------------------------------
# 9: exact distribution of the uniform-envier pool loop


def test_criterion_09_pool_loop_exact_distribution():
    def body():
        rng = SplitMix64(20260819)
        for _ in range(50):
            n = 2 + rng.below(2)
            m = 2 + rng.below(3)
            inst = monotone_instance(rng, n, m)
            dist = exact_distribution_charity(inst, algorithm=3)
            assert sum((w for w, _ in dist.support), start=F(0)) == 1
            rep = check_support(inst, dist, {"c": check_efx_with_charity})["c"]
            assert rep.passed, rep.witness
            sd = check_stochastic_dominance_half(dist, inst)
            assert sd.passed, sd.witness
            for i in inst.agents:
                for j in inst.agents:
                    if i != j:
                        r = exante_ratio(dist, inst, i, j)
                        assert r is None or r >= HALF, (i, j, r)

    _report(9, "pool loop: EFX-with-charity support, exact half dominance and half ratios", 300.0, body)


# ---------------------------------------------------------------------------
# 10: the pool-shrinking variant on subadditive instances


def test_criterion_10_small_pool_variant_expected_share():
    def body():
        rng = SplitMix64(20260820)
        for _ in range(30):
            n = 2 + rng.below(2)
            m = 3 + rng.below(2)
            inst = capped_additive_instance(rng, n, m)
            dist = exact_distribution_charity(inst, algorithm=4)
            rep = check_support(inst, dist, {"b": check_bounded_charity})["b"]
            assert rep.passed, rep.witness
            everything = frozenset(range(inst.m))
            for i in inst.agents:
                expected = sum(
                    (w * value_of(inst, i, a.bundles[i]) for w, a in dist.support),
                    start=F(0),
                )
                floor = value_of(inst, i, everything) / (2 * inst.n)
                assert expected >= floor, (i, expected, floor)

    _report(10, "pool-shrinking variant: bounded pools and a 1/(2n) expected share", 300.0, body)


# ---------------------------------------------------------------------------
# 11: permutation lottery is half-envy-free in expectation


def test_criterion_11_permutation_lottery_half_ef():
    def body():
        rng = SplitMix64(20260821)
        for _ in range(100):
            n = 2 + rng.below(5)
            m = 1 + rng.below(8)
            inst = lex_instance(rng, n, m)
            dist = uniform_permutation(inst, mode="exact")
            rep = check_exante_ef(dist, inst, HALF)
            assert rep.passed, rep.witness

    _report(11, "100-instance permutation lottery sweep is half-EF in expectation", 300.0, body)


# ---------------------------------------------------------------------------
# 12: the eating baseline: dominance-fair fractions, EF1 + sequencible terms


def test_criterion_12_eating_baseline_round_trip():
    def body():
        rng = SplitMix64(20260822)
        for _ in range(100):
            n = 2 + rng.below(4)
            m = 1 + rng.below(10)
            inst = lex_instance(rng, n, m)
            trace = full_run(inst)
            frac = fractional_outcome(trace)
            assert check_sdef_instance(inst, frac.entries).passed
            decomp = bvn_decompose(representative_matrix(trace))
            for _, assignment in decomp.terms:
                alloc = rounds_allocation(assignment, inst.n, inst.m)
                assert check_ef1(inst, alloc).passed
                assert check_po_lex(inst, alloc).passed

    _report(12, "full eating run: sd-EF fractions, every term EF1 and sequencible", 120.0, body)
