from __future__ import annotations

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bobw import SplitMix64, derive_seed


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next64() for _ in range(100)] == [b.next64() for _ in range(100)]


def test_different_seeds_diverge():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next64() for _ in range(8)] != [b.next64() for _ in range(8)]


def test_next64_is_unsigned_64_bit():
    rng = SplitMix64(0)
    for _ in range(1000):
        x = rng.next64()
        assert 0 <= x < 1 << 64


def test_below_stays_in_range_and_hits_everything():
    rng = SplitMix64(5)
    seen = set()
    for _ in range(600):
        x = rng.below(7)
        assert 0 <= x < 7
        seen.add(x)
    assert seen == set(range(7))


def test_below_one_is_always_zero():
    rng = SplitMix64(9)
    assert all(rng.below(1) == 0 for _ in range(20))


def test_below_rejects_nonpositive():
    rng = SplitMix64(9)
    with pytest.raises(ValueError):
        rng.below(0)


def _ref_below(rng: SplitMix64, n: int) -> int:
    # the one-word rejection loop that drew every bound before bounds past
    # 2**64 were supported, kept verbatim as the reference below
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        r = rng.next64()
        if r < limit:
            return r % n


def test_below_draws_as_the_one_word_reference_up_to_two_to_the_64():
    # every bound a 64-bit word covers keeps its draws, so no seeded output
    # moves; bounds near 2**64 reject often and walk the stream on retries
    bounds = [1, 2, 3, 7, 10**12 + 39, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64]
    bounds += [1 + SplitMix64(31).below(2**k) for k in range(1, 65)]
    for k, n in enumerate(bounds):
        rng, twin = SplitMix64(k), SplitMix64(k)
        for _ in range(20):
            assert rng.below(n) == _ref_below(twin, n), n
        assert rng.next64() == twin.next64()


def test_below_past_two_to_the_64_stays_in_range_and_spreads():
    # one 64-bit word has no multiple of such a bound to keep, so the bound
    # needs wider tries; draws must fill the range, high words included
    for n in (2**64 + 1, 3 * 2**64, 2**200 + 12345):
        rng = SplitMix64(n % 97)
        draws = [rng.below(n) for _ in range(300)]
        assert all(0 <= x < n for x in draws)
        assert sum(x >= n // 2 for x in draws) > 100, n
    rng = SplitMix64(37)
    assert {rng.event(Fraction(2**64, 2**64 + 1)) for _ in range(20)} == {True}


def test_odds_past_64_bits_finish_a_rounding():
    # entries 1e-30 and 1 - 1e-30 give pivot odds whose denominator passes
    # 2**64; run in a child process under a timeout, so a regression fails
    # here instead of hanging the suite
    code = (
        "from fractions import Fraction as F\n"
        "from bobw import SplitMix64, dependent_round\n"
        "e = F(1, 10**30)\n"
        "assert SplitMix64(3).event(1 - e) in (True, False)\n"
        "print(dependent_round(((e, 1 - e), (1 - e, e)), 3))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert run.returncode == 0, run.stderr
    out = ast.literal_eval(run.stdout)
    assert out in (((0, 1), (1, 0)), ((1, 0), (0, 1)))


def test_event_degenerate_probabilities():
    rng = SplitMix64(11)
    assert all(rng.event(Fraction(1)) for _ in range(10))
    assert not any(rng.event(Fraction(0)) for _ in range(10))


def test_event_frequency_half_within_three_sigma():
    rng = SplitMix64(13)
    n = 20000
    hits = sum(rng.event(Fraction(1, 2)) for _ in range(n))
    # sd of a fair-coin count is sqrt(n)/2
    assert abs(hits - n / 2) <= 3 * (n ** 0.5) / 2


def test_event_frequency_one_third_within_three_sigma():
    rng = SplitMix64(17)
    n = 18000
    hits = sum(rng.event(Fraction(1, 3)) for _ in range(n))
    mean, sd = n / 3, (n * (1 / 3) * (2 / 3)) ** 0.5
    assert abs(hits - mean) <= 3 * sd


def test_event_refuses_probabilities_outside_the_unit_interval():
    rng = SplitMix64(19)
    for p in (Fraction(-1, 3), Fraction(-1), Fraction(4, 3), Fraction(2), 2, -1):
        with pytest.raises(ValueError, match="probability out of range"):
            rng.event(p)
    # neither the refusals nor the certain events draw, and an event with
    # odds p/q is one draw below q
    assert rng.event(1) and not rng.event(Fraction(0))
    twin = SplitMix64(19)
    for p in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(3, 10**12 + 39)) * 5:
        assert rng.event(p) == (twin.below(p.denominator) < p.numerator)


def test_permutation_covers_range():
    rng = SplitMix64(23)
    for size in (1, 2, 5, 9):
        perm = rng.permutation(size)
        assert sorted(perm) == list(range(size))


def test_permutation_is_not_constant():
    rng = SplitMix64(29)
    perms = {tuple(rng.permutation(5)) for _ in range(50)}
    assert len(perms) > 10


def test_derive_seed_is_deterministic_and_spreads():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    children = {derive_seed(42, i) for i in range(1000)}
    assert len(children) == 1000
    assert all(0 <= s < 1 << 64 for s in children)


def test_derive_seed_differs_from_parent_stream():
    parent = SplitMix64(42)
    child = SplitMix64(derive_seed(42, 1))
    assert [parent.next64() for _ in range(4)] != [child.next64() for _ in range(4)]
