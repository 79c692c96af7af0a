"""Tour of the lottery constructions for lexicographic agents: the tail
lottery, the k = 2 sampler, and the uniform random-order baseline.

Run:  python3 demos/lottery_tour.py
"""

from fractions import Fraction

from bobw import (
    check_efx,
    check_exante_ef,
    check_po_lex,
    check_support,
    format_rational,
    get_fixture,
    k2_sampler,
    min_exante_ratio,
    permutation_sampler,
    solve_lex_bobw,
    summarize,
    uniform_permutation,
    unit_run,
    utse,
)


def _bundles(alloc) -> str:
    return " | ".join(repr(sorted(b)) for b in alloc.bundles)


def _show_distribution(dist) -> None:
    for weight, alloc in dist.support:
        print(f"  {format_rational(weight):>5}  {_bundles(alloc)}")


def main() -> None:
    # tail lottery on a two-agent fixture where one good is split
    inst = get_fixture("FIX-D")
    dist = utse(inst)
    print("tail lottery support (two agents, three goods):")
    _show_distribution(dist)
    audits = check_support(inst, dist, {"efx": check_efx, "po": check_po_lex})
    print("  every outcome efx:", audits["efx"].passed, " po:", audits["po"].passed)
    print("  worst pairwise expectation ratio:", format_rational(min_exante_ratio(dist, inst)))

    # when exactly two agents still hold a split good, sample instead
    inst_c = get_fixture("FIX-C")
    k = summarize(unit_run(inst_c)).k
    print(f"\nfour-agent fixture has k = {k}; drawing three samples:")
    sample = k2_sampler(inst_c)
    for seed in (0, 1, 2):
        print(f"  seed {seed}: {_bundles(sample(seed))}")

    routed_k, outcome = solve_lex_bobw(inst_c, seed=0)
    print(f"  router (k = {routed_k}) draws one outcome at seed 0: {_bundles(outcome)}")

    # baseline: uniform random picking order, half envy-free in expectation
    inst_b = get_fixture("FIX-B")
    baseline = uniform_permutation(inst_b)
    half_ef = check_exante_ef(baseline, inst_b, Fraction(1, 2))
    print("\nuniform random-order baseline on the six-agent fixture:")
    print("  half envy-free in expectation:", half_ef.passed)
    print("  worst ratio:", format_rational(min_exante_ratio(baseline, inst_b)))
    print("  one seeded order at seed 0:", _bundles(permutation_sampler(inst_b)(0)))


if __name__ == "__main__":
    main()
