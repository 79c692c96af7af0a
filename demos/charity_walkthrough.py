"""Charity pipeline for general monotone agents: the randomized pool-swap
loop, its auditable trace, and the deterministic pool-shrinking post-pass.

Run:  python3 demos/charity_walkthrough.py
"""

from bobw import (
    Additive,
    Instance,
    bounded_charity,
    check_bounded_charity,
    check_efx_with_charity,
    check_stochastic_dominance_half,
    exact_distribution_charity,
    format_rational,
    random_charity_swap,
    replay_swap_trace,
)


def _show(alloc) -> str:
    bundles = " | ".join(repr(sorted(b)) for b in alloc.bundles)
    return f"{bundles}  pool={sorted(alloc.pool)}"


def main() -> None:
    inst = Instance(
        n=2,
        m=5,
        valuations=(Additive((10, 9, 1, 2, 3)), Additive((10, 9, 1, 2, 3))),
    )

    alloc, trace = random_charity_swap(inst, seed=7)
    print("pool-swap loop, seed 7:")
    for step in trace.steps:
        print(f"  moved {sorted(step.subset)} to agent {step.chosen} (enviers {list(step.enviers)})")
    print("  final:", _show(alloc))
    print("  efx with unenvied pool:", check_efx_with_charity(inst, alloc).passed)
    print("  trace replays:", replay_swap_trace(inst, trace) == alloc)

    tightened = bounded_charity(inst, alloc)
    print("\nafter the pool-shrinking post-pass:")
    print("  final:", _show(tightened))
    print("  pool bounded:", check_bounded_charity(inst, tightened).passed)

    # exact law of the randomized loop, by a walk that merges equal states
    dist = exact_distribution_charity(inst, algorithm=3)
    print("\nexact distribution over final allocations:")
    for weight, outcome in dist.support:
        print(f"  {format_rational(weight):>5}  {_show(outcome)}")
    sd = check_stochastic_dominance_half(dist, inst)
    print("  half stochastic dominance:", sd.passed)


if __name__ == "__main__":
    main()
