"""End-to-end baseline: simultaneous eating, then a lottery over integral
allocations that keeps the fractional fairness in expectation.

Run:  python3 demos/eating_baseline.py
"""

from fractions import Fraction

from bobw import (
    Instance,
    Lexicographic,
    bvn_decompose,
    check_ef1,
    check_po_lex,
    check_sdef,
    format_rational,
    fractional_outcome,
    full_run,
    representative_matrix,
    rounds_allocation,
)


def main() -> None:
    # three agents, five goods, strict ordinal preferences
    inst = Instance(
        n=3,
        m=5,
        valuations=(
            Lexicographic((0, 1, 2, 3, 4)),
            Lexicographic((0, 2, 1, 4, 3)),
            Lexicographic((1, 0, 3, 2, 4)),
        ),
    )

    trace = full_run(inst)
    shares = fractional_outcome(trace)
    print("fractional shares from the eating run:")
    for i, row in enumerate(shares):
        print(f"  agent {i}: " + "  ".join(format_rational(x) for x in row))

    sdef = check_sdef(inst, shares)
    print(f"prefix-dominance envy-freeness: {'pass' if sdef.passed else sdef.witness}")

    decomp = bvn_decompose(representative_matrix(trace))
    print(f"\nlottery with {len(decomp.terms)} outcomes:")
    for weight, assignment in decomp.terms:
        alloc = rounds_allocation(assignment, inst.n, inst.m)
        ef1 = check_ef1(inst, alloc)
        po = check_po_lex(inst, alloc)
        bundles = " | ".join(repr(sorted(b)) for b in alloc.bundles)
        print(
            f"  weight {format_rational(Fraction(weight)):>5}  {bundles}"
            f"  ef1={'ok' if ef1.passed else 'FAIL'}"
            f"  po={'ok' if po.passed else 'FAIL'}"
        )


if __name__ == "__main__":
    main()
