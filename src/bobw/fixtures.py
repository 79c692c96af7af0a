"""Named benchmark instances used across tests, demos, and the CLI.

FIX-A  3 agents / 4 goods, lexicographic.  The smallest instance family on
       which no lottery over envy-bounded allocations can be prefix-fair for
       every pair; its four EFX allocations are enumerable by hand.
FIX-B  6 agents / 6 goods, additive with a small rational epsilon; two agents
       fight over two near-identical top goods while the rest agree.
FIX-C  4 agents / 5 goods, additive with epsilon; the simultaneous-eating
       stage ends with exactly two units of last-good mass (k = 2), making it
       the canonical input for the paired-rounding sampler.
FIX-D  2 agents / 3 goods, identical lexicographic rankings.
FIX-E  2 agents / 3 goods, additive values encoded as full set-function
       tables; exercises the table code paths.

Epsilon-parameterized fixtures default to epsilon = 1/1000, small enough that
every additive row is lexicographically consistent.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Additive, Instance, Lexicographic, PreconditionError, Table

DEFAULT_EPSILON = Fraction(1, 1000)


def fix_a() -> Instance:
    rankings = [
        (0, 2, 3, 1),
        (0, 1, 3, 2),
        (1, 2, 3, 0),
    ]
    return Instance(
        n=3,
        m=4,
        valuations=tuple(Lexicographic(r) for r in rankings),
        labels=("g1", "g2", "g3", "g4"),
    )


def fix_b(epsilon: Fraction = DEFAULT_EPSILON) -> Instance:
    e = Fraction(epsilon)
    row_1 = (1 + 16 * e, Fraction(1), 8 * e, 4 * e, 2 * e, e)
    row_2 = (Fraction(1), 1 + 16 * e, 8 * e, 4 * e, 2 * e, e)
    row_rest = (Fraction(1), e, 8 * e, 4 * e, 2 * e, 1 + 16 * e)
    rows = [row_1, row_2] + [row_rest] * 4
    return Instance(
        n=6,
        m=6,
        valuations=tuple(Additive(r) for r in rows),
        labels=tuple(f"g{j}" for j in range(1, 7)),
        epsilon=e,
    )


def fix_c(epsilon: Fraction = DEFAULT_EPSILON) -> Instance:
    e = Fraction(epsilon)
    row_12 = (4 + e, 2 + e / 2, Fraction(2), e / 4, e / 8)
    row_3 = (e / 8, e / 4, 2 + e / 2, 4 + e, Fraction(2))
    row_4 = (e / 8, e / 4, Fraction(2), 4 + e, 2 + e / 2)
    rows = [row_12, row_12, row_3, row_4]
    return Instance(
        n=4,
        m=5,
        valuations=tuple(Additive(r) for r in rows),
        labels=tuple(f"g{j}" for j in range(1, 6)),
        epsilon=e,
    )


def fix_d() -> Instance:
    ranking = (0, 1, 2)
    return Instance(
        n=2,
        m=3,
        valuations=(Lexicographic(ranking), Lexicographic(ranking)),
        labels=("g1", "g2", "g3"),
    )


def fix_e() -> Instance:
    def additive_table(per_good):
        values = []
        for mask in range(1 << 3):
            values.append(sum(per_good[g] for g in range(3) if mask & (1 << g)))
        return Table(values, subadditive=True)

    return Instance(
        n=2,
        m=3,
        valuations=(additive_table((3, 2, 1)), additive_table((3, 1, 2))),
        labels=("a", "b", "c"),
    )


_BUILDERS = {
    "FIX-A": fix_a,
    "FIX-B": fix_b,
    "FIX-C": fix_c,
    "FIX-D": fix_d,
    "FIX-E": fix_e,
}

_EPSILON_FIXTURES = {"FIX-B", "FIX-C"}

FIXTURE_NAMES = tuple(sorted(_BUILDERS))


def get_fixture(name: str, epsilon: Fraction | None = None) -> Instance:
    key = name.upper()
    if key not in _BUILDERS:
        raise PreconditionError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    if key in _EPSILON_FIXTURES:
        return _BUILDERS[key](DEFAULT_EPSILON if epsilon is None else Fraction(epsilon))
    if epsilon is not None:
        raise PreconditionError(f"fixture {key} takes no epsilon")
    return _BUILDERS[key]()
