"""Instances, valuations, allocations, and exact-arithmetic helpers.

Every quantity that enters an allocation decision is an exact rational
(`fractions.Fraction`); floats are banned from these paths so that fairness
verdicts are never tolerance-dependent.  Three valuation classes are
supported:

* ``Additive`` -- one value per good, bundle value is the sum.
* ``Lexicographic`` -- a strict ranking of the goods; any good is worth more
  than all strictly less-preferred goods together.  Cardinal queries use the
  canonical power-of-two profile (top good worth 2^(m-1), then 2^(m-2), ...),
  which realizes exactly that ordering.
* ``Table`` -- an explicit set function over all 2^m bundles, used for the
  monotone / subadditive algorithms.  Capped at 20 goods.

Allocation containers come in three flavours: integral (bundles plus an
optional unallocated pool), fractional (a matrix of consumption shares), and
randomized (a finitely supported lottery over integral allocations whose
probabilities sum to exactly one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

TABLE_GOODS_CAP = 20


class FairDivisionError(Exception):
    """Base class for package errors."""


class PreconditionError(FairDivisionError):
    """An operation was called outside its stated preconditions."""


class ResourceCapError(FairDivisionError):
    """An enumeration or iteration cap was exhausted."""


def parse_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Accept ints, Fractions, or 'p/q' / 'p' strings."""
    if isinstance(value, bool):
        raise PreconditionError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"cannot interpret {value!r} as a rational") from None
    raise PreconditionError(f"cannot interpret {value!r} as a rational")


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def _as_bundle(goods: Iterable[int]) -> frozenset[int]:
    return goods if isinstance(goods, frozenset) else frozenset(goods)


# ---------------------------------------------------------------------------
# valuations


@dataclass(frozen=True)
class Additive:
    values: tuple[Fraction, ...]

    kind = "additive"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def value(self, bundle: Iterable[int]) -> Fraction:
        return sum((self.values[g] for g in bundle), start=Fraction(0))

    def ordinal_ranking(self) -> tuple[int, ...]:
        """Goods sorted by decreasing value; errors on ties (no strict order)."""
        if self._strict_ranking is None:
            raise PreconditionError("additive values are tied: ordinal order is ambiguous")
        return self._strict_ranking

    @cached_property
    def _strict_ranking(self) -> Optional[tuple[int, ...]]:
        # audits ask for the ranking once per outcome; values never change
        if len(set(self.values)) != len(self.values):
            return None
        return tuple(sorted(range(len(self.values)), key=lambda g: (-self.values[g], g)))


@dataclass(frozen=True)
class Lexicographic:
    ranking: tuple[int, ...]  # most preferred first

    kind = "lexicographic"

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(int(g) for g in self.ranking))

    def value(self, bundle: Iterable[int]) -> Fraction:
        values = canonical_lex_values(self.ranking)
        return Fraction(sum(values[g] for g in bundle))

    def ordinal_ranking(self) -> tuple[int, ...]:
        return self.ranking


@dataclass(frozen=True)
class Table:
    values: tuple[Fraction, ...]  # indexed by bundle bitmask, length 2^m
    subadditive: bool = False

    kind = "table"

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    @property
    def num_goods(self) -> int:
        return max(len(self.values) - 1, 0).bit_length()

    def value(self, bundle: Iterable[int]) -> Fraction:
        mask = 0
        for g in bundle:
            mask |= 1 << g
        return self.values[mask]

    def ordinal_ranking(self) -> tuple[int, ...]:
        raise PreconditionError("table valuations carry no strict ordinal ranking")


Valuation = Union[Additive, Lexicographic, Table]


def canonical_lex_values(ranking: Sequence[int]) -> tuple[int, ...]:
    """Cardinal profile realizing a ranking: position r is worth 2^(m-1-r)."""
    m = len(ranking)
    values = [0] * m
    for r, g in enumerate(ranking):
        values[g] = 1 << (m - 1 - r)
    return tuple(values)


def is_lexicographic_additive(values: Sequence[Fraction]) -> bool:
    """True iff all values are distinct and each exceeds the sum of all
    strictly smaller values (so that single goods dominate bundles below)."""
    vals = [Fraction(v) for v in values]
    if len(set(vals)) != len(vals):
        return False
    ordered = sorted(vals)
    below = Fraction(0)
    for v in ordered:
        if v <= below:
            return False
        below += v
    return True


def lex_compare_bundles(ranking: Sequence[int], left: Iterable[int], right: Iterable[int]) -> int:
    """Compare two bundles under a lexicographic ranking: -1, 0, or +1.

    Scan goods from most to least preferred; the first good held by exactly
    one side decides.  Agrees with comparing canonical cardinal sums.
    """
    ls, rs = _as_bundle(left), _as_bundle(right)
    for g in ranking:
        in_l, in_r = g in ls, g in rs
        if in_l and not in_r:
            return 1
        if in_r and not in_l:
            return -1
    return 0


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Instance:
    n: int
    m: int
    valuations: tuple[Valuation, ...]
    labels: Optional[tuple[str, ...]] = None
    epsilon: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "valuations", tuple(self.valuations))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.valuations) != self.n:
            raise PreconditionError("need one valuation per agent")

    @property
    def goods(self) -> range:
        return range(self.m)

    @property
    def agents(self) -> range:
        return range(self.n)

    def good_label(self, g: int) -> str:
        if self.labels is not None and 0 <= g < len(self.labels):
            return self.labels[g]
        return f"g{g + 1}"


def value_of(inst: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    return inst.valuations[agent].value(bundle)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    agents: tuple[dict, ...]
    errors: tuple[str, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "agents": list(self.agents), "errors": list(self.errors)}


def validate_instance(inst: Instance) -> ValidationReport:
    """Deep semantic validation; returns a report instead of raising so the
    CLI can print every problem at once."""
    errors: list[str] = []
    agents: list[dict] = []
    if inst.m < 1 or inst.n < 1:
        errors.append("need at least one agent and one good")
    if inst.labels is not None and len(inst.labels) != inst.m:
        errors.append("labels length differs from m")
    for i, val in enumerate(inst.valuations):
        info: dict = {"agent": i, "kind": val.kind}
        if isinstance(val, Additive):
            if len(val.values) != inst.m:
                errors.append(f"agent {i}: additive values length {len(val.values)} != m")
            if any(v < 0 for v in val.values):
                errors.append(f"agent {i}: negative value")
            info["lexicographic_consistent"] = is_lexicographic_additive(val.values)
        elif isinstance(val, Lexicographic):
            if sorted(val.ranking) != list(range(inst.m)):
                errors.append(f"agent {i}: ranking is not a permutation of the goods")
        elif isinstance(val, Table):
            if inst.m > TABLE_GOODS_CAP:
                errors.append(f"agent {i}: table valuations capped at {TABLE_GOODS_CAP} goods")
            if len(val.values) != (1 << inst.m):
                errors.append(f"agent {i}: table length {len(val.values)} != 2^m")
            else:
                if val.values[0] != 0:
                    errors.append(f"agent {i}: empty-set value nonzero")
                if any(v < 0 for v in val.values):
                    errors.append(f"agent {i}: negative value")
                monotone = _table_monotone(val.values, inst.m)
                info["monotone"] = monotone
                if not monotone:
                    errors.append(f"agent {i}: non-monotone table")
                if val.subadditive:
                    sub = _table_subadditive(val.values, inst.m)
                    info["subadditive"] = sub
                    if not sub:
                        errors.append(f"agent {i}: table flagged subadditive but is not")
        else:  # pragma: no cover - guarded by the Valuation union
            errors.append(f"agent {i}: unknown valuation kind")
        agents.append(info)
    return ValidationReport(ok=not errors, agents=tuple(agents), errors=tuple(errors))


def _table_monotone(values: Sequence[Fraction], m: int) -> bool:
    # v(S \ {g}) <= v(S) for every S and g in S suffices by induction.
    for mask in range(1, 1 << m):
        for g in range(m):
            if mask & (1 << g) and values[mask ^ (1 << g)] > values[mask]:
                return False
    return True


def _table_subadditive(values: Sequence[Fraction], m: int) -> bool:
    # Under monotonicity, checking disjoint pairs covers the general case:
    # v(S u T) <= v(S) + v(T \ S) <= v(S) + v(T).
    full = (1 << m) - 1
    for s in range(1, 1 << m):
        rest = full & ~s
        t = rest
        while t:
            if values[s] + values[t] < values[s | t]:
                return False
            t = (t - 1) & rest
    return True


# ---------------------------------------------------------------------------
# allocations


@dataclass(frozen=True)
class IntegralAllocation:
    bundles: tuple[frozenset[int], ...]
    pool: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "bundles", tuple(_as_bundle(b) for b in self.bundles))
        object.__setattr__(self, "pool", _as_bundle(self.pool))
        seen: set[int] = set()
        for part in (*self.bundles, self.pool):
            if seen & part:
                raise PreconditionError("bundles and pool must be pairwise disjoint")
            seen |= part

    @property
    def n(self) -> int:
        return len(self.bundles)

    def allocated(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for b in self.bundles:
            out |= b
        return out

    def is_complete(self, m: int) -> bool:
        return self.allocated() | self.pool == frozenset(range(m))

    def key(self) -> tuple:
        """Canonical identity used to merge lottery supports."""
        return (tuple(tuple(sorted(b)) for b in self.bundles), tuple(sorted(self.pool)))

    def to_json(self) -> dict:
        out = {"bundles": [sorted(b) for b in self.bundles]}
        out["pool"] = sorted(self.pool)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "IntegralAllocation":
        return cls(
            bundles=tuple(frozenset(b) for b in data["bundles"]),
            pool=frozenset(data.get("pool", ())),
        )


@dataclass(frozen=True)
class FractionalAllocation:
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        if not rows:
            raise PreconditionError("empty matrix")
        m = len(rows[0])
        if any(len(r) != m for r in rows):
            raise PreconditionError("ragged matrix")
        for row in rows:
            for x in row:
                if x < 0 or x > 1:
                    raise PreconditionError("entries must lie in [0, 1]")
        for j in range(m):
            if sum(r[j] for r in rows) > 1:
                raise PreconditionError(f"column {j} sums above one")

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def m(self) -> int:
        return len(self.entries[0])

    def column_sum(self, j: int) -> Fraction:
        return sum((row[j] for row in self.entries), start=Fraction(0))

    def is_complete(self) -> bool:
        return all(self.column_sum(j) == 1 for j in range(self.m))

    def to_json(self) -> dict:
        return {"entries": [[format_rational(x) for x in row] for row in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "FractionalAllocation":
        return cls(tuple(tuple(parse_rational(x) for x in row) for row in data["entries"]))


@dataclass(frozen=True)
class RandomizedAllocation:
    support: tuple[tuple[Fraction, IntegralAllocation], ...]

    def __post_init__(self):
        sup = tuple((Fraction(p), a) for p, a in self.support)
        object.__setattr__(self, "support", sup)
        if any(p <= 0 for p, _ in sup):
            raise PreconditionError("support probabilities must be positive")
        if sum(p for p, _ in sup) != 1:
            raise PreconditionError("support probabilities must sum to exactly one")

    @classmethod
    def merged(cls, pairs: Iterable[tuple[Fraction, IntegralAllocation]]) -> "RandomizedAllocation":
        """Build a lottery, merging duplicate outcomes by canonical identity."""
        acc: dict[tuple, tuple[Fraction, IntegralAllocation]] = {}
        for p, alloc in pairs:
            k = alloc.key()
            if k in acc:
                acc[k] = (acc[k][0] + Fraction(p), acc[k][1])
            else:
                acc[k] = (Fraction(p), alloc)
        support = tuple(acc[k] for k in sorted(acc))
        return cls(support)

    def expected_value(self, inst: Instance, viewer: int, holder: int) -> Fraction:
        return sum(
            (p * value_of(inst, viewer, alloc.bundles[holder]) for p, alloc in self.support),
            start=Fraction(0),
        )

    def associated_fractional(self, m: int) -> FractionalAllocation:
        n = self.support[0][1].n
        rows = [[Fraction(0)] * m for _ in range(n)]
        for p, alloc in self.support:
            for i, bundle in enumerate(alloc.bundles):
                for g in bundle:
                    rows[i][g] += p
        return FractionalAllocation(tuple(tuple(row) for row in rows))

    def to_json(self) -> dict:
        return {
            "support": [
                {"prob": format_rational(p), **alloc.to_json()} for p, alloc in self.support
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "RandomizedAllocation":
        return cls(
            tuple(
                (parse_rational(entry["prob"]), IntegralAllocation.from_json(entry))
                for entry in data["support"]
            )
        )


# ---------------------------------------------------------------------------
# instance JSON


def instance_to_json(inst: Instance) -> dict:
    out: dict = {"n": inst.n, "m": inst.m}
    if inst.labels is not None:
        out["labels"] = list(inst.labels)
    if inst.epsilon is not None:
        out["epsilon"] = format_rational(inst.epsilon)
    vals = []
    for val in inst.valuations:
        if isinstance(val, Additive):
            vals.append({"kind": "additive", "values": [format_rational(v) for v in val.values]})
        elif isinstance(val, Lexicographic):
            vals.append({"kind": "lexicographic", "ranking": list(val.ranking)})
        else:
            entry = {"kind": "table", "values": [format_rational(v) for v in val.values]}
            if val.subadditive:
                entry["subadditive"] = True
            vals.append(entry)
    out["valuations"] = vals
    return out


def instance_from_json(data: dict) -> Instance:
    vals: list[Valuation] = []
    for entry in data["valuations"]:
        kind = entry.get("kind")
        if kind == "additive":
            vals.append(Additive(tuple(parse_rational(v) for v in entry["values"])))
        elif kind == "lexicographic":
            vals.append(Lexicographic(tuple(entry["ranking"])))
        elif kind == "table":
            vals.append(
                Table(
                    tuple(parse_rational(v) for v in entry["values"]),
                    subadditive=bool(entry.get("subadditive", False)),
                )
            )
        else:
            raise PreconditionError(f"unknown valuation kind {kind!r}")
    labels = tuple(data["labels"]) if "labels" in data else None
    eps = parse_rational(data["epsilon"]) if "epsilon" in data else None
    return Instance(n=int(data["n"]), m=int(data["m"]), valuations=tuple(vals), labels=labels, epsilon=eps)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))


def dump_instance(inst: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(inst), fh, indent=2)
        fh.write("\n")
