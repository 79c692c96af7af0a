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

Each valuation holds an integer form: a positive ``scale`` and integer
``weights`` (per good, or per table bitmask), with v(B) = ``int_value(B)``
/ ``scale``.  ``Additive`` and ``Table`` build it from their values when
constructed, parsing with ``int()`` first (``parse_exact``);
``Lexicographic`` derives its powers of two once, on first use.
``Instance`` checks that each valuation fits its goods (``shape_error``),
so code past construction may index freely.

Allocation containers come in two flavours: integral (bundles plus an
optional unallocated pool) and randomized (a finitely supported lottery over
integral allocations whose probabilities sum to exactly one, every outcome
with the same number of bundles).  A fractional allocation is a plain share
matrix, a tuple of ``Fraction`` rows.  Neither container knows the
instance: ``require_fits`` checks that a caller's allocations fit one, once,
where they enter an algorithm.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import le
from typing import Iterable, Optional, Sequence, Union

TABLE_GOODS_CAP = 20


class FairDivisionError(Exception):
    """Base class for package errors."""


class PreconditionError(FairDivisionError):
    """An operation was called outside its stated preconditions."""


class ResourceCapError(FairDivisionError):
    """An enumeration or iteration cap was exhausted."""


def parse_exact(value: Union[int, str, Fraction]) -> Union[int, Fraction]:
    """Accept ints, Fractions, or 'p/q' / 'p' / decimal strings; bools, floats
    and anything else are a PreconditionError.  Ints and the strings int()
    reads come back as ints (int() agrees with Fraction(str) wherever it
    succeeds), everything else as a Fraction."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"cannot interpret {value!r} as a rational") from None
    if isinstance(value, bool):
        raise PreconditionError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise PreconditionError(f"cannot interpret {value!r} as a rational")


def parse_rational(value: Union[int, str, Fraction]) -> Fraction:
    """parse_exact's number as a Fraction."""
    x = parse_exact(value)
    return x if type(x) is Fraction else Fraction(x)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def json_field(data, key: str, kind: Optional[type] = None):
    """data[key] of a parsed JSON object; PreconditionError if `data` is not
    an object, lacks the key, or holds a value that is not a `kind`."""
    if not isinstance(data, dict) or key not in data:
        raise PreconditionError(f"missing field {key!r}")
    if kind is not None and not isinstance(data[key], kind):
        raise PreconditionError(f"field {key!r} must be a {kind.__name__}")
    return data[key]


def json_goods(items, what: str) -> list[int]:
    """A JSON list of good indices (integers, not booleans)."""
    if not isinstance(items, list) or any(type(g) is not int for g in items):
        raise PreconditionError(f"{what} must be a list of integer goods")
    return items


def _as_bundle(goods: Iterable[int]) -> frozenset[int]:
    return goods if isinstance(goods, frozenset) else frozenset(goods)


# ---------------------------------------------------------------------------
# valuations


def _integer_form(values: Iterable) -> tuple[int, tuple[int, ...]]:
    """(scale, weights) with value k = weights[k] / scale: the scale is the
    LCM of the reduced denominators, so it is 1 iff every value is an integer."""
    values = tuple(values)
    if set(map(type, values)) <= {int, str}:  # parse_exact's int() path, in one pass
        try:
            return 1, tuple(map(int, values))
        except ValueError:
            pass
    exact = [parse_exact(v) for v in values]
    scale = lcm(*(x.denominator for x in exact))
    return scale, tuple(x.numerator * (scale // x.denominator) for x in exact)


def _monotone_integer_error(val: Valuation) -> Optional[str]:
    """Why the pool-swap algorithms cannot take a valuation, or None; each
    valuation caches it."""
    if val.scale != 1:
        return "non-integer valuations"
    if min(val.weights, default=0) < 0:
        return "negative valuations"
    if isinstance(val, Table) and val.weights[0] != 0:
        return "empty-set value nonzero"
    if isinstance(val, Table) and not _table_monotone(val.weights):
        return "non-monotone table"
    return None


def _subadditive_error(val: Valuation) -> Optional[str]:
    """Why a valuation is not subadditive, v(S | T) <= v(S) + v(T), or None;
    each valuation caches it.  Lexicographic valuations and additive ones
    without negative values are; a table is checked over its 3^m disjoint
    pairs, which decides it for monotone tables, so ask only where the
    verdict is needed."""
    if isinstance(val, Table):
        return None if _table_subadditive(val.weights) else "table not subadditive"
    if isinstance(val, Additive) and min(val.weights, default=0) < 0:
        return "negative valuations"
    return None


class _IntegerForm:
    """v(B) = int_value(B) / scale, with int_value summing per-good weights
    (a table overrides it with one lookup)."""

    monotone_integer_error = cached_property(_monotone_integer_error)
    subadditive_error = cached_property(_subadditive_error)

    def int_value(self, bundle: Iterable[int]) -> int:
        return sum(map(self.weights.__getitem__, bundle))

    def value(self, bundle: Iterable[int]) -> Fraction:
        return Fraction(self.int_value(bundle), self.scale)

    @property
    def values(self) -> tuple[Fraction, ...]:  # rebuilt on every call
        return tuple(Fraction(w, self.scale) for w in self.weights)


@dataclass(frozen=True, init=False, repr=False)
class Additive(_IntegerForm):
    scale: int
    weights: tuple[int, ...]

    kind = "additive"

    def __init__(self, values: Iterable):
        scale, weights = _integer_form(values)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weights", weights)

    def __repr__(self) -> str:
        return f"Additive(values={self.values!r})"

    def ordinal_ranking(self) -> tuple[int, ...]:
        """Goods sorted by decreasing value; errors on ties (no strict order)."""
        if self._strict_ranking is None:
            raise PreconditionError("additive values are tied: ordinal order is ambiguous")
        return self._strict_ranking

    @cached_property
    def _strict_ranking(self) -> Optional[tuple[int, ...]]:
        # audits ask for the ranking once per outcome; values never change
        w = self.weights
        if len(set(w)) != len(w):
            return None
        return tuple(sorted(range(len(w)), key=lambda g: (-w[g], g)))


@dataclass(frozen=True)
class Lexicographic(_IntegerForm):
    ranking: tuple[int, ...]  # most preferred first

    kind = "lexicographic"
    scale = 1

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if any(type(g) is not int for g in self.ranking):
            raise PreconditionError("a ranking lists goods as integers")

    @cached_property
    def weights(self) -> tuple[int, ...]:
        # derived on first use: code that never compares values (eating,
        # rounding) keeps m big ints per agent out of memory
        return canonical_lex_values(self.ranking)

    def ordinal_ranking(self) -> tuple[int, ...]:
        return self.ranking


@dataclass(frozen=True, init=False, repr=False)
class Table(_IntegerForm):
    scale: int
    weights: tuple[int, ...]  # indexed by bundle bitmask, length 2^m
    subadditive: bool

    kind = "table"

    def __init__(self, values: Iterable, subadditive: bool = False):
        scale, weights = _integer_form(values)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "subadditive", subadditive)

    def __repr__(self) -> str:
        return f"Table(values={self.values!r}, subadditive={self.subadditive!r})"

    def int_value(self, bundle: Iterable[int]) -> int:
        return self.weights[bundle_mask(bundle)]

    def ordinal_ranking(self) -> tuple[int, ...]:
        raise PreconditionError("table valuations carry no strict ordinal ranking")


def bundle_mask(bundle: Iterable[int]) -> int:
    mask = 0
    for g in bundle:
        mask |= 1 << g
    return mask


def _table_monotone(weights: Sequence[int]) -> bool:
    """v(S \\ {g}) <= v(S) for every S and g in S (enough, by induction).
    For good g = log2(step) each mask without g pairs with the mask `step`
    above it; the pairs are sliced out by residue modulo 2 * step while step
    is small, and by block once it is large, so that each good takes at most
    sqrt(2^m / 2) slice pairs."""
    size, step = len(weights), 1
    while step < size:
        span = 2 * step
        if step * span <= size:
            pairs = ((weights[r::span], weights[r + step :: span]) for r in range(step))
        else:
            pairs = ((weights[lo : lo + step], weights[lo + step : lo + span]) for lo in range(0, size, span))
        if not all(all(map(le, low, high)) for low, high in pairs):
            return False
        step = span
    return True


Valuation = Union[Additive, Lexicographic, Table]


def canonical_lex_values(ranking: Sequence[int]) -> tuple[int, ...]:
    """Cardinal profile realizing a ranking: position r is worth 2^(m-1-r)."""
    m = len(ranking)
    values = [0] * m
    for r, g in enumerate(ranking):
        values[g] = 1 << (m - 1 - r)
    return tuple(values)


def is_lexicographic_additive(values: Sequence[Union[int, Fraction]]) -> bool:
    """True iff all values are distinct and each exceeds the sum of all
    strictly smaller values (so that single goods dominate bundles below)."""
    if len(set(values)) != len(values):
        return False
    ordered = sorted(values)
    below = 0
    for v in ordered:
        if v <= below:
            return False
        below += v
    return True


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
            if not isinstance(self.labels, (list, tuple)) or any(type(x) is not str for x in self.labels):
                raise PreconditionError("labels must be a list of strings")
            object.__setattr__(self, "labels", tuple(self.labels))
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", parse_rational(self.epsilon))
        for name in ("n", "m"):
            count = getattr(self, name)
            if type(count) is not int or count < 0:
                raise PreconditionError(f"{name} must be a non-negative integer, got {count!r}")
        if self.n < 1:
            raise PreconditionError("need at least one agent")
        if len(self.valuations) != self.n:
            raise PreconditionError("need one valuation per agent")
        for i, val in enumerate(self.valuations):
            if shape := shape_error(val, self.m):
                raise PreconditionError(f"agent {i}: {shape}")

    @property
    def goods(self) -> range:
        return range(self.m)

    @property
    def agents(self) -> range:
        return range(self.n)


def value_of(inst: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    return inst.valuations[agent].value(bundle)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    agents: tuple[dict, ...]
    errors: tuple[str, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "agents": list(self.agents), "errors": list(self.errors)}


def shape_error(val: Valuation, m: int) -> Optional[str]:
    """Why a valuation cannot even be indexed over m goods, or None: a
    ranking that is not a permutation of range(m), an additive vector not of
    length m, a table over more than TABLE_GOODS_CAP goods or not of length
    2^m."""
    if isinstance(val, Additive) and len(val.weights) != m:
        return f"additive values length {len(val.weights)} != m"
    if isinstance(val, Lexicographic) and (
        len(val.ranking) != m or sorted(val.ranking) != list(range(m))
    ):
        return "ranking is not a permutation of the goods"
    if isinstance(val, Table) and m > TABLE_GOODS_CAP:
        return f"table valuations capped at {TABLE_GOODS_CAP} goods"
    if isinstance(val, Table) and len(val.weights) != (1 << m):
        return f"table length {len(val.weights)} != 2^m"
    return None


def validate_instance(inst: Instance) -> ValidationReport:
    """The semantic checks that construction (shapes, values) leaves out;
    returns a report instead of raising so the CLI can print them all."""
    errors: list[str] = []
    agents: list[dict] = []
    if inst.m < 1:
        errors.append("need at least one good")
    if inst.labels is not None and len(inst.labels) != inst.m:
        errors.append("labels length differs from m")
    for i, val in enumerate(inst.valuations):
        info: dict = {"agent": i, "kind": val.kind}
        if isinstance(val, Additive):
            if min(val.weights, default=0) < 0:
                errors.append(f"agent {i}: negative value")
            info["lexicographic_consistent"] = is_lexicographic_additive(val.weights)
        elif isinstance(val, Table):
            if val.weights[0] != 0:
                errors.append(f"agent {i}: empty-set value nonzero")
            if min(val.weights, default=0) < 0:
                errors.append(f"agent {i}: negative value")
            info["monotone"] = _table_monotone(val.weights)
            if not info["monotone"]:
                errors.append(f"agent {i}: non-monotone table")
            if val.subadditive:
                info["subadditive"] = val.subadditive_error is None
                if not info["subadditive"]:
                    errors.append(f"agent {i}: table flagged subadditive but is not")
        agents.append(info)
    return ValidationReport(ok=not errors, agents=tuple(agents), errors=tuple(errors))


def _table_subadditive(weights: Sequence[int]) -> bool:
    # Under monotonicity, checking disjoint pairs covers the general case:
    # v(S u T) <= v(S) + v(T \ S) <= v(S) + v(T).
    full = len(weights) - 1
    for s in range(1, len(weights)):
        rest = full & ~s
        t = rest
        while t:
            if weights[s] + weights[t] < weights[s | t]:
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
        bundles = json_field(data, "bundles", list)
        return cls(
            bundles=tuple(frozenset(json_goods(b, "a bundle")) for b in bundles),
            pool=frozenset(json_goods(data.get("pool", []), "the pool")),
        )


@dataclass(frozen=True)
class RandomizedAllocation:
    support: tuple[tuple[Fraction, IntegralAllocation], ...]

    def __post_init__(self):
        sup = tuple((parse_rational(p), a) for p, a in self.support)
        object.__setattr__(self, "support", sup)
        if any(p <= 0 for p, _ in sup):
            raise PreconditionError("support probabilities must be positive")
        if sum(p for p, _ in sup) != 1:
            raise PreconditionError("support probabilities must sum to exactly one")
        if len({a.n for _, a in sup}) > 1:
            raise PreconditionError("support outcomes must all have the same number of bundles")

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

    def associated_fractional(self, m: int) -> tuple[tuple[Fraction, ...], ...]:
        """The share matrix: rows[i][g] is the probability that agent i holds g."""
        n = self.support[0][1].n
        rows = [[Fraction(0)] * m for _ in range(n)]
        for p, alloc in self.support:
            for i, bundle in enumerate(alloc.bundles):
                for g in bundle:
                    rows[i][g] += p
        return tuple(tuple(row) for row in rows)

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
                (json_field(entry, "prob"), IntegralAllocation.from_json(entry))
                for entry in json_field(data, "support", list)
            )
        )


def require_fits(inst: Instance, allocations: Iterable[IntegralAllocation]) -> None:
    """Every allocation has one bundle per agent and holds only the
    instance's goods.  Entry points that take a caller's allocations call
    this once; the audits assume allocations that fit."""
    for alloc in allocations:
        if alloc.n != inst.n:
            raise PreconditionError(f"need one bundle per agent ({inst.n}), got {alloc.n}")
        goods = alloc.allocated() | alloc.pool
        if any(type(g) is not int for g in goods):
            raise PreconditionError("goods must be given as integers")
        stray = sorted(g for g in goods if not 0 <= g < inst.m)
        if stray:
            raise PreconditionError(f"goods {stray} are not among the {inst.m} goods")


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


def _valuation_from_json(entry: dict) -> Valuation:
    kind = json_field(entry, "kind")
    if kind == "additive":
        return Additive(json_field(entry, "values", list))
    if kind == "lexicographic":
        return Lexicographic(json_field(entry, "ranking", list))
    if kind == "table":
        subadditive = json_field(entry, "subadditive", bool) if "subadditive" in entry else False
        return Table(json_field(entry, "values", list), subadditive=subadditive)
    raise PreconditionError(f"unknown valuation kind {kind!r}")


def instance_from_json(data: dict) -> Instance:
    vals: list[Valuation] = []
    for i, entry in enumerate(json_field(data, "valuations", list)):
        try:
            vals.append(_valuation_from_json(entry))
        except PreconditionError as exc:
            raise PreconditionError(f"agent {i}: {exc}") from None
    n, m = json_field(data, "n"), json_field(data, "m")
    return Instance(n=n, m=m, valuations=vals, labels=data.get("labels"), epsilon=data.get("epsilon"))


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))

