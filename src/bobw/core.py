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
constructed.  Strings that are all canonical spellings of ints below
1024, as ``instance_to_json`` writes a small-valued table, are read by one
dict lookup per value, tried only when the last value (a monotone table's
largest) is one; the dict is built on the first list that ends in a
string.  Everything else goes to ``int()`` per value and then
``parse_exact``, which refuse a decimal string past Python's 4,300-digit
limit in its digits or its exponent.  ``Lexicographic`` derives its
powers of two once, on first use.
``Instance`` checks that each valuation fits its goods (``shape_error``),
so code past construction may index freely, and caches on first use what
the per-outcome audits read: the agents' ordinal rankings (never a
refusal) and each viewer's weights, their getter and its least weight.
A table's monotonicity is one pass over the table packed into one int, a
byte-aligned field per bundle holding its value, or its dense rank when
some value does not fit a byte: one guarded subtraction per good
compares every bundle with the bundle that adds the good, in at most 4
bytes per bundle.

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
import reprlib
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from math import lcm
from typing import Callable, Iterable, Optional, Sequence, Union

TABLE_GOODS_CAP = 20
DIGIT_LIMIT = 4300  # Python's limit on int() strings, sys.int_info.default_max_str_digits


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
    succeeds), everything else as a Fraction.

    A string is held to Python's own limit on int() strings, DIGIT_LIMIT
    (4,300) digits: past it, int() fails and so does Fraction(str) on
    digits, but an exponent is expanded by arithmetic, so '1e-1000000'
    would build a 3.3-million-bit denominator.  So a string with a part of
    more than DIGIT_LIMIT digits (numerator, denominator or decimal
    mantissa) or an exponent beyond +-DIGIT_LIMIT is refused, quickly.
    Python ints and Fractions are taken at any size."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        _require_digit_limit(value)
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise PreconditionError(f"cannot interpret {reprlib.repr(value)} as a rational") from None
    if isinstance(value, bool):
        raise PreconditionError("booleans are not rationals")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise PreconditionError(f"cannot interpret {reprlib.repr(value)} as a rational")


def _require_digit_limit(text: str) -> None:
    mantissa, e, exponent = text.lower().partition("e")
    digits = max(sum(map(str.isdigit, part)) for part in mantissa.split("/"))
    try:
        power = int(exponent) if e else 0
    except ValueError:  # Fraction(str) refuses it too
        power = 0
    if digits > DIGIT_LIMIT or abs(power) > DIGIT_LIMIT:
        raise PreconditionError(
            f"numbers are limited to {DIGIT_LIMIT} digits and exponents to +-{DIGIT_LIMIT}"
        )


def parse_rational(value: Union[int, str, Fraction]) -> Fraction:
    """parse_exact's number as a Fraction."""
    x = parse_exact(value)
    return x if type(x) is Fraction else Fraction(x)


def format_rational(x: Fraction) -> str:
    return str(x) if type(x) is Fraction else str(Fraction(x))


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


def sums_to_one(weights: Sequence[Fraction]) -> bool:
    """Whether exact rationals add up to exactly 1: one integer sum over the
    LCM of their denominators, with no intermediate Fractions."""
    D = lcm(*(w.denominator for w in weights))
    return sum(w.numerator * (D // w.denominator) for w in weights) == D


# ---------------------------------------------------------------------------
# valuations


@cache
def _small_ints() -> dict[str, int]:
    """str(k) -> k for 0 <= k < 1024: the canonical spellings only, so a hit
    reads as int() does.  Built on the first value list that ends in a str,
    so code that decodes no strings keeps it out of memory."""
    return {str(k): k for k in range(1 << 10)}


def _integer_form(values: Iterable) -> tuple[int, tuple[int, ...]]:
    """(scale, weights) with value k = weights[k] / scale: the scale is the
    LCM of the reduced denominators, so it is 1 iff every value is an integer.

    Strings that are all canonical spellings of ints below 1024 are looked
    up in _small_ints(), one dict lookup per value.  The lookup is tried
    only when the last value is one: a monotone table's largest value is
    its last, so a table that would miss late goes straight to the next
    step.  Anything else goes to int() per value, then parse_exact."""
    values = tuple(values)
    if values and type(values[-1]) is str:
        small = _small_ints()
        try:
            if values[-1] in small:
                return 1, tuple(map(small.__getitem__, values))
        except (KeyError, TypeError):  # a miss, an unhashable value
            pass
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
    if isinstance(val, Table) and not val.monotone:
        return "non-monotone table"
    return None


def _subadditive_error(val: Valuation) -> Optional[str]:
    """Why a valuation is not subadditive, v(S | T) <= v(S) + v(T), or None;
    each valuation caches it.  Lexicographic valuations and additive ones
    without negative values are.  A table is checked over its 3^m disjoint
    pairs, which decides it for monotone tables only, so a non-monotone
    table reports that first; ask only where the verdict is needed."""
    if isinstance(val, Table):
        if not val.monotone:
            return "non-monotone table"
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

    @cached_property
    def least_weight(self) -> int:
        # the EFX audit's per-pair pre-test; read for per-good weights only
        return min(self.weights, default=0)

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

    @cached_property
    def monotone(self) -> bool:
        # validate, the pool-swap precondition and the subadditivity verdict read it
        return _table_monotone(self.weights)

    def ordinal_ranking(self) -> tuple[int, ...]:
        raise PreconditionError("table valuations carry no strict ordinal ranking")


def bundle_mask(bundle: Iterable[int]) -> int:
    mask = 0
    for g in bundle:
        mask |= 1 << g
    return mask


def _table_monotone(weights: Sequence[int]) -> bool:
    """v(S \\ {g}) <= v(S) for every S and g in S (enough, by induction),
    decided by one subtraction per good on the whole table packed into one
    int (``_packed_table``).  Field S holds v(S) below a guard bit; shifting
    the table down by 2^g fields lines v(S | {g}) up with v(S), so after
    ``(shifted | guards) - packed`` the guard of field S is still set iff
    v(S) <= v(S | {g}).  A field's result lies between 1 and twice its
    guard, so no field borrows from the next.  Only the guards of the
    bundles without g are read."""
    size = len(weights)
    packed, nbytes = _packed_table(weights)
    guards, without = _guard_masks(size, nbytes)
    shift = 8 * nbytes
    for keep in without:
        if (((packed >> shift) | guards) - packed) & keep != keep:
            return False
        shift *= 2
    return True


def _packed_table(weights: Sequence[int]) -> tuple[int, int]:
    """(packed, bytes per field): field S, little-endian from bit 0, holds
    weights[S] below a guard bit.  The weights go in as they are when each
    fits a byte's low 7 bits, else by dense rank, which keeps their order in
    at most 4 bytes per bundle however wide or negative the values are."""
    try:
        packed = int.from_bytes(bytes(weights), "little")  # ValueError outside 0..255
    except ValueError:
        packed = None
    if packed is not None and not packed & _guard_masks(len(weights), 1)[0]:
        return packed, 1
    rank = {v: r for r, v in enumerate(sorted(set(weights)))}
    code = "B" if len(rank) <= 1 << 7 else "H" if len(rank) <= 1 << 15 else "I"
    fields = array(code, map(rank.__getitem__, weights))
    if sys.byteorder == "big":
        fields.byteswap()
    return int.from_bytes(fields.tobytes(), "little"), fields.itemsize


def _guard_masks(size: int, nbytes: int) -> tuple[int, tuple[int, ...]]:
    """The guard bit of every field of a `size`-field table, and for each
    good g (ascending) the guards of the fields S without g that have a
    field S + 2^g.  The masks of tables up to 16 KB packed are cached, eight
    at most; larger tables build theirs per call."""
    if size * nbytes <= _CACHED_TABLE_BYTES:
        return _cached_guard_masks(size, nbytes)
    return _build_guard_masks(size, nbytes)


def _build_guard_masks(size: int, nbytes: int) -> tuple[int, tuple[int, ...]]:
    guard, empty = (1 << (8 * nbytes - 1)).to_bytes(nbytes, "little"), bytes(nbytes)
    without, step = [], 1
    while step < size:
        pattern = (guard * step + empty * step) * (size // (2 * step) + 1)
        without.append(int.from_bytes(pattern[: (size - step) * nbytes], "little"))
        step *= 2
    return int.from_bytes(guard * size, "little"), tuple(without)


_CACHED_TABLE_BYTES = 1 << 14  # 2^12 bundles at 4 bytes, 2^14 at 1 byte
_cached_guard_masks = lru_cache(maxsize=8)(_build_guard_masks)


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

    @cached_property
    def _ordinal_rankings(self) -> tuple[tuple[int, ...], ...]:
        # eating.ordinal_rankings reads it, once per outcome in the audits; a
        # valuation without a strict order raises on every read, uncached
        rankings = []
        for i, val in enumerate(self.valuations):
            try:
                rankings.append(val.ordinal_ranking())
            except PreconditionError as exc:
                raise PreconditionError(f"agent {i}: {exc}") from None
        return tuple(rankings)

    @cached_property
    def _efx_viewers(self) -> tuple[tuple[tuple[int, ...], Callable[[int], int], Optional[int]], ...]:
        # per viewer, for the EFX audit: its weights, their getter and its
        # least weight, None for a table (whose minimum spans 2^m bundles)
        return tuple(
            (val.weights, val.weights.__getitem__, None if isinstance(val, Table) else val.least_weight)
            for val in self.valuations
        )

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
            info["monotone"] = val.monotone
            if not info["monotone"]:
                errors.append(f"agent {i}: non-monotone table")
            if val.subadditive:
                # false for a non-monotone table, whose error is already listed
                info["subadditive"] = val.subadditive_error is None
                if info["monotone"] and not info["subadditive"]:
                    errors.append(f"agent {i}: table flagged subadditive but is not")
        agents.append(info)
    return ValidationReport(ok=not errors, agents=tuple(agents), errors=tuple(errors))


def _table_subadditive(weights: Sequence[int]) -> bool:
    # Under monotonicity, checking disjoint pairs covers the general case:
    # v(S u T) <= v(S) + v(T \ S) <= v(S) + v(T).  A pair with the empty
    # set holds iff v({}) >= 0.
    if weights and weights[0] < 0:
        return False
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
        # frozenset() of a frozenset returns it unchanged
        parts = (*map(frozenset, self.bundles), frozenset(self.pool))
        object.__setattr__(self, "bundles", parts[:-1])
        object.__setattr__(self, "pool", parts[-1])
        if len(frozenset().union(*parts)) != sum(map(len, parts)):
            raise PreconditionError("bundles and pool must be pairwise disjoint")

    @classmethod
    def _built(cls, bundles: tuple[frozenset[int], ...]) -> "IntegralAllocation":
        """An allocation with an empty pool, of frozensets the caller has made
        pairwise disjoint, set as they are: no conversion and no disjointness check."""
        alloc = object.__new__(cls)
        object.__setattr__(alloc, "bundles", bundles)
        object.__setattr__(alloc, "pool", frozenset())
        return alloc

    @property
    def n(self) -> int:
        return len(self.bundles)

    def allocated(self) -> frozenset[int]:
        return frozenset().union(*self.bundles)

    def is_complete(self, m: int) -> bool:
        return frozenset().union(*self.bundles, self.pool) == frozenset(range(m))

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
        if any(p.numerator <= 0 for p, _ in sup):
            raise PreconditionError("support probabilities must be positive")
        if not sums_to_one([p for p, _ in sup]):
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


def read_json(path: str):
    """The JSON value in a UTF-8 file.  Every file that cannot be read or
    parsed is a PreconditionError: a missing file or a directory, bytes that
    are not UTF-8, nesting deeper than the parser's stack, an int past
    Python's limit on digits (named with the file, not with Python's advice
    to raise the limit)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # the message names the path
        raise PreconditionError(str(exc)) from None
    except ValueError as exc:  # UnicodeDecodeError
        raise PreconditionError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise PreconditionError(f"{path}: {exc}") from None
    except ValueError:  # the one other ValueError: int() past the digit limit
        raise PreconditionError(
            f"{path}: holds an integer of more than {sys.get_int_max_str_digits()} digits,"
            " Python's limit for reading one"
        ) from None


def load_instance(path: str) -> Instance:
    return instance_from_json(read_json(path))

