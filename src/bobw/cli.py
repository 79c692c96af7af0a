"""Command-line entry point.

Subcommands: validate, eat, solve, verify, sample, estimate, oracle, repro.
Instances are given either as a bundled fixture name (FIX-A .. FIX-E) or as
a path to an instance JSON file.  All randomized commands take --seed (an
unsigned 64-bit integer) and are byte-for-byte reproducible: same command
line, same output.

ALGORITHMS is the one table of algorithm names.  Each entry says how
`solve` builds its output (an exact lottery, one seeded draw, or a router
between the two), how `sample` and `estimate` draw from it, how `oracle`
computes its exact lottery, the `_check` keys its outcomes owe ex post and
its lottery ex ante (half-proportionality only where every valuation is
subadditive), and which optional solve flags it reads (--seed unless it has
a lottery).  The tail lottery (utse, and lex-bobw when it returns a
lottery) owes a least ex-ante ratio of 3k/(3k+1) for its last-good mass k,
and solve exits 2 when it misses it.  The argparse choices of solve,
sample, estimate and oracle come from it.  solve, oracle and repro each
refuse an optional flag that their algorithm, op or scenario does not
read.

Exit codes: 0 success, 2 a checked property failed (witness in the output),
3 bad input or precondition (argparse usage errors, files that cannot be
read as JSON and an -o that cannot be written included), 4 a resource cap
was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import floor
from typing import Callable, Optional

from . import fixtures
from .audit import (
    check_bounded_charity,
    check_ef,
    check_ef1,
    check_efx,
    check_efx_with_charity,
    check_exante_ef,
    check_exante_prop,
    check_po_lex,
    check_sdef,
    check_stochastic_dominance_half,
    check_support,
    exante_ratio,
    min_exante_ratio,
)
from .charity_algos import bounded_charity, random_charity_swap
from .core import (
    Instance,
    IntegralAllocation,
    PreconditionError,
    RandomizedAllocation,
    ResourceCapError,
    format_rational,
    json_field,
    load_instance,
    parse_rational,
    read_json,
    require_fits,
    validate_instance,
)
from .eating import (
    eat_report,
    fractional_outcome,
    full_run,
    representative_matrix,
    rounds_allocation,
    run_eating,
    summarize,
    unit_run,
)
from .lex_algos import _tail_lottery, k2_sampler, permutation_sampler, solve_lex_bobw, uniform_permutation, utse
from .oracle import (
    DEFAULT_LEAF_CAP,
    enumerate_efx,
    exact_distribution_charity,
    ratio_table,
    sdef_feasibility,
)
from .rng import derive_seed
from .rounding import Decomposition, bvn_decompose

EXIT_OK = 0
EXIT_PROPERTY = 2
EXIT_PRECONDITION = 3
EXIT_CAP = 4


class PropertyFailure(Exception):
    """A checked property did not hold; payload carries the witness."""

    def __init__(self, message: str, payload: Optional[dict] = None):
        super().__init__(message)
        self.payload = payload or {}


def _load(args, name: Optional[str] = None) -> Instance:
    """A fixture (with --epsilon) or an instance file: `name`, by default
    the command's instance argument."""
    name = args.instance if name is None else name
    eps = parse_rational(args.epsilon) if args.epsilon is not None else None
    if name in fixtures.FIXTURE_NAMES:
        return fixtures.get_fixture(name, epsilon=eps)
    if eps is not None:
        raise PreconditionError("--epsilon only applies to the bundled fixtures")
    return load_instance(name)


def _emit(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:  # a directory, a missing folder, no permission
            raise PreconditionError(str(exc)) from None
    else:
        sys.stdout.write(text)


def _load_allocation(path: str):
    data = read_json(path)
    if isinstance(data, dict) and "support" in data:
        return RandomizedAllocation.from_json(data)
    return IntegralAllocation.from_json(data)


def _readers(flag: str, reads: dict[str, tuple[str, ...]]) -> str:
    return ", ".join(choice for choice, flags in reads.items() if flag in flags)


def _refuse_unread(args, choice: str, reads: dict[str, tuple[str, ...]]) -> None:
    """`reads` maps each choice (algorithm, op, scenario) to the optional
    flags it reads; a flag given to a choice that does not read it is bad
    input."""
    for flag in dict.fromkeys(f for flags in reads.values() for f in flags):
        if flag not in reads[choice] and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise PreconditionError(f"{flag} applies only to {_readers(flag, reads)}, not {choice}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    inst = _load(args)
    report = validate_instance(inst)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.ok else EXIT_PROPERTY


def cmd_eat(args) -> int:
    inst = _load(args)
    if args.duration is None and args.pad is None:
        trace = unit_run(inst)
        pad = trace.n_dummies
    else:
        duration = Fraction(1) if args.duration is None else parse_rational(args.duration)
        pad = args.pad or 0
        # A run of duration d eats n * d units, and every agent ranks the
        # dummies in one order below all real goods, so it finishes at most
        # floor(n * d) dummies and starts one more.  Dummies past those are
        # never eaten and widen only the matrix rows the report drops.
        reach = floor(duration * inst.n) + 1
        trace = run_eating(inst, duration, n_dummies=min(pad, reach))
    report = eat_report(inst, trace)
    report["padded_with"] = pad
    _emit(report, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the algorithm table
#
# Builders are lambdas over this module's names and _check builds its map
# per call, so every function is looked up when it runs: span tracers that
# rebind this module's attributes (perfbench/tracer.py) see each call.


@dataclass(frozen=True)
class Algorithm:
    """`solve` prints the exact lottery if there is one, else one draw at the
    required --seed; a row with neither is the lex-bobw router, where
    solve_lex_bobw picks one of the two by k.  A lottery that comes with a
    last-good mass k is the tail lottery, which owes a least ex-ante ratio
    of 3k/(3k+1)."""

    # _check keys owed ex post, by every support allocation of a lottery
    audits: tuple[str, ...]
    lottery: Optional[Callable] = None  # (inst, args) -> (k or None, RandomizedAllocation)
    # (inst, args) -> seed -> (allocation, trace or None); sample, estimate
    draws: Optional[Callable] = None
    exante: tuple[str, ...] = ()  # _check keys owed by the whole lottery
    exact: Optional[Callable] = None  # (inst, args) -> the sampler's exact lottery
    flags: tuple[str, ...] = ()  # optional solve flags it reads


def _check(key: str) -> Callable:
    """The audit a key names: ex post (inst, alloc), ex ante (dist, inst) -> AuditReport."""
    return {
        "ef": check_ef,
        "ef1": check_ef1,
        "efx": check_efx,
        "po_lex": check_po_lex,
        "efx_with_charity": check_efx_with_charity,
        "bounded_charity": check_bounded_charity,
        "exante_half_ef": lambda dist, inst: check_exante_ef(dist, inst, Fraction(1, 2)),
        "exante_half_prop": lambda dist, inst: check_exante_prop(dist, inst, Fraction(1, 2)),
        "stochastic_dominance_half": check_stochastic_dominance_half,
        "sdef": lambda dist, inst: check_sdef(inst, dist.associated_fractional(inst.m)),
    }[key]


def _exante(keys: tuple[str, ...], dist: RandomizedAllocation, inst: Instance) -> dict:
    """Each key's report on a whole lottery.  The paper owes
    half-proportionality only for subadditive valuations: elsewhere its
    report is marked not owed, with the reason."""
    audits = {}
    for key in keys:
        audits[key] = _check(key)(dist, inst).to_json()
        if key == "exante_half_prop":
            why = [f"agent {i}: {v.subadditive_error}" for i, v in enumerate(inst.valuations) if v.subadditive_error]
            if why:
                audits[key].update(owed=False, reason="; ".join(why))
    return audits


def _failed(audits: dict) -> bool:
    """Whether an owed report failed; other entries (ratios) are not reports."""
    return any(isinstance(rep, dict) and not rep["passed"] and rep.get("owed", True) for rep in audits.values())


def _leaf_cap(args) -> int:
    return DEFAULT_LEAF_CAP if args.leaf_cap is None else args.leaf_cap


def _pinned_decomposition(args) -> Optional[Decomposition]:
    if args.decomposition is None:
        return None
    return Decomposition.from_json(read_json(args.decomposition))


def _utse(inst: Instance, args) -> tuple[int, RandomizedAllocation]:
    """utse's lottery and its k, from one eating run."""
    decomposition = _pinned_decomposition(args)
    summary = summarize(unit_run(inst))
    return int(summary.k), _tail_lottery(inst, summary, decomposition)


def _no_trace(sample: Callable[[int], IntegralAllocation]) -> Callable:
    return lambda seed: (sample(seed), None)


def _bounded_charity_draws(inst: Instance, args) -> Callable:
    step_cap = getattr(args, "step_cap", None)  # a solve option only

    def draw(seed: int):
        start, trace = random_charity_swap(inst, seed)
        return bounded_charity(inst, start, step_cap=step_cap), trace

    return draw


ALGORITHMS: dict[str, Algorithm] = {
    "utse": Algorithm(
        ("efx", "po_lex"),
        lottery=_utse,
        flags=("--decomposition",),
    ),
    "depround-k2": Algorithm(("efx", "po_lex"), draws=lambda inst, args: _no_trace(k2_sampler(inst))),
    "lex-bobw": Algorithm(("efx", "po_lex")),
    "uniform-perm": Algorithm(
        ("po_lex",),
        lottery=lambda inst, args: (None, uniform_permutation(inst)),
        draws=lambda inst, args: _no_trace(permutation_sampler(inst)),
        exante=("exante_half_ef",),
    ),
    "charity": Algorithm(
        ("efx_with_charity",),
        draws=lambda inst, args: lambda seed: random_charity_swap(inst, seed),
        exante=("stochastic_dominance_half",),
        exact=lambda inst, args: exact_distribution_charity(inst, algorithm=3, leaf_cap=_leaf_cap(args)),
    ),
    "bounded-charity": Algorithm(
        ("bounded_charity",),
        draws=_bounded_charity_draws,
        exante=("exante_half_prop",),
        exact=lambda inst, args: exact_distribution_charity(inst, algorithm=4, leaf_cap=_leaf_cap(args)),
        flags=("--step-cap",),
    ),
}


_SOLVE_FLAGS = {name: algo.flags + (() if algo.lottery else ("--seed",)) for name, algo in ALGORITHMS.items()}


def cmd_solve(args) -> int:
    name = args.algorithm
    algo = ALGORITHMS[name]
    _refuse_unread(args, name, _SOLVE_FLAGS)
    inst = _load(args)
    result: dict = {"algorithm": name}
    trace = None
    k = None  # the tail lottery's last-good mass
    if algo.lottery:
        k, outcome = algo.lottery(inst, args)
    elif algo.draws:
        if args.seed is None:
            raise PreconditionError(f"--seed is required for the {name} sampler")
        outcome, trace = algo.draws(inst, args)(args.seed)
    else:  # router
        k, outcome = solve_lex_bobw(inst, seed=args.seed)
        result["k"] = k
        result["kind"] = "distribution" if isinstance(outcome, RandomizedAllocation) else "sample"

    floor = None  # the least ex-ante ratio a tail lottery owes, if it misses it
    if isinstance(outcome, RandomizedAllocation):
        result["distribution"] = outcome.to_json()
        reports = check_support(inst, outcome, {key: _check(key) for key in algo.audits})
        audits = {key: rep.to_json() for key, rep in reports.items()}
        ratio = min_exante_ratio(outcome, inst)
        audits["min_exante_ratio"] = None if ratio is None else format_rational(ratio)
        audits.update(_exante(algo.exante, outcome, inst))
        # None is an infinite ratio, which meets any floor
        if k is not None and ratio is not None and ratio < Fraction(3 * k, 3 * k + 1):
            floor = Fraction(3 * k, 3 * k + 1)
    else:
        result["allocation"] = outcome.to_json()
        if trace is not None:
            result["trace"] = trace.to_json()
        audits = {key: _check(key)(inst, outcome).to_json() for key in algo.audits}
    result["audits"] = audits
    if _failed(audits):
        raise PropertyFailure("ex-post audit failed", {"audits": audits})
    if floor is not None:
        raise PropertyFailure("ex-ante floor missed", {"k": k, "floor": format_rational(floor), "audits": audits})
    _emit(result, args.output)
    return EXIT_OK


# property -> _check key; sdef audits the lottery, the rest each outcome
_VERIFY_KEYS = {
    "ef": "ef", "ef1": "ef1", "efx": "efx", "efx-charity": "efx_with_charity",
    "bounded-charity": "bounded_charity", "po-lex": "po_lex", "sdef": "sdef",
}


def cmd_verify(args) -> int:
    inst = _load(args)
    target = _load_allocation(args.allocation)
    lottery = target if isinstance(target, RandomizedAllocation) else RandomizedAllocation(((1, target),))
    require_fits(inst, (alloc for _, alloc in lottery.support))
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    if not props:
        raise PreconditionError("--properties names no property")
    unknown = [p for p in props if p not in _VERIFY_KEYS]
    if unknown:
        raise PreconditionError(f"unknown properties: {', '.join(unknown)}")

    named = {p: _check(_VERIFY_KEYS[p]) for p in props if p != "sdef"}
    if lottery is target:
        audits = {p: rep.to_json() for p, rep in check_support(inst, target, named).items()}
    else:  # an allocation's reports follow --properties, sdef's filled in below
        audits = {p: named[p](inst, target).to_json() if p in named else None for p in props}
    if "sdef" in props:
        audits["sdef"] = _check("sdef")(lottery, inst).to_json()
    _emit({"audits": audits}, args.output)
    return EXIT_PROPERTY if _failed(audits) else EXIT_OK


def cmd_sample(args) -> int:
    inst = _load(args)
    if args.count < 1:
        raise PreconditionError("--count must be at least 1")
    draw = ALGORITHMS[args.algorithm].draws(inst, args)
    draws = [draw(derive_seed(args.seed, r))[0].to_json() for r in range(args.count)]
    _emit({"algorithm": args.algorithm, "seed": args.seed, "samples": draws}, args.output)
    return EXIT_OK


def cmd_estimate(args) -> int:
    inst = _load(args)
    if args.samples < 1000:
        raise PreconditionError("--samples must be at least 1000")
    draw = ALGORITHMS[args.sampler].draws(inst, args)
    pairs = ratio_table(inst, lambda seed: draw(seed)[0], args.samples, args.seed)
    _emit(
        {"sampler": args.sampler, "seed": args.seed, "samples": args.samples, "pairs": pairs},
        args.output,
    )
    return EXIT_OK


# op -> the optional oracle flags it reads
_ORACLE_OPS = {
    "enumerate-efx": (),
    "sdef-feasibility": ("--supports",),
    **{f"exact-{name}": ("--leaf-cap",) for name, algo in ALGORITHMS.items() if algo.exact},
}


def cmd_oracle(args) -> int:
    op = args.op
    _refuse_unread(args, op, _ORACLE_OPS)
    inst = _load(args)
    if op == "enumerate-efx":
        allocs = enumerate_efx(inst)
        _emit({"count": len(allocs), "allocations": [a.to_json() for a in allocs]}, args.output)
        return EXIT_OK
    if op == "sdef-feasibility":
        if args.supports is not None:
            data = read_json(args.supports)
            supports = [IntegralAllocation.from_json(d) for d in json_field(data, "allocations", list)]
        else:
            supports = enumerate_efx(inst)
        res = sdef_feasibility(inst, supports)
        _emit(res.to_json(), args.output)
        return EXIT_OK
    if op.startswith("exact-"):
        algo = ALGORITHMS[op[len("exact-"):]]
        dist = algo.exact(inst, args)
        (key,) = algo.audits
        audits = {"support": check_support(inst, dist, {"support": _check(key)})["support"].to_json()}
        audits.update(_exante(algo.exante, dist, inst))
        _emit({"distribution": dist.to_json(), "audits": audits}, args.output)
        return EXIT_PROPERTY if _failed(audits) else EXIT_OK
    raise PreconditionError(f"unknown oracle op {op}")  # pragma: no cover


# ---------------------------------------------------------------------------
# replication scenarios


def _repro_impossibility(args) -> dict:
    inst = _load(args, "FIX-A")
    allocs = enumerate_efx(inst)
    res = sdef_feasibility(inst, allocs)
    report = {
        "scenario": "impossibility",
        "efx_count": len(allocs),
        "allocations": [a.to_json() for a in allocs],
        "feasibility": res.to_json(),
        "claim": "exactly 4 EFX allocations and no prefix-dominance-fair mixture over them",
    }
    if len(allocs) != 4 or res.feasible:
        raise PropertyFailure("impossibility replication mismatch", report)
    report["summary"] = "4 EFX allocations; sd-EF mixture infeasible"
    return report


def _repro_example_4_1(args) -> dict:
    inst = _load(args, "FIX-B")
    eps = inst.epsilon
    dist = uniform_permutation(inst)
    ratio = exante_ratio(dist, inst, 0, 1)
    expected = Fraction(432) + 5808 * eps
    expected /= Fraction(576) + 528 * eps
    report = {
        "scenario": "example-4-1",
        "epsilon": format_rational(eps),
        "matrix": [[format_rational(x) for x in row] for row in dist.associated_fractional(inst.m)],
        "ratio_pair_1_2": format_rational(ratio),
        "expected_ratio": format_rational(expected),
    }
    if ratio != expected:
        raise PropertyFailure("closed-form ratio mismatch", report)
    return report


def _repro_utse_tight(args) -> dict:
    inst = _load(args, "FIX-C")
    eps = inst.epsilon
    summary = summarize(unit_run(inst))
    if summary.k != 2:
        raise PropertyFailure(
            "eating summary does not have k = 2", {"k": format_rational(summary.k)}
        )
    pinned = Decomposition(
        terms=(
            (Fraction(1, 2), (0, 1, 3, 4)),
            (Fraction(1, 2), (1, 0, 2, 3)),
        )
    )
    dist_pinned = utse(inst, decomposition=pinned)
    ratio_pinned = exante_ratio(dist_pinned, inst, 0, 1)
    expected = (Fraction(3) + 25 * eps / 32) / (Fraction(7, 2) + 3 * eps / 4)
    dist_default = utse(inst)
    ratio_default = min_exante_ratio(dist_default, inst)
    report = {
        "scenario": "utse-tight",
        "epsilon": format_rational(eps),
        "matrix": [[format_rational(x) for x in row] for row in summary.X],
        "k": format_rational(summary.k),
        "pinned_ratio_pair_1_2": format_rational(ratio_pinned),
        "expected_pinned_ratio": format_rational(expected),
        "default_min_ratio": format_rational(ratio_default),
    }
    if ratio_pinned != expected:
        raise PropertyFailure("pinned-decomposition ratio mismatch", report)
    if ratio_default < Fraction(6, 7):
        raise PropertyFailure("default decomposition ratio below 6/7", report)
    return report


def _repro_ps_baseline(args) -> dict:
    name = "FIX-A" if args.instance is None else args.instance
    inst = _load(args, name)
    trace = full_run(inst)
    sdef = check_sdef(inst, fractional_outcome(trace))
    matrix = representative_matrix(trace)
    decomp = bvn_decompose(matrix)
    term_reports = []
    all_pass = True
    for weight, assignment in decomp.terms:
        alloc = rounds_allocation(assignment, inst.n, inst.m)
        ef1 = check_ef1(inst, alloc)
        po = check_po_lex(inst, alloc)
        all_pass = all_pass and ef1.passed and po.passed
        term_reports.append(
            {
                "weight": format_rational(weight),
                "allocation": alloc.to_json(),
                "ef1": ef1.to_json(),
                "po_lex": po.to_json(),
            }
        )
    report = {
        "scenario": "ps-baseline",
        "instance": name,
        "sdef": sdef.to_json(),
        "terms": term_reports,
    }
    if not sdef.passed or not all_pass:
        raise PropertyFailure("eating baseline property failed", report)
    report["summary"] = (
        f"sd-EF pass; all {len(term_reports)} terms EF1 and picking-sequence reconstructible"
    )
    return report


# scenario -> (report builder, the optional repro flags it reads)
_SCENARIOS = {
    "impossibility": (_repro_impossibility, ()),
    "example-4-1": (_repro_example_4_1, ("--epsilon",)),
    "utse-tight": (_repro_utse_tight, ("--epsilon",)),
    "ps-baseline": (_repro_ps_baseline, ("--instance", "--epsilon")),
}


def cmd_repro(args) -> int:
    build, _ = _SCENARIOS[args.scenario]
    _refuse_unread(args, args.scenario, {name: flags for name, (_, flags) in _SCENARIOS.items()})
    report = build(args)
    _emit(report, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_common(p, instance=True):
    if instance:
        p.add_argument("instance", help="fixture name (FIX-A..FIX-E) or instance JSON path")
    p.add_argument("--epsilon", help="rational p/q for the epsilon-parameterized fixtures")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an unsigned 64-bit integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """A usage error is bad input, so it exits 3; argparse's own 2 would
    read as a failed property.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PRECONDITION, f"{self.prog}: error: {message}\n")


@cache  # choices come from the static ALGORITHMS table
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="bobw",
        description="Lotteries over indivisible-goods allocations that are fair "
        "both in expectation and in every realized outcome.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    samplers = [name for name, algo in ALGORITHMS.items() if algo.draws]

    p = sub.add_parser("validate", help="check an instance file or fixture")
    _add_common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("eat", help="run the simultaneous-eating simulation")
    _add_common(p)
    p.add_argument("--duration", help="eating time as p/q (default 1)")
    p.add_argument("--pad", type=int, help="number of dummy goods to append")
    p.set_defaults(fn=cmd_eat)

    p = sub.add_parser("solve", help="run an allocation algorithm with audits")
    _add_common(p)
    p.add_argument("--algorithm", required=True, choices=list(ALGORITHMS))
    p.add_argument("--seed", type=_seed_type)
    p.add_argument(
        "--decomposition",
        help=f"JSON file pinning the lottery decomposition ({_readers('--decomposition', _SOLVE_FLAGS)} only)",
    )
    p.add_argument(
        "--step-cap",
        type=int,
        help=f"limit on pool swaps and growth moves, not cycle rotations ({_readers('--step-cap', _SOLVE_FLAGS)} only)",
    )
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="audit an allocation or distribution file")
    _add_common(p)
    p.add_argument("--allocation", required=True, help="allocation/distribution JSON path")
    p.add_argument(
        "--properties",
        required=True,
        help=f"comma list: {', '.join(_VERIFY_KEYS)}",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sample", help="draw allocations from a sampler")
    _add_common(p)
    p.add_argument("--algorithm", required=True, choices=samplers)
    p.add_argument("--seed", type=_seed_type, required=True)
    p.add_argument("--count", type=int, default=1)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("estimate", help="Monte Carlo pairwise ratio table")
    _add_common(p)
    p.add_argument("--sampler", required=True, choices=samplers)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=_seed_type, required=True)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("oracle", help="brute-force references and exact distributions")
    _add_common(p)
    p.add_argument("--op", required=True, choices=list(_ORACLE_OPS))
    p.add_argument("--supports", help="allocations JSON for sdef-feasibility")
    p.add_argument(
        "--leaf-cap",
        type=int,
        help=f"limit on distinct swap-loop states for the exact-* ops (default {DEFAULT_LEAF_CAP})",
    )
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("repro", help="replication scenarios with exact expected values")
    _add_common(p, instance=False)
    p.add_argument("scenario", choices=sorted(_SCENARIOS))
    p.add_argument("--instance", help="override instance, default FIX-A (ps-baseline only)")
    p.set_defaults(fn=cmd_repro)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.fn(args)
        except PropertyFailure as exc:  # its witness goes where the output would
            _emit({"error": str(exc), **exc.payload}, getattr(args, "output", None))
            return EXIT_PROPERTY
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_CAP
    except PreconditionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
