"""Command-line entry point.

Subcommands: validate, eat, solve, verify, sample, estimate, oracle, repro.
Instances are given either as a bundled fixture name (FIX-A .. FIX-E) or as
a path to an instance JSON file.  All randomized commands take --seed (an
unsigned 64-bit integer) and are byte-for-byte reproducible: same command
line, same output.

ALGORITHMS is the one table of algorithm names.  Each entry says how
`solve` builds its output (an exact lottery, one seeded draw, or a router
between the two), how `sample` and `estimate` draw from it, which checkers
its outcomes owe ex post and its lottery owes ex ante, and which exact
charity distribution `oracle` computes for it.  The argparse choices of
solve, sample, estimate and oracle come from it.

Exit codes: 0 success, 2 a checked property failed (witness in the output),
3 bad input or precondition, 4 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
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
    check_sdef_instance,
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
from .lex_algos import k2_sampler, solve_lex_bobw, uniform_permutation, utse
from .oracle import enumerate_efx, exact_distribution_charity, ratio_table, sdef_feasibility
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


def _load(args) -> Instance:
    name = args.instance
    eps = parse_rational(args.epsilon) if getattr(args, "epsilon", None) else None
    if name in fixtures.FIXTURE_NAMES:
        return fixtures.get_fixture(name, epsilon=eps)
    if eps is not None:
        raise PreconditionError("--epsilon only applies to the bundled fixtures")
    return load_instance(name)


def _emit(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_allocation(path: str):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "support" in data:
        return RandomizedAllocation.from_json(data)
    return IntegralAllocation.from_json(data)


def _require_fits(inst: Instance, allocations, goods: Optional[int] = None) -> None:
    """Every allocation read from a file has one bundle per agent and holds
    only goods in range(goods), by default the instance's goods."""
    goods = inst.m if goods is None else goods
    for alloc in allocations:
        if alloc.n != inst.n:
            raise PreconditionError(f"need one bundle per agent ({inst.n}), got {alloc.n}")
        stray = sorted(g for g in alloc.allocated() | alloc.pool if not 0 <= g < goods)
        if stray:
            raise PreconditionError(f"goods {stray} are not among the {goods} goods")


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    inst = _load(args)
    report = validate_instance(inst)
    _emit(report.to_json(), args.output)
    return EXIT_OK if report.ok else EXIT_PROPERTY


def cmd_eat(args) -> int:
    inst = _load(args)
    pad = args.pad
    if pad is None:
        pad = max(0, inst.n - inst.m) if args.duration is None else 0
    duration = (
        parse_rational(args.duration)
        if args.duration is not None
        else Fraction(1)
    )
    trace = run_eating(inst, duration, n_dummies=pad)
    _emit(eat_report(inst, trace), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# the algorithm table
#
# Builders are lambdas over this module's names and _checkers and
# _exante_checkers build their maps per call, so every function is looked up
# when it runs: span tracers that rebind this module's attributes
# (perfbench/tracer.py) see each call.


@dataclass(frozen=True)
class Algorithm:
    # what `solve` prints: "lottery" (exact), "draw" (one draw at the
    # required --seed) or "router" (solve_lex_bobw picks one by k)
    solve: str
    # _checkers keys owed ex post, by every support allocation of a lottery
    audits: tuple[str, ...]
    lottery: Optional[Callable] = None  # (inst, args) -> RandomizedAllocation
    # (inst, args) -> seed -> (allocation, trace or None); sample, estimate
    draws: Optional[Callable] = None
    exante: tuple[str, ...] = ()  # _exante_checkers keys owed by the whole lottery
    exact: Optional[int] = None  # algorithm= of exact_distribution_charity


def _checkers(keys: tuple[str, ...]) -> dict[str, Callable]:
    known = {
        "efx": check_efx,
        "po_lex": check_po_lex,
        "efx_with_charity": check_efx_with_charity,
        "bounded_charity": check_bounded_charity,
    }
    return {key: known[key] for key in keys}


def _exante_checkers(keys: tuple[str, ...]) -> dict[str, Callable]:
    """Each key's audit of a whole lottery: (dist, inst) -> AuditReport."""
    known = {
        "exante_half_ef": lambda dist, inst: check_exante_ef(dist, inst, Fraction(1, 2)),
        "exante_half_prop": lambda dist, inst: check_exante_prop(dist, inst, Fraction(1, 2)),
        "stochastic_dominance_half": check_stochastic_dominance_half,
    }
    return {key: known[key] for key in keys}


def _pinned_decomposition(inst: Instance, args) -> Optional[Decomposition]:
    if not args.decomposition:
        return None
    with open(args.decomposition) as fh:
        decomposition = Decomposition.from_json(json.load(fh))
    # eating pads with dummy goods up to one per agent
    terms = (IntegralAllocation(tuple(frozenset({g}) for g in a)) for _, a in decomposition.terms)
    _require_fits(inst, terms, goods=max(inst.m, inst.n))
    return decomposition


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
        "lottery",
        ("efx", "po_lex"),
        lottery=lambda inst, args: utse(inst, decomposition=_pinned_decomposition(inst, args)),
    ),
    "depround-k2": Algorithm(
        "draw", ("efx", "po_lex"), draws=lambda inst, args: _no_trace(k2_sampler(inst))
    ),
    "lex-bobw": Algorithm("router", ("efx", "po_lex")),
    "uniform-perm": Algorithm(
        "lottery",
        ("po_lex",),
        lottery=lambda inst, args: uniform_permutation(inst, mode="exact"),
        draws=lambda inst, args: _no_trace(
            lambda seed: uniform_permutation(inst, mode="sample", seed=seed)
        ),
        exante=("exante_half_ef",),
    ),
    "charity": Algorithm(
        "draw",
        ("efx_with_charity",),
        draws=lambda inst, args: lambda seed: random_charity_swap(inst, seed),
        exante=("stochastic_dominance_half",),
        exact=3,
    ),
    "bounded-charity": Algorithm(
        "draw",
        ("bounded_charity",),
        draws=_bounded_charity_draws,
        exante=("exante_half_prop",),
        exact=4,
    ),
}


def cmd_solve(args) -> int:
    inst = _load(args)
    name = args.algorithm
    algo = ALGORITHMS[name]
    result: dict = {"algorithm": name}
    trace = None
    if algo.solve == "lottery":
        outcome = algo.lottery(inst, args)
    elif algo.solve == "draw":
        if args.seed is None:
            raise PreconditionError(f"--seed is required for the {name} sampler")
        outcome, trace = algo.draws(inst, args)(args.seed)
    else:  # router
        solved = solve_lex_bobw(inst, seed=args.seed)
        result["k"], result["kind"] = solved.k, solved.kind
        outcome = solved.distribution if solved.kind == "distribution" else solved.sample

    checkers = _checkers(algo.audits)
    if isinstance(outcome, RandomizedAllocation):
        result["distribution"] = outcome.to_json()
        reports = check_support(inst, outcome, checkers)
        audits = {key: rep.to_json() for key, rep in reports.items()}
        ratio = min_exante_ratio(outcome, inst)
        audits["min_exante_ratio"] = None if ratio is None else format_rational(ratio)
        for key, check in _exante_checkers(algo.exante).items():
            audits[key] = check(outcome, inst).to_json()
    else:
        result["allocation"] = outcome.to_json()
        if trace is not None:
            result["trace"] = trace.to_json()
        audits = {key: check(inst, outcome).to_json() for key, check in checkers.items()}
    result["audits"] = audits
    if any(isinstance(rep, dict) and rep.get("passed") is False for rep in audits.values()):
        raise PropertyFailure("ex-post audit failed", {"audits": audits})
    _emit(result, args.output)
    return EXIT_OK


_VERIFY_CHECKERS: dict[str, Callable] = {
    "ef": check_ef,
    "ef1": check_ef1,
    "efx": check_efx,
    "efx-charity": check_efx_with_charity,
    "bounded-charity": check_bounded_charity,
    "po-lex": check_po_lex,
}


def cmd_verify(args) -> int:
    inst = _load(args)
    target = _load_allocation(args.allocation)
    if isinstance(target, RandomizedAllocation):
        _require_fits(inst, (alloc for _, alloc in target.support))
    else:
        _require_fits(inst, (target,))
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    unknown = [p for p in props if p not in _VERIFY_CHECKERS and p != "sdef"]
    if unknown:
        raise PreconditionError(f"unknown properties: {', '.join(unknown)}")

    audits: dict = {}
    if isinstance(target, RandomizedAllocation):
        named = {p: _VERIFY_CHECKERS[p] for p in props if p != "sdef"}
        for name, rep in check_support(inst, target, named).items():
            audits[name] = rep.to_json()
        if "sdef" in props:
            rows = target.associated_fractional(inst.m).entries
            audits["sdef"] = check_sdef_instance(inst, rows).to_json()
    else:
        for p in props:
            if p == "sdef":
                rows = [
                    [Fraction(1) if g in target.bundles[i] else Fraction(0) for g in inst.goods]
                    for i in inst.agents
                ]
                audits["sdef"] = check_sdef_instance(inst, rows).to_json()
            else:
                audits[p] = _VERIFY_CHECKERS[p](inst, target).to_json()

    _emit({"audits": audits}, args.output)
    ok = all(rep["passed"] for rep in audits.values())
    return EXIT_OK if ok else EXIT_PROPERTY


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


def cmd_oracle(args) -> int:
    inst = _load(args)
    op = args.op
    if op == "enumerate-efx":
        allocs = enumerate_efx(inst)
        _emit({"count": len(allocs), "allocations": [a.to_json() for a in allocs]}, args.output)
        return EXIT_OK
    if op == "sdef-feasibility":
        if args.supports:
            with open(args.supports) as fh:
                data = json.load(fh)
            supports = [IntegralAllocation.from_json(d) for d in json_field(data, "allocations", list)]
            _require_fits(inst, supports)
        else:
            supports = list(enumerate_efx(inst))
        if not supports:
            raise PreconditionError("no support allocations to mix")
        res = sdef_feasibility(inst, supports)
        _emit(res.to_json(), args.output)
        return EXIT_OK
    if op.startswith("exact-"):
        algo = ALGORITHMS[op[len("exact-"):]]
        dist = exact_distribution_charity(inst, algorithm=algo.exact, leaf_cap=args.leaf_cap)
        (checker,) = _checkers(algo.audits).values()
        reports = check_support(inst, dist, {"support": checker})
        audits = {name: rep.to_json() for name, rep in reports.items()}
        for key, check in _exante_checkers(algo.exante).items():
            audits[key] = check(dist, inst).to_json()
        _emit({"distribution": dist.to_json(), "audits": audits}, args.output)
        ok = all(rep["passed"] for rep in audits.values())
        return EXIT_OK if ok else EXIT_PROPERTY
    raise PreconditionError(f"unknown oracle op {op}")  # pragma: no cover


# ---------------------------------------------------------------------------
# replication scenarios


def _repro_impossibility(args) -> dict:
    inst = fixtures.fix_a()
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
    eps = parse_rational(args.epsilon) if args.epsilon else fixtures.DEFAULT_EPSILON
    inst = fixtures.fix_b(eps)
    dist = uniform_permutation(inst, mode="exact")
    frac = dist.associated_fractional(inst.m)
    ratio = exante_ratio(dist, inst, 0, 1)
    expected = Fraction(432) + 5808 * eps
    expected /= Fraction(576) + 528 * eps
    report = {
        "scenario": "example-4-1",
        "epsilon": format_rational(eps),
        "matrix": [[format_rational(x) for x in row] for row in frac.entries],
        "ratio_pair_1_2": format_rational(ratio),
        "expected_ratio": format_rational(expected),
    }
    if ratio != expected:
        raise PropertyFailure("closed-form ratio mismatch", report)
    return report


def _repro_utse_tight(args) -> dict:
    eps = parse_rational(args.epsilon) if args.epsilon else fixtures.DEFAULT_EPSILON
    inst = fixtures.fix_c(eps)
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
    inst = _load(args)
    trace = full_run(inst)
    frac = fractional_outcome(trace)
    sdef = check_sdef_instance(inst, frac.entries)
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
        "instance": args.instance,
        "sdef": sdef.to_json(),
        "terms": term_reports,
    }
    if not sdef.passed or not all_pass:
        raise PropertyFailure("eating baseline property failed", report)
    report["summary"] = (
        f"sd-EF pass; all {len(term_reports)} terms EF1 and picking-sequence reconstructible"
    )
    return report


_SCENARIOS = {
    "impossibility": _repro_impossibility,
    "example-4-1": _repro_example_4_1,
    "utse-tight": _repro_utse_tight,
    "ps-baseline": _repro_ps_baseline,
}


def cmd_repro(args) -> int:
    report = _SCENARIOS[args.scenario](args)
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
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    p.add_argument("--decomposition", help="JSON file pinning the lottery decomposition (utse only)")
    p.add_argument("--step-cap", type=int, help="work limit for bounded-charity")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="audit an allocation or distribution file")
    _add_common(p)
    p.add_argument("--allocation", required=True, help="allocation/distribution JSON path")
    p.add_argument(
        "--properties",
        required=True,
        help="comma list: ef, ef1, efx, efx-charity, bounded-charity, po-lex, sdef",
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
    exact = [f"exact-{name}" for name, algo in ALGORITHMS.items() if algo.exact]
    p.add_argument("--op", required=True, choices=["enumerate-efx", "sdef-feasibility", *exact])
    p.add_argument("--supports", help="allocations JSON for sdef-feasibility")
    p.add_argument("--leaf-cap", type=int, default=10**6)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("repro", help="replication scenarios with exact expected values")
    p.add_argument("scenario", choices=sorted(_SCENARIOS))
    p.add_argument("--instance", default="FIX-A", help="override instance (ps-baseline only)")
    p.add_argument("--epsilon", help="rational p/q for epsilon-parameterized scenarios")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.set_defaults(fn=cmd_repro)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PropertyFailure as exc:
        _emit({"error": str(exc), **exc.payload}, getattr(args, "output", None))
        return EXIT_PROPERTY
    except ResourceCapError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return EXIT_CAP
    except (PreconditionError, FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
