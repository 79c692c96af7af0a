"""Span tracing of the package's layers, installed from outside the package.

The tracer replaces public functions with wrappers at every place a caller
binds them: the module attributes of ``bobw``, ``bobw.core``,
``bobw.eating``, ``bobw.rounding``, ``bobw.lex_algos``, ``bobw.audit``,
``bobw.charity_algos``, ``bobw.oracle`` and ``bobw.cli``.  Call sites look
those attributes up at call time, so every call made inside the package
goes through the wrapper.  Nothing in the package is edited.

``install`` puts the wrappers in place and ``uninstall`` puts the original
functions back, so untraced code can run with no wrapper frame at all.

A wrapper records one span (name, start, end, parent span, op id) while an
op is open and passes straight through otherwise.  Spans stay in memory
until the run ends.  Hot helpers get counters only: ``value_of`` (per
binding module) and ``SplitMix64.event``/``below``.  A few wrappers also
count work read off the return value (eating segments, decomposition terms,
lottery support sizes, swap steps).

Self time of a span is its duration minus its children's durations.  The
self times of all spans of an op add up to the op's wall time, because the
op itself is the root span ``bench.op``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# Traced functions: (defining module, attribute, span name).
SPANS = (
    ("core", "load_instance", "core.load_instance"),
    ("eating", "unit_run", "eating.unit_run"),
    ("eating", "full_run", "eating.full_run"),
    ("eating", "summarize", "eating.summarize"),
    ("eating", "representative_matrix", "eating.representative_matrix"),
    ("rounding", "bvn_decompose", "rounding.bvn_decompose"),
    ("rounding", "dependent_round", "rounding.dependent_round"),
    ("rounding", "build_supergood_matrix", "rounding.build_supergood_matrix"),
    ("lex_algos", "utse", "lex_algos.utse"),
    ("lex_algos", "k2_sampler", "lex_algos.k2_sampler"),
    # the callable k2_sampler returns looks this helper up on every draw
    ("lex_algos", "_k2_from_rounding", "lex_algos.k2_draw"),
    ("audit", "check_efx", "audit.check_efx"),
    ("audit", "check_po_lex", "audit.check_po_lex"),
    ("audit", "min_exante_ratio", "audit.min_exante_ratio"),
    ("audit", "check_support", "audit.check_support"),
    ("audit", "check_efx_with_charity", "audit.check_efx_with_charity"),
    ("audit", "check_bounded_charity", "audit.check_bounded_charity"),
    ("audit", "check_stochastic_dominance_half", "audit.check_stochastic_dominance_half"),
    ("charity_algos", "random_charity_swap", "charity_algos.random_charity_swap"),
    ("charity_algos", "bounded_charity", "charity_algos.bounded_charity"),
    ("oracle", "exact_distribution_charity", "oracle.exact_distribution_charity"),
    ("cli", "main", "cli.main"),
)

# Methods traced as spans: (module, class, method, span name).
METHOD_SPANS = (
    ("core", "IntegralAllocation", "to_json", "core.to_json"),
    ("core", "RandomizedAllocation", "to_json", "core.to_json"),
)

# Work counted from return values: span name -> (counter, count function).
RESULT_COUNTERS = {
    "eating.unit_run": ("eating.events", lambda r: sum(len(s) for s in r.segments)),
    "eating.full_run": ("eating.events", lambda r: sum(len(s) for s in r.segments)),
    "rounding.bvn_decompose": ("rounding.bvn_terms", lambda r: len(r.terms)),
    "lex_algos.utse": ("lex_algos.support_size", lambda r: len(r.support)),
    "charity_algos.random_charity_swap": ("charity_algos.swap_steps", lambda r: len(r[1].steps)),
    "oracle.exact_distribution_charity": ("oracle.support_size", lambda r: len(r.support)),
}

BINDING_MODULES = ("core", "eating", "rounding", "lex_algos", "audit", "charity_algos", "oracle", "cli")
# value_of binders with a counter of their own; every call also counts
# toward core.value_calls
VALUE_BINDERS = ("audit", "lex_algos", "charity_algos")
COUNTERS = (
    "core.value_calls",
    "audit.value_calls",
    "lex_algos.value_calls",
    "charity_algos.value_calls",
    "eating.events",
    "rounding.bvn_terms",
    "rounding.pivots",
    "lex_algos.support_size",
    "charity_algos.swap_steps",
    "charity_algos.envied_subset_calls",
    "oracle.support_size",
    "rng.event_calls",
    "rng.below_calls",
)
LAYERS = ("audit", "core", "eating", "rounding", "lex_algos", "charity_algos", "oracle", "cli", "bench")
SETUP_LAYERS = ("core", "eating", "rounding", "lex_algos", "bench")
ROOT = "bench.op"


class Tracer:
    def __init__(self, bobw):
        self.op = None  # id of the open op, None while no op is open
        self.spans = []  # [id, parent, name, start, end, op]
        self.stack = []  # ids of open spans
        self.counters = Counter()
        self.patches = self._patches(bobw)  # [(owner, attribute, original, wrapper)]

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None, name, time.perf_counter(), None, self.op]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id, fn, *args):
        """Run fn(*args) as one op under the root span."""
        self.op = op_id
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.op = None

    def top(self):
        return self.spans[self.stack[-1]][2] if self.stack else None

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        tracer = self
        counted = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counted is not None:
                tracer.counters[counted[0]] += counted[1](result)
            return result

        return wrapper

    def counter_wrapper(self, names: tuple, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                for name in names:
                    tracer.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    def _patches(self, bobw) -> list:
        """Every traced function, wherever the package binds it."""
        modules = {name: getattr(bobw, name) for name in BINDING_MODULES}
        targets = [bobw, *modules.values()]
        patches = []
        wrappers = {}
        for mod, attr, name in SPANS:
            original = getattr(modules[mod], attr)
            wrappers[id(original)] = (original, self.span_wrapper(name, original))
        for module in targets:
            for attr, value in vars(module).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value, hit[1]))
        # value_of: one counter per binding module plus the total
        value_of = modules["core"].value_of
        for module in targets:
            if vars(module).get("value_of") is value_of:
                label = module.__name__.rsplit(".", 1)[-1]
                names = ("core.value_calls",)
                if label in VALUE_BINDERS:
                    names = (f"{label}.value_calls",) + names
                patches.append((module, "value_of", value_of, self.counter_wrapper(names, value_of)))
        for mod, cls, meth, name in METHOD_SPANS:
            klass = getattr(modules[mod], cls)
            original = vars(klass)[meth]
            patches.append((klass, meth, original, self.span_wrapper(name, original)))
        rng = bobw.rng.SplitMix64
        patches.append((rng, "event", rng.event, self._event_wrapper(rng.event)))
        patches.append((rng, "below", rng.below, self.counter_wrapper(("rng.below_calls",), rng.below)))
        envied = modules["charity_algos"].minimal_envied_subset
        counted = self.counter_wrapper(("charity_algos.envied_subset_calls",), envied)
        for mod in ("charity_algos", "oracle"):
            if vars(modules[mod]).get("minimal_envied_subset") is envied:
                patches.append((modules[mod], "minimal_envied_subset", envied, counted))
        return patches

    def _event_wrapper(self, event):
        tracer = self

        @functools.wraps(event)
        def traced_event(rng, p):
            if tracer.op is not None:
                tracer.counters["rng.event_calls"] += 1
                if tracer.top() == "rounding.dependent_round":
                    tracer.counters["rounding.pivots"] += 1
            return event(rng, p)

        return traced_event

    # -- analysis ----------------------------------------------------------

    def self_times(self, ops) -> tuple[dict, dict, float]:
        """Per span name: (self seconds, calls) over the given ops, plus the
        ops' total wall time.  Raises if spans do not nest."""
        child = defaultdict(float)
        for sid, parent, name, start, end, op in self.spans:
            if op in ops and parent is not None:
                p = self.spans[parent]
                if not (p[3] <= start <= end <= p[4]):
                    raise AssertionError(f"span {sid} ({name}) lies outside its parent {p[2]}")
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        wall = 0.0
        for sid, parent, name, start, end, op in self.spans:
            if op not in ops:
                continue
            self_s[name] += (end - start) - child[sid]
            calls[name] += 1
            if parent is None:
                wall += end - start
        return dict(self_s), dict(calls), wall

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
