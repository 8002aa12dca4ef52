"""Spans and work counters around the program's public functions.

Nothing here changes the program: `Tracer.install` rebinds the listed
public functions, in every `twosquares` module that refers to them, to
wrappers that time and count each call, and the function it returns
restores the originals.  Only the traced run installs it.

Coarse functions (decisions, classifications, catalog runs, report
building) record a span each: name, start, end, parent span and
operation id.  Hot leaf functions (evaluation, model enumeration, the
composite copula) only update per-name totals, so that tracing stays
affordable.  Every wrapped call charges its duration to its caller,
which gives each name a self time: its duration minus the part covered
by wrapped callees.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, function, name, kind); kind is "span", "leaf", "gen" (a
# generator whose items are counted) or "count" (calls counted, untimed).
TARGETS = (
    ("cli", "main", "cli.main", "span"),
    ("formula", "parse", "formula.parse", "span"),
    ("analytic", "decide_analytic_validity", "analytic.decide", "span"),
    ("analytic", "eval_analytic", "analytic.eval", "leaf"),
    ("analytic", "enumerate_analytic_models", "analytic.enumerate", "gen"),
    ("synthetic", "decide_synthetic_validity", "synthetic.decide", "span"),
    ("synthetic", "eval_synthetic", "synthetic.eval", "leaf"),
    ("synthetic", "enumerate_synthetic_models", "synthetic.enumerate", "gen"),
    ("synthetic", "enumerate_copula_structures", "synthetic.structures", "gen"),
    ("synthetic", "derived_copula", "synthetic.derived_copula", "count"),
    ("opposition", "classify_pair", "opposition.classify", "span"),
    ("opposition", "verify_square", "opposition.square", "span"),
    ("opposition", "run_catalog", "opposition.catalog", "span"),
    ("proofs", "check_derivation", "proofs.check", "span"),
    ("starb", "verify_two_squares", "starb.sweep", "span"),
    ("starb", "classify_cases", "starb.cases", "leaf"),
    ("starb", "all_elements", "starb.elements", "leaf"),
    ("starb", "matrix_neg", "starb.matrix", "leaf"),
    ("starb", "matrix_imp", "starb.matrix", "leaf"),
    ("starb", "matrix_eval", "starb.matrix", "leaf"),
    ("starb", "bridge_satisfies", "starb.bridge", "leaf"),
    ("report", "run_verify_paper", "report.verify_paper", "span"),
    ("report", "report_json", "report.json", "span"),
)

_DECIDERS = ("analytic.decide", "synthetic.decide")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, op)
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.items: Counter = Counter()  # generator items, elements, bytes
        self.op = 0
        self._stack: list[list] = []
        self._seen_decisions: set = set()
        self._active: Counter = Counter()

    def begin_op(self, op: int) -> None:
        """Start a new operation; repeated decisions are counted within one."""
        self.op = op
        self._seen_decisions = set()

    # --- bookkeeping -----------------------------------------------------

    def _enter(self, name: str, record: bool) -> list:
        """Open a frame: [name, start, time covered by callees, parent
        span, own span or -1]."""
        parent = -1
        if self._stack:
            top = self._stack[-1]
            parent = top[4] if top[4] >= 0 else top[3]
        own = -1
        if record:
            own = len(self.spans)
            self.spans.append(None)
        frame = [name, time.perf_counter(), 0.0, parent, own]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, call: bool = True) -> None:
        """Close a frame; `call` is false for resuming a generator, which
        is not a new call."""
        end = time.perf_counter()
        self._stack.pop()
        name, start, covered, parent, own = frame
        duration = end - start
        self.calls[name] += call
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if own >= 0:
            self.spans[own] = (name, start, end, parent, self.op)

    def _decision(self, name: str, args: tuple) -> None:
        key = (name,) + args
        if key in self._seen_decisions:
            self.items["opposition.repeated_decisions"] += 1
        self._seen_decisions.add(key)
        self.items["opposition.decisions"] += 1

    # --- wrappers --------------------------------------------------------

    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        if kind == "count":
            def counted(*args, **kwargs):
                tracer.calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "gen":
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    frame = tracer._enter(name, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(frame, first)
                        return
                    tracer._exit(frame, first)
                    first = False
                    tracer.items[name] += 1
                    yield item
            return generator
        record = kind == "span"

        def wrapped(*args, **kwargs):
            # Recursive calls (eval_analytic, bridge_satisfies) are part of
            # the outermost call and are neither counted nor timed again.
            if tracer._active[fn]:
                return fn(*args, **kwargs)
            call_name = name
            if name == "synthetic.eval" and _derived(args, kwargs):
                call_name = "synthetic.derived_eval"
            if name in _DECIDERS:
                tracer._decision(name, args + tuple(sorted(kwargs.items())))
            tracer._active[fn] += 1
            frame = tracer._enter(call_name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
                tracer._active[fn] -= 1
            if name == "starb.elements":
                tracer.items[name] += len(result)
            elif name == "report.json":
                tracer.items["report.bytes"] += len(result.encode("utf-8"))
            return result

        return wrapped

    def install(self):
        """Rebind every target in every loaded twosquares module; return
        a function that restores the originals."""
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(f"twosquares.{module_name}")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "twosquares"]
        restore = []
        for module_name, attr, name, kind in TARGETS:
            original = getattr(sys.modules[f"twosquares.{module_name}"], attr)
            wrapper = self._wrap(original, name, kind)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        restore.append((module, key, original))

        def uninstall() -> None:
            for module, key, original in restore:
                setattr(module, key, original)

        return uninstall

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "items": dict(self.items),
        }


def _derived(args: tuple, kwargs: dict) -> bool:
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    return opts is not None and opts.reading.value != "direct"
