"""Spans and counts at the public boundaries of the sl2family layers.

Nothing under ``src/`` knows about this module: the tracer replaces public
functions and methods with wrappers from outside, and puts the originals
back when it is uninstalled.  A name bound by ``from .x import f`` is
replaced in every sl2family namespace that bound it, so calls made from
inside the package are seen as well as calls made by the benchmark.

A span records (name, start, end, parent span, task id).  Spans are kept in
memory; a span's self time is its duration minus the time its direct
children cover.  Counters are plain call counts, taken at the same
boundaries; the scalar counters also keep every 61st operand tuple so that
the per-op timings replay operands drawn like the workload's.
"""

from __future__ import annotations

import operator
import time
from collections import Counter, defaultdict
from importlib import import_module

MODULES = ("scalars", "pbw", "sheaf", "families", "fibers", "duals", "cli")

# (metric, module, attribute): the calls that open a span.
SPANS = (
    ("pbw.normal_multiply", "pbw", "normal_multiply"),
    ("pbw.change_basis", "pbw", "change_basis"),
    ("pbw.hc_projection", "pbw", "hc_projection"),
    ("sheaf.section_mul", "sheaf", "FamilySection.__mul__"),
    ("sheaf.center_decompose", "sheaf", "center_decompose"),
    ("sheaf.gamma_family", "sheaf", "gamma_family"),
    ("sheaf.chart_transport", "sheaf", "to_infinity_chart"),
    ("sheaf.chart_transport", "sheaf", "to_finite_chart"),
    ("families.make_family", "families", "make_family"),
    ("families.make_family", "families", "family_from_json"),
    ("families.ladder", "families", "LadderAction.up"),
    ("families.ladder", "families", "LadderAction.down"),
    ("families.in_tilde_class", "families", "in_tilde_class"),
    ("families.infinitesimal_character", "families", "infinitesimal_character"),
    ("fibers.evaluate_fiber", "fibers", "evaluate_fiber"),
    ("fibers.composition_factors", "fibers", "composition_factors"),
    ("fibers.reducibility_points", "fibers", "reducibility_points"),
    ("fibers.jantzen", "fibers", "jantzen_quotient_formula"),
    ("duals.verify_conjecture1", "duals", "verify_conjecture1"),
    ("duals.characterize", "duals", "characterize_bijections"),
    ("cli.cmd", "cli", "cmd_classify"),
    ("cli.cmd", "cli", "cmd_analyze"),
    ("cli.cmd", "cli", "cmd_bijection"),
    ("cli.render_json", "cli", "render_json"),
)

# (metric, module, attribute, replay): calls that are only counted.  replay
# turns the call's arguments into (operation, operands) for the per-op
# timings; None means the operands are not kept.
_GR = "GaussianRational"
COUNTS = (
    ("pbw.times_generator.calls", "pbw", "times_generator", None),
    ("sheaf.laurent_mul.calls", "sheaf", "Laurent.__mul__", None),
    ("sheaf.laurent_mul.calls", "sheaf", "Laurent.__rmul__", None),
    ("duals.params_equivalent.calls", "duals", "params_equivalent", None),
    ("duals.eta.calls", "duals", "eta", None),
    ("scalars.gr_mul.calls", "scalars", f"{_GR}.__mul__", lambda a, b: (operator.mul, a, b)),
    ("scalars.gr_mul.calls", "scalars", f"{_GR}.__rmul__", lambda a, b: (operator.mul, b, a)),
    ("scalars.gr_add.calls", "scalars", f"{_GR}.__add__", lambda a, b: (operator.add, a, b)),
    ("scalars.gr_add.calls", "scalars", f"{_GR}.__radd__", lambda a, b: (operator.add, b, a)),
    ("scalars.gr_add.calls", "scalars", f"{_GR}.__sub__", lambda a, b: (operator.sub, a, b)),
    ("scalars.gr_add.calls", "scalars", f"{_GR}.__rsub__", lambda a, b: (operator.sub, b, a)),
    ("scalars.gr_div.calls", "scalars", f"{_GR}.__truediv__", None),
    ("scalars.gr_div.calls", "scalars", f"{_GR}.__rtruediv__", None),
    ("scalars.gr_eq.calls", "scalars", f"{_GR}.__eq__", lambda a, b: (operator.eq, a, b)),
    ("scalars.poly_eval.calls", "scalars", "Poly.eval", lambda p, x: (_poly_eval, p, x)),
    ("scalars.poly_eval.calls", "scalars", "Poly.__call__", lambda p, x: (_poly_eval, p, x)),
)

SAMPLE_EVERY = 61
SAMPLE_MAX = 2000


def _poly_eval(p, x):
    return p.eval(x)


def _namespaces():
    pkg = import_module("sl2family")
    return [pkg] + [import_module(f"sl2family.{m}") for m in MODULES]


class Tracer:
    """Installs wrappers, records spans and counts, and summarizes them."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, task id]
        self.counts: Counter = Counter()
        self.samples: dict = defaultdict(list)  # counter metric -> [(op, a, b)]
        self.task_id = -1
        self._stack: list = []
        self._depth: Counter = Counter()  # open spans per layer
        self._patches: list = []  # (owner, attribute, original)
        self._hooks = {
            "pbw": self._pbw_result,
            "fibers.evaluate_fiber": self._fiber_result,
            "duals.verify_conjecture1": self._report_result,
            "cli.render_json": self._rendered,
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for metric, module, attr in SPANS:
            self._patch(module, attr, lambda fn, metric=metric: self._span_wrapper(metric, fn))
        for metric, module, attr, replay in COUNTS:
            self._patch(module, attr,
                        lambda fn, metric=metric, replay=replay: self._count_wrapper(metric, fn, replay))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        mod = import_module(f"sl2family.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for ns in _namespaces():
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patches.append((ns, name, original))
                    setattr(ns, name, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, metric: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        layer = metric.split(".")[0]
        hook = self._hooks.get(metric) or self._hooks.get(layer)

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [metric, 0.0, 0.0, stack[-1] if stack else -1, self.task_id]
            spans.append(record)
            stack.append(index)
            depth[layer] += 1
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                depth[layer] -= 1
            if hook is not None and depth[layer] == 0:
                hook(result)
            return result

        return wrapper

    def _count_wrapper(self, metric: str, fn, replay):
        counts = self.counts
        sample = self.samples[metric]

        if replay is None:
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
            return wrapper

        def sampled(*args):
            n = counts[metric] = counts[metric] + 1
            if n % SAMPLE_EVERY == 0 and len(sample) < SAMPLE_MAX:
                sample.append(replay(*args))
            return fn(*args)

        return sampled

    # -- result hooks (outermost span of the layer only) --------------------------

    def _pbw_result(self, result) -> None:
        terms = getattr(result, "terms", result)
        self.counts["pbw.terms_out"] += len(terms)

    def _fiber_result(self, fib) -> None:
        self.counts["fibers.edges_tabulated"] += len(fib.up) + len(fib.down)

    def _report_result(self, result) -> None:
        self.counts["duals.checks"] += len(result[1])

    def _rendered(self, text) -> None:
        self.counts["cli.bytes_out"] += len(text)

    # -- tasks and summaries ----------------------------------------------------

    def run_task(self, task_id: int, kind: str, fn):
        """Run one task under a root span named after its kind."""
        self.task_id = task_id
        return self._span_wrapper(f"task.{kind}", fn)()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        for sample in self.samples.values():
            sample.clear()

    def self_times(self) -> dict:
        """Total self time (s) and span count per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _task in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _parent, _task) in enumerate(self.spans):
            entry = out[name]
            entry[0] += (end - start) - child_time[i]
            entry[1] += 1
        return dict(out)
