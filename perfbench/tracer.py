"""Span recorder for the traced run, installed from outside the package.

`install(recorder)` wraps the public functions of the hyperlab modules named in
LAYERS and rebinds each wrapper wherever the package holds a reference to the
original: module globals (so calls inside `counts` resolve to the wrapper),
names imported with `from ... import` (as `cli` does for `make_report` and
`parse_setspec`), and module-level dicts such as `verify.SUITES`.  A binding
that is missed leaves its time in the caller's self time; the call-count check
in worker.py catches that.

A span is (name, start, end, parent index).  Spans stay in memory and are
written out by the caller once the run ends.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

import functools
import inspect
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "sets", "field", "counts", "bounds", "verify", "oracle")


def _span_name(module, name):
    """Span name of a wrapped function, or None to leave it unwrapped."""
    if module == "cli":
        return "cli.main" if name == "main" else None
    if module == "bounds" and name.startswith("eval_"):
        return "bounds.eval"
    if module == "bounds" and name.startswith("report_to_"):
        return "bounds.render"
    if module == "verify":
        return "verify.suite"
    if module == "oracle":
        return "oracle"
    return f"{module}.{name}"


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Spans of one run, with per-name call counts, self times and work counters."""

    def __init__(self):
        self.spans = []
        self._stack = []  # [span index, name, start, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.stats = defaultdict(float)

    def parent_name(self):
        return self._stack[-1][1] if self._stack else None

    def begin(self, name):
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def end(self):
        t1 = time.perf_counter()
        idx, name, t0, covered = self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans[idx] = (name, t0, t1, parent[0] if parent is not None else -1)
        self.calls[name] += 1
        self.self_s[name] += dur - covered


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


# Work counters, computed from input and result sizes.
def _t_k_work(rec, args, kwargs, result):
    if _arg(args, kwargs, 1, "k") == 3:
        rec.stats["counts.t_k.k3.triples"] += len(args[0]) ** 3


def _quotient_work(rec, args, kwargs, result):
    n = len(args[0])
    rec.stats["counts.quotient_histogram.pairs"] += n * n
    rec.stats["counts.quotient_histogram.support"] += len(result)
    if rec.parent_name() == "counts.t_k.k4":
        rec.stats["counts.t_k.k4.products"] += len(result) ** 2


def _rich_hyperbolae_work(rec, args, kwargs, result):
    if _arg(args, kwargs, 3, "mode", "pairs") == "pairs":
        n = len(args[0])
        rec.stats["counts.rich_hyperbolae.point_pairs"] += n * (n - 1) // 2 * n * n


def _rich_lines_work(rec, args, kwargs, result):
    n = len(args[0]) * len(args[1])
    rec.stats["counts.rich_lines.point_pairs"] += n * (n - 1) // 2


def _sigma_rect_work(rec, args, kwargs, result):
    rec.stats["counts.sigma_rect.tests"] += len(args[0]) * len(args[2])


def _suite_work(rec, args, kwargs, result):
    rec.stats["verify.cases"] += result.cases


_WORK = {
    "counts.t_k": _t_k_work,
    "counts.quotient_histogram": _quotient_work,
    "counts.rich_hyperbolae": _rich_hyperbolae_work,
    "counts.rich_lines": _rich_lines_work,
    "counts.sigma_rect": _sigma_rect_work,
    "verify.suite": _suite_work,
}


def _wrap(rec, fn, name, resource_limit):
    work = _WORK.get(name)
    by_k = name == "counts.t_k"
    in_counts = name.startswith("counts.")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = f"counts.t_k.k{_arg(args, kwargs, 1, 'k')}" if by_k else name
        rss0 = _maxrss_mb() if in_counts else 0.0
        rec.begin(span)
        try:
            result = fn(*args, **kwargs)
        except resource_limit as e:
            if in_counts and not getattr(e, "_perfbench_counted", False):
                e._perfbench_counted = True
                rec.stats["counts.resource_limit.count"] += 1
            raise
        finally:
            rec.end()
            if in_counts:
                rec.stats[span + ".rss_rise_mb"] += _maxrss_mb() - rss0
        if work is not None:
            work(rec, args, kwargs, result)
        return result

    return traced


def install(rec):
    """Wrap and rebind every public function of LAYERS; return the number of
    references rebound.  `field.Fp` is a class, so its __init__ is wrapped."""
    import hyperlab.cli  # noqa: F401  (imports every layer)
    from hyperlab.errors import ResourceLimit
    from hyperlab.field import Fp

    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"hyperlab.{layer}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            span = _span_name(layer, name)
            if span is not None:
                wrappers[obj] = _wrap(rec, obj, span, ResourceLimit)
    Fp.__init__ = _wrap(rec, Fp.__init__, "field.Fp", ResourceLimit)

    rebound = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "hyperlab" and not modname.startswith("hyperlab."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, name, wrappers[obj])
                rebound += 1
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]
                        rebound += 1
    return rebound
