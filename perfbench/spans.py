"""In-memory span tracer that wraps bilgamma's layer functions from outside.

Each wrapped function is replaced, at the module or class attribute its
callers look it up by, with a wrapper that records a span
``(name, start, end, parent)`` and, where a layer does countable work, adds
to a named counter.  Nothing in the package is edited: ``install`` patches
the attributes and ``restore`` puts the originals back.  Self time is a
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from time import process_time

# Layer names used in metric names, in reporting order.
MODULES = ("quadrature", "combo", "pricing", "stein", "sampling", "cli")


def _counting(tracer, key, fn):
    """Wrap a callable handed to a quadrature routine so that each
    integrand evaluation adds one to ``key``."""
    counts = tracer.counts

    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted


def _count_integrand(key):
    def before(tracer, args, kwargs):
        return (_counting(tracer, key, args[0]),) + tuple(args[1:]), kwargs
    return before


def _count_terms(tracer, args, kwargs, result):
    tracer.counts["combo.build_mixture.terms"] += (
        result.pmf_pos.size + result.pmf_neg.size)


def _count_points(tracer, args, kwargs, result):
    tracer.counts["stein.points"] += result.size


def _count_draws(tracer, args, kwargs, result):
    tracer.counts["sampling.draws"] += result.size


def _count_exit(tracer, args, kwargs, result):
    if result != 0:
        tracer.failures["cli.main"] += 1


def _count_csv_bytes(tracer, args, kwargs, result):
    if args[0]:
        tracer.counts["cli.csv_bytes"] += os.path.getsize(args[0])


# (object path, attribute, span name, before-hook, after-hook).  The object
# path is where the caller looks the function up, so a function reached
# through several modules is wrapped in each of them under one span name.
TARGETS = (
    ("bilgamma.combo", "log_hyperint", "quadrature.log_hyperint", None, None),
    ("bilgamma.combo", "fourier_density", "quadrature.fourier_density",
     _count_integrand("quadrature.fourier_density.integrand_evals"), None),
    ("bilgamma.pricing", "_quad", "quadrature._quad",
     _count_integrand("quadrature._quad.integrand_evals"), None),
    ("bilgamma.combo:MixtureRepresentation", "pdf_series", "combo.pdf_series",
     None, None),
    ("bilgamma.combo:LinearCombinationModel", "pdf_fourier",
     "combo.pdf_fourier", None, None),
    ("bilgamma.combo", "build_mixture", "combo.build_mixture", None,
     _count_terms),
    ("bilgamma.cli", "build_mixture", "combo.build_mixture", None,
     _count_terms),
    ("bilgamma.pricing", "_tail_probability", "pricing._tail_probability",
     None, None),
    ("bilgamma.cli", "price_call_integral", "pricing.price_call_integral",
     None, None),
    ("bilgamma.cli", "price_call_gamma_series",
     "pricing.price_call_gamma_series", None, None),
    ("bilgamma.cli", "price_call_atm", "pricing.price_call_atm", None, None),
    ("bilgamma.cli", "price_call_monte_carlo",
     "pricing.price_call_monte_carlo", None, None),
    ("bilgamma.stein", "stein_identity_check", "stein.stein_identity_check",
     None, None),
    ("bilgamma.stein", "stein_apply_batch", "stein.stein_apply_batch", None,
     _count_points),
    ("bilgamma.stein", "empirical_kolmogorov", "stein.empirical_kolmogorov",
     None, None),
    ("bilgamma.cli", "empirical_kolmogorov", "stein.empirical_kolmogorov",
     None, None),
    ("bilgamma.sampling", "sample_direct", "sampling.sample_direct", None,
     _count_draws),
    ("bilgamma.cli", "sample_direct", "sampling.sample_direct", None,
     _count_draws),
    ("bilgamma.stein", "sample_direct", "sampling.sample_direct", None,
     _count_draws),
    ("bilgamma.pricing", "sample_direct", "sampling.sample_direct", None,
     _count_draws),
    ("bilgamma.sampling", "sample_mixture", "sampling.sample_mixture", None,
     _count_draws),
    ("bilgamma.cli", "sample_compound_poisson",
     "sampling.sample_compound_poisson", None, _count_draws),
    ("bilgamma.cli", "main", "cli.main", None, _count_exit),
    ("bilgamma.cli", "_write_csv", "cli._write_csv", None, _count_csv_bytes),
    ("bilgamma.cli", "_write_json", "cli._write_json", None, None),
)

FUNCTIONS = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNTERS = ("quadrature._quad.integrand_evals",
            "quadrature.fourier_density.integrand_evals",
            "combo.build_mixture.terms", "stein.points", "sampling.draws",
            "cli.csv_bytes")


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; returns its result."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = process_time()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures[name] += 1
            raise
        finally:
            end = process_time()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def _wrap(self, orig, name, before, after):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            result = tracer.span(name, orig, *args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for path, attr, name, before, after in TARGETS:
            owner = _resolve(path)
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, before, after))

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def summary(self) -> dict:
        """Per span name: calls, busy time, self time, failures."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        for name, row in out.items():
            row["failures"] = self.failures[name]
        return dict(out)
