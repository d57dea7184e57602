"""Spans around the public entry points of each nphk layer.

The benchmark traces from outside the program: ``Tracer.install`` replaces
each entry point below, in every nphk module that binds it, with a wrapper
that records a span (name, start, end, parent span, operation id).  Spans
stay in memory until the run writes them out; ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

# (module, attribute) -> span name.  ``ExponentProfile.value_at_p`` is a method.
ENTRY_POINTS = (
    ("nphk.cli", "build_report", "cli.build_report"),
    ("nphk.polyring", "parse_polynomial", "polyring.parse_polynomial"),
    ("nphk.newton", "taylor_support", "newton.taylor_support"),
    ("nphk.newton", "build_polygon", "newton.build_polygon"),
    ("nphk.classify", "classify_singularity", "classify.classify_singularity"),
    ("nphk.classify", "height", "classify.height"),
    ("nphk.classify", "linear_height", "classify.linear_height"),
    ("nphk.classify", "multiplicity_mfrak", "classify.multiplicity_mfrak"),
    ("nphk.exponent", "kp_profile", "exponent.kp_profile"),
    ("nphk.exponent", "ExponentProfile.value_at_p", "exponent.value_at_p"),
    ("nphk.exponent", "verify_nla_identity", "exponent.verify_nla_identity"),
    ("nphk.corpus", "run_corpus", "corpus.run_corpus"),
    ("nphk.oscint", "check_amplitude_support", "oscint.check_amplitude_support"),
    ("nphk.oscint", "eval_oscillatory", "oscint.eval_oscillatory"),
    ("nphk.oscint", "fit_decay_from_samples", "oscint.fit_decay_from_samples"),
    ("nphk.oscint", "randol_lq_scan", "oscint.randol_lq_scan"),
)

NPHK_MODULES = (
    "nphk",
    "nphk.polyring",
    "nphk.newton",
    "nphk.classify",
    "nphk.exponent",
    "nphk.corpus",
    "nphk.oscint",
    "nphk.cli",
)

# Spans whose traced heap peak is recorded: the quadrature node grids.
MEMORY_SPANS = frozenset({"oscint.eval_oscillatory", "oscint.randol_lq_scan"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    error: Optional[str] = None
    counts: Optional[Dict[str, Any]] = None
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def record(self, index: int) -> Dict[str, Any]:
        rec = {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
        }
        if self.error:
            rec["error"] = self.error
        if self.counts:
            rec["counts"] = self.counts
        return rec


def _counts(name: str, args, kwargs, result) -> Optional[Dict[str, Any]]:
    """Work counts read off a call's arguments and result."""
    if name == "polyring.parse_polynomial":
        return {"terms": len(result.terms)}
    if name == "newton.build_polygon":
        return {"vertices": len(result.vertices)}
    if name == "corpus.run_corpus":
        return {"checks": len(result), "failed": sum(1 for r in result if not r.ok)}
    if name == "oscint.eval_oscillatory":
        return {"lambda": float(args[2] if len(args) > 2 else kwargs["lam"])}
    if name == "oscint.randol_lq_scan":
        grid = kwargs.get("lambda_grid", ())
        return {
            "lambdas": [float(v) for v in grid],
            "validate": bool(kwargs.get("validate", True)),
        }
    return None


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        track_memory = name in MEMORY_SPANS

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, 0.0, parent, tracer.op)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            own_malloc = track_memory and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.duration
                if own_malloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    span.counts = {"peak_mb": peak / 2**20}
            counts = _counts(name, args, kwargs, result)
            if counts:
                span.counts = {**(span.counts or {}), **counts}
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in NPHK_MODULES]
        for module_name, attr, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(original, name))
                self._restore.append(lambda o=owner, m=meth, f=original: setattr(o, m, f))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append(lambda o=mod, k=key, f=original: setattr(o, k, f))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def records(self) -> List[Dict[str, Any]]:
        return [span.record(i) for i, span in enumerate(self.spans)]
