"""Spans recorded from outside the package.

`installed(tracer)` replaces functions of the seccache modules with wrappers
that record a span per call (name, start, end, parent span, operation id)
and restores every attribute on exit.  Names a module bound with
`from .x import y` are patched where they are looked up, so the same
function can be wrapped in two modules.  The hot scalar and vector field
operations get aggregate counters instead of one span per call.

Spans stay in memory; `per_op_metrics` turns them into per-operation sums.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from seccache import bounds, cli, pda, scheme, secrecy, sharing
from seccache.field import BinaryField
from seccache.secrecy import SessionAnalyzer


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    agg_s: float = 0.0  # time of aggregate-counted calls made directly inside

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """In-memory span and counter store; `op` tags everything recorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[object, str], float] = defaultdict(float)
        self.op: object = None
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counters[(self.op, name)] += value

    def span(self, name: str, fn, measure=None):
        """Wrap fn so each call records a span; measure(tracer, args, kwargs,
        result, span) may add counters once the call has returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                measure(self, args, kwargs, result, span)
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        """Wrap fn so each call adds to `<name>.calls` and `<name>.s` and is
        subtracted from the enclosing span's self time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self.counters[(self.op, name + ".calls")] += 1
                self.counters[(self.op, name + ".s")] += took
                if self._stack:
                    self.spans[self._stack[-1]].agg_s += took

        return wrapper


def covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part covered by its child spans and
    by the aggregate-counted calls made directly inside it."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - covered(span.start, span.end, children[i]) - span.agg_s
        for i, span in enumerate(spans)
    ]


# -- counters computed at the layer boundaries --------------------------------


def _bytes_in(tracer, args, kwargs, result, span):
    tracer.add("sharing.bytes_to_subfiles.bytes", len(args[0]))


def _bytes_out(tracer, args, kwargs, result, span):
    tracer.add("sharing.subfiles_to_bytes.bytes", len(result))


def _encoded(tracer, args, kwargs, result, span):
    tracer.add("sharing.encode_shares.symbols", sum(len(v) for v in result))


def _drawn(tracer, args, kwargs, result, span):
    tracer.add("sharing.random_vector.symbols", len(result))


def _delivered(tracer, args, kwargs, result, span):
    """Bytes XORed: every participant after the first, plus the pad."""
    garray, shares = args[0], args[1]
    strip = args[4] if len(args) > 4 else kwargs.get("strip_pads", False)
    share_bytes = shares[0][0].nbytes
    xors = sum(len(occ) - 1 + (0 if strip else 1) for occ in garray.pair_occurrences.values())
    tracer.add("scheme.deliver.xor_bytes", xors * share_bytes)
    tracer.add("scheme.transmissions", len(result))


def _checked(tracer, args, kwargs, result, span):
    took = span.end - span.start
    if result.holds:
        tracer.add("secrecy.check.pass_s", took)
    else:
        tracer.add("secrecy.check.fail_s", took)
        tracer.add("secrecy.verdicts.fail", 1)


def _eliminated(tracer, args, kwargs, result, span):
    rows, cols = args[1].shape
    tracer.add("secrecy.check.cells", rows * cols)


# (owner, attribute, span name, measure) for every function given a span.
TARGETS = [
    (sharing, "bytes_to_subfiles", "sharing.bytes_to_subfiles", _bytes_in),
    (sharing, "subfiles_to_bytes", "sharing.subfiles_to_bytes", _bytes_out),
    (sharing, "encode_shares", "sharing.encode_shares", _encoded),
    (sharing, "reconstruct_file", "sharing.reconstruct_file", None),
    (sharing, "invert_matrix", "sharing.invert_matrix", None),
    (sharing, "random_vector", "sharing.random_vector", _drawn),
    (scheme, "random_vector", "sharing.random_vector", _drawn),
    (scheme, "share_file", "sharing.share_file", None),
    (scheme, "unshare_file", "sharing.unshare_file", None),
    (scheme, "cauchy_matrix", "sharing.cauchy_matrix", None),
    (scheme, "helper_placement", "scheme.helper_placement", None),
    (scheme, "build_g_array", "scheme.build_g_array", None),
    (scheme, "user_key_placement", "scheme.user_key_placement", None),
    (scheme, "deliver", "scheme.deliver", _delivered),
    (scheme, "decode_user", "scheme.decode_user", None),
    (scheme, "decode_all", "scheme.decode_all", None),
    (scheme, "run_session", "scheme.run_session", None),
    (scheme, "one_time_pad_session", "scheme.one_time_pad_session", None),
    (secrecy, "verify_session", "secrecy.verify_session", None),
    (secrecy, "check_zero_information", "secrecy.check", _checked),
    (secrecy, "_echelon", "secrecy.echelon", _eliminated),
    (SessionAnalyzer, "cache_block", "secrecy.model_build", None),
    (SessionAnalyzer, "key_block", "secrecy.model_build", None),
    (SessionAnalyzer, "delivery_block", "secrecy.model_build", None),
    (pda, "load_pda", "pda.load_pda", None),
    (pda, "mn_pda", "pda.mn_pda", None),
    (pda, "validate", "pda.validate", None),
    (BinaryField, "_build_tables", "field.tables", None),
    (cli, "main", "cli.main", None),
    (cli, "cmd_simulate", "cli.simulate", None),
    (cli, "cmd_verify", "cli.verify", None),
    (cli, "cmd_sweep", "cli.sweep", None),
    (cli, "run_session", "scheme.run_session", None),
    (cli, "decode_user", "scheme.decode_user", None),
    (cli, "verify_session", "secrecy.verify_session", None),
    (cli, "load_pda", "pda.load_pda", None),
    (cli, "mn_pda", "pda.mn_pda", None),
    (cli, "sweep", "bounds.sweep", None),
    (cli, "sweep_csv", "bounds.sweep_csv", None),
    (cli, "mn_sweep_pdas", "bounds.mn_sweep_pdas", None),
    (bounds, "cutset_bound", "bounds.cutset_bound", None),
]


AGGREGATES = [
    (BinaryField, "mul", "field.mul"),
    (BinaryField, "scale", "field.scale"),
    (BinaryField, "scaled_outer", "field.scaled_outer"),
]


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block; always restore."""
    saved = []
    try:
        for owner, attr, name, measure in TARGETS:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.span(name, original, measure))
        for owner, attr, name in AGGREGATES:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.aggregate(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def per_op_metrics(tracer: Tracer) -> dict[object, dict[str, float]]:
    """For each operation id: `<span>.s`, `<span>.self_s` and `<span>.calls`
    summed over its spans, `<module>.self_s` per module, and the counters."""
    out: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        m = out[span.op]
        m[span.name + ".s"] += span.end - span.start
        m[span.name + ".self_s"] += own
        m[span.name + ".calls"] += 1
        m[span.module + ".self_s"] += own
    for (op, name), value in tracer.counters.items():
        out[op][name] += value
        if name.startswith("field.") and name.endswith(".s"):
            out[op]["field.self_s"] += value
    return out
