"""Spans around calls into shiftlab's public functions, recorded from outside.

A wrapper replaces a function at the module attribute its callers look it
up through (``shiftlab.cli.hankel_psd`` and ``shiftlab.shift1d.hankel_psd``
are the same function reached from two modules).  Each call records a span:
name, start, end, parent span and operation id.  Spans are kept in compact
arrays and written out when the run ends.  A layer's self time is its span
durations minus the part covered by its child spans.

Functions called tens of thousands of times per operation are not wrapped
(``WeightSeq.weight_sq``, ``ShiftGrid2D.alpha_sq``/``beta_sq``, ``Fraction``
arithmetic); ``matrix_det`` is counted without a span.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Work the tracer does for itself (operand bit lengths) is recorded as a span
# of this name, so it lands in no layer's self time.
OVERHEAD = "trace.bits"


def fraction_bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self.max_bits: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def span(self, name: str, fn, bits=None, products=None):
        """Wrap fn in a span; bits(args, result) yields values whose largest
        bit length is kept, products(args, kwargs) a count to add up."""
        nid = self._id(name)
        overhead = self._id(OVERHEAD)
        counts = self.counts

        def wrapped(*args, **kwargs):
            idx = self._open(nid)
            self.start[idx] = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            counts[name + ".calls"] += 1
            if products is not None:
                counts[name + ".products"] += products(args, kwargs)
            if bits is not None:
                extra = self._open(overhead)
                self.start[extra] = perf_counter()
                width = fraction_bits(bits(args, return_value))
                if width > self.max_bits.get(name, 0):
                    self.max_bits[name] = width
                self.end[extra] = perf_counter()
                self.stack.pop()
            return return_value

        return wrapped

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapped

    def patch(self, wrapper, *sites: tuple[object, str]) -> None:
        """Install one wrapper at every (owner, attribute) lookup site."""
        for owner, attr in sites:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one operation."""
        self.current_op = op_id
        idx = self._open(self._id("op"))
        self.start[idx] = perf_counter()
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()
            self.current_op = -1

    def self_times(self) -> dict[int, Counter]:
        """Self time in seconds per operation id, then per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals: dict[int, Counter] = {}
        for i in range(n):
            totals.setdefault(self.op[i], Counter())[self.names[self.name[i]]] += dur[i] - child[i]
        return totals

    def write(self, path: str) -> None:
        """Spans as gzip'd tab-separated lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                out.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.op[i]}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap the public functions each workload reaches, at their lookup sites."""
    from shiftlab import cli, exactnum, measures, sfc, shift1d, shift2d

    t = tracer
    t.patch(t.span("cli.main", cli.main), (cli, "main"))
    t.patch(t.span("shift1d.hankel_psd", shift1d.hankel_psd), (cli, "hankel_psd"), (shift1d, "hankel_psd"))
    t.patch(
        t.span(
            "shift1d.hankel_matrix",
            shift1d.hankel_matrix,
            bits=lambda args, rows: (v for row in rows for v in row),
        ),
        (shift1d, "hankel_matrix"),
    )
    t.patch(
        t.span("shift1d.gamma", shift1d.WeightSeq.gamma, products=lambda args, kwargs: args[1]),
        (shift1d.WeightSeq, "gamma"),
    )
    t.patch(t.span("exactnum.psd_check", shift1d.psd_check), (shift1d, "psd_check"))
    t.patch(t.counter("exactnum.matrix_det", exactnum.matrix_det), (exactnum, "matrix_det"))
    t.patch(t.span("exactnum.psd2_radical_cross", shift2d.psd2_radical_cross), (shift2d, "psd2_radical_cross"))
    t.patch(t.span("shift2d.grid_from_json", cli.grid_from_json), (cli, "grid_from_json"))
    t.patch(
        t.span(
            "shift2d.six_point_data",
            shift2d.six_point_data,
            bits=lambda args, d: (d.a1, d.a2, d.p, d.q),
        ),
        (cli, "six_point_data"),
        (shift2d, "six_point_data"),
    )
    t.patch(
        t.span("shift2d.joint_hyponormal_window", shift2d.joint_hyponormal_window),
        (cli, "joint_hyponormal_window"),
        (shift2d, "joint_hyponormal_window"),
    )
    t.patch(t.span("exactnum.decimal_string", cli.decimal_string), (cli, "decimal_string"))
    t.patch(t.span("measures.make1d", measures.make1d), (measures, "make1d"), (sfc, "make1d"))
    t.patch(
        t.span("exactnum.poly_nonneg_on_interval", measures.poly_nonneg_on_interval),
        (measures, "poly_nonneg_on_interval"),
    )
    t.patch(
        t.span("measures.backward_ext_2var", measures.backward_ext_2var),
        (measures, "backward_ext_2var"),
        (sfc, "backward_ext_2var"),
    )
    t.patch(t.span("sfc.params_from_json", sfc.params_from_json), (sfc, "params_from_json"))
    t.patch(t.span("sfc.classify", sfc.classify), (sfc, "classify"))
    t.patch(t.span("sfc.sfc_grid", sfc.sfc_grid), (sfc, "sfc_grid"))
    t.patch(t.span("sfc.sfc_backward_extension", sfc.sfc_backward_extension), (sfc, "sfc_backward_extension"))
