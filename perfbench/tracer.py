"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each opmeans layer from outside the
package, so the library itself carries no instrumentation.  Every wrapped
call records one span: name, start, end, parent span, run id (one per
outermost call), an item count and a computed operation count.  Spans are
kept in per-thread arrays and summarised (and written out) once, after the
run; self time is derived from them afterwards.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
import types
from array import array

import numpy as np

# span names, grouped by layer; labels after the function name split a
# function's spans by mean kind or family class
KIND_LABELS = ("power", "deformed", "karcher", "closed")
FAMILY_CLASS = {
    **dict.fromkeys(("3.9", "3.10", "3.11", "3.12", "4.4", "4.5", "5.4", "5.5", "5.9"), "power"),
    "5.8": "deformed",
    **dict.fromkeys(("3.13", "3.14", "5.10", "logmaj"), "karcher"),
    **dict.fromkeys(("4.6", "4.7", "4.8", "4.9"), "pair"),
    **dict.fromkeys(("5.3", "L5.1"), "closed"),
}
CELL_LABELS = ("power", "deformed", "karcher", "pair", "closed")

SPAN_NAMES = (
    "kernel.einsum",
    "kernel.eigh",
    "kernel.eigvalsh",
    "psd_core.eigh_apply",
    "psd_core.spd_sqrt_pair",
    "psd_core.random_spd",
    "meanfns.rep_eval",
    "meanfns.deformed_rep",
    *(f"multimeans.eval_mean_stack.{k}" for k in KIND_LABELS),
    "multimeans.eval_mean",
    "inequalities.gen_cell_data",
    *(f"inequalities.run_cell.{c}" for c in CELL_LABELS),
    "cli.main",
)
NAME_ID = {name: i for i, name in enumerate(SPAN_NAMES)}

# symmetric eigendecomposition with vectors: about 9 n^3 flops
# (Golub & Van Loan, Matrix Computations, sec. 8.3)
EIGH_FLOPS_PER_N3 = 9


def _kind_label(spec):
    return spec.kind if spec.kind in ("power", "deformed", "karcher") else "closed"


def _matrices(a):
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1


class Tracer:
    """Records spans around the callables it wraps; one tracer per traced run."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._patches = []
        self.run_id = 0  # one per outermost call from the main thread
        self.root = -1  # that call's span, the parent of worker-thread spans

    def _open_thread(self):
        local = self._local
        local.stack = []
        local.ints = array("i")  # id, name, parent, run, count
        local.floats = array("d")  # start, end, ops
        with self._lock:
            self._buffers.append((local.ints, local.floats))
        return local.stack

    def span(self, name, fn, count_of=None):
        """Wrap ``fn`` in spans named ``name``, or ``name(args)`` when that is
        callable; ``count_of(args, out)`` gives the span's ``(items, ops)``."""
        ids, perf, local, main = self._ids, time.perf_counter, self._local, self._main
        fixed = None if callable(name) else NAME_ID[name]

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = self._open_thread()
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                parent = self.root
                if threading.get_ident() == main:
                    self.root = sid
                    self.run_id += 1
            stack.append(sid)
            out = None
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf()
                stack.pop()
                if not stack and threading.get_ident() == main:
                    self.root = -1
                nid = NAME_ID[name(args)] if fixed is None else fixed
                items, ops = count_of(args, out) if count_of is not None and out is not None else (1, 0)
                local.ints.extend((sid, nid, parent, self.run_id, items))
                local.floats.extend((t0, t1, ops))

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # installing the wrappers
    # ------------------------------------------------------------------

    def _rebind(self, original, wrapper):
        """Bind ``wrapper`` wherever an opmeans module binds ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "opmeans" and not modname.startswith("opmeans."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def install(self):
        from opmeans import cli, inequalities, meanfns, multimeans, psd_core

        def eig_count(args, out):
            shape = np.shape(args[0])
            m = _matrices(args[0])
            return m, m * EIGH_FLOPS_PER_N3 * shape[-1] ** 3

        def mat_count(args, out):
            return _matrices(args[0]), 0

        # kernel: the numpy calls psd_core and multimeans make, through a
        # numpy stand-in bound to ``np`` in just those two modules
        linalg = types.ModuleType("numpy.linalg")
        vars(linalg).update(vars(np.linalg))
        linalg.eigh = self.span("kernel.eigh", np.linalg.eigh, eig_count)
        linalg.eigvalsh = self.span("kernel.eigvalsh", np.linalg.eigvalsh, mat_count)
        proxy = types.ModuleType("numpy")
        vars(proxy).update(vars(np))
        proxy.linalg = linalg
        proxy.einsum = self.span("kernel.einsum", np.einsum)
        for mod in (psd_core, multimeans):
            self._patches.append((mod, "np", mod.np))
            mod.np = proxy

        self._rebind(psd_core.eigh_apply, self.span("psd_core.eigh_apply", psd_core.eigh_apply, mat_count))
        self._rebind(psd_core.spd_sqrt_pair, self.span("psd_core.spd_sqrt_pair", psd_core.spd_sqrt_pair, mat_count))
        self._rebind(psd_core.random_spd, self.span("psd_core.random_spd", psd_core.random_spd))
        self._rebind(meanfns.rep_eval, self.span("meanfns.rep_eval", meanfns.rep_eval))
        self._rebind(meanfns.deformed_rep, self.span("meanfns.deformed_rep", meanfns.deformed_rep))
        self._rebind(
            multimeans.eval_mean_stack,
            self.span(
                lambda args: "multimeans.eval_mean_stack." + _kind_label(args[0]),
                multimeans.eval_mean_stack,
                lambda args, out: (int(out.iterations), 0),
            ),
        )
        self._rebind(multimeans.eval_mean, self.span("multimeans.eval_mean", multimeans.eval_mean))
        self._rebind(
            inequalities._gen_cell_data,
            self.span(
                "inequalities.gen_cell_data",
                inequalities._gen_cell_data,
                lambda args, out: (len(out.seeds), 0),
            ),
        )
        self._rebind(
            inequalities.run_cell,
            self.span(
                lambda args: "inequalities.run_cell." + FAMILY_CLASS[args[0]],
                inequalities.run_cell,
                lambda args, out: (int(out.constants["trials"]), 0),
            ),
        )
        self._rebind(cli.main, self.span("cli.main", cli.main))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def spans(self):
        """All spans as numpy columns, ordered by span id."""
        with self._lock:
            ints = np.concatenate([np.frombuffer(i, dtype=np.int32) for i, _ in self._buffers] or [np.zeros(0, np.int32)])
            floats = np.concatenate([np.frombuffer(f, dtype=np.float64) for _, f in self._buffers] or [np.zeros(0)])
        ints = ints.reshape(-1, 5).astype(np.int64)
        floats = floats.reshape(-1, 3)
        order = np.argsort(ints[:, 0], kind="stable")
        ints, floats = ints[order], floats[order]
        return {
            "id": ints[:, 0], "name": ints[:, 1], "parent": ints[:, 2], "run": ints[:, 3],
            "count": ints[:, 4], "start": floats[:, 0], "end": floats[:, 1], "ops": floats[:, 2],
        }


def self_times(sp):
    """Span duration minus the part of it that its child spans cover.

    Children on one thread never overlap, but children started from worker
    threads do, so the covered part is the union of the child intervals.
    """
    n = len(sp["id"])
    dur = sp["end"] - sp["start"]
    covered = np.zeros(n)
    kids = np.flatnonzero(sp["parent"] >= 0)
    if kids.size:
        parent_row = np.searchsorted(sp["id"], sp["parent"][kids])
        order = np.lexsort((sp["start"][kids], parent_row))
        kids, parent_row = kids[order], parent_row[order]
        # offset each parent's group so one running maximum restarts per group
        _, group = np.unique(parent_row, return_inverse=True)
        shift = group * (sp["end"].max() - sp["start"].min() + 1.0)
        s, e = sp["start"][kids] + shift, sp["end"][kids] + shift
        prev_end = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
        part = np.maximum(0.0, e - np.maximum(s, prev_end))
        np.add.at(covered, parent_row, part)
    return dur - covered, dur


def _under(sp, flags):
    """Mask of spans that have an ancestor whose row is set in ``flags``."""
    anc = sp["parent"].copy()
    hit = np.zeros(len(anc), dtype=bool)
    while np.any(anc >= 0):
        live = anc >= 0
        rows = np.searchsorted(sp["id"], anc[live])
        hit[live] |= flags[rows]
        nxt = np.full(len(anc), -1)
        nxt[live] = sp["parent"][rows]
        anc = nxt
    return hit


def layer_metrics(sp, threads):
    """Per-layer metrics from the recorded spans."""
    self_s, dur = self_times(sp)
    n_names = len(SPAN_NAMES)
    name = sp["name"]
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=self_s, minlength=n_names)
    items = np.bincount(name, weights=sp["count"], minlength=n_names)
    ops = np.bincount(name, weights=sp["ops"], minlength=n_names)
    nid = NAME_ID

    def module_self(prefix):
        return float(sum(own[i] for n, i in nid.items() if n.startswith(prefix + ".")))

    out = {}

    def put(key, value, unit):
        out[key] = (float(value), unit)

    for short in ("einsum", "eigh", "eigvalsh"):
        i = nid[f"kernel.{short}"]
        put(f"kernel.{short}.calls", calls[i], "count")
        put(f"kernel.{short}.s", total[i], "s")
    put("kernel.eigh.matrices", items[nid["kernel.eigh"]], "count")
    put("kernel.eigh.flops_computed", ops[nid["kernel.eigh"]], "flop")
    for short in ("eigh_apply", "spd_sqrt_pair", "random_spd"):
        i = nid[f"psd_core.{short}"]
        put(f"psd_core.{short}.calls", calls[i], "count")
        put(f"psd_core.{short}.s", total[i], "s")
    put("psd_core.self_s", module_self("psd_core"), "s")
    for short in ("rep_eval", "deformed_rep"):
        i = nid[f"meanfns.{short}"]
        put(f"meanfns.{short}.calls", calls[i], "count")
        put(f"meanfns.{short}.s", total[i], "s")
    put("meanfns.self_s", module_self("meanfns"), "s")
    for k in KIND_LABELS:
        put(f"multimeans.eval_mean_stack.s.{k}", total[nid[f"multimeans.eval_mean_stack.{k}"]], "s")
    for k in ("power", "deformed", "karcher"):
        put(f"multimeans.iterations.{k}", items[nid[f"multimeans.eval_mean_stack.{k}"]], "count")
    karcher = name == nid["multimeans.eval_mean_stack.karcher"]
    solves = int(karcher.sum())
    pairs = int(np.sum((name == nid["psd_core.spd_sqrt_pair"]) & _under(sp, karcher))) if solves else 0
    put("multimeans.sqrt_pair_per_solve.karcher", pairs / solves if solves else 0.0, "count")
    put("multimeans.self_s", module_self("multimeans"), "s")
    i = nid["inequalities.gen_cell_data"]
    put("inequalities.gen_cell_data.calls", calls[i], "count")
    put("inequalities.gen_cell_data.s", total[i], "s")
    for c in CELL_LABELS:
        put(f"inequalities.run_cell.s.{c}", total[nid[f"inequalities.run_cell.{c}"]], "s")
    put("inequalities.self_s", module_self("inequalities"), "s")
    put("cli.self_s", own[nid["cli.main"]], "s")
    main_rows = name == nid["cli.main"]
    cell_rows = np.isin(name, [nid[f"inequalities.run_cell.{c}"] for c in CELL_LABELS])
    main_ids = sp["id"][main_rows]
    in_verify = cell_rows & np.isin(sp["parent"], main_ids)
    main_wall = float(dur[main_rows & np.isin(sp["id"], sp["parent"][in_verify])].sum())
    busy = float(dur[in_verify].sum()) / (threads * main_wall) if main_wall > 0 else 0.0
    put("cli.verify.busy_frac", busy, "frac")
    put("trace.spans", len(name), "count")
    return out
