"""Per-layer tracing for the nonarch benchmark, applied from outside.

``Tracer`` wraps the public functions of every layer at every name they
are bound under (module globals and class attributes of all loaded
``nonarch`` modules), so a call through ``derivlab.sparse_rank_mod_p`` is
counted as well as one through ``linalg.sparse_rank_mod_p``.  Each call
becomes a span (name, start, end, parent, job id) kept in flat arrays and
written out when the run ends; ``summarize`` turns spans into calls, self
time and outermost-only total time per traced function.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute path) of every traced function
TARGETS = (
    ("linalg.sparse_rank_mod_p", "linalg", "sparse_rank_mod_p"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("derivlab.nonintegral_certificate", "derivlab",
     "nonintegral_certificate"),
    ("derivlab.p_independence_certificate", "derivlab",
     "p_independence_certificate"),
    ("derivlab.unboundedness_table", "derivlab", "unboundedness_table"),
    ("lognorm.ln_compare", "lognorm", "ln_compare"),
    ("lognorm.interval", "lognorm", "RadiusDecl.interval"),
    ("lognorm.norm_exceeds", "lognorm", "norm_exceeds"),
    ("series.mul", "series", "TateSeries.__mul__"),
    ("series.add", "series", "TateSeries.__add__"),
    ("series.gauss_norm", "series", "TateSeries.gauss_norm"),
    ("fields.mul", "fields", "Scalar.__mul__"),
    ("fields.add", "fields", "Scalar.__add__"),
    ("fields.pow_int", "fields", "Scalar.pow_int"),
    ("fields.valuation", "fields", "Scalar.valuation"),
    ("fields.scalar_pth_root", "fields", "scalar_pth_root"),
    ("coeffs.GF.mul", "coeffs", "GF.mul"),
    ("coeffs.GF.add", "coeffs", "GF.add"),
    ("coeffs.RatFun.add", "coeffs", "RatFun.__add__"),
    ("coeffs.mpoly_gcd", "coeffs", "mpoly_gcd"),
    ("squarezero.mul", "squarezero", "SquareZeroElem.__mul__"),
    ("squarezero.norm_ln", "squarezero", "SquareZeroElem.norm_ln"),
    ("rootlift.pth_root_near_one", "rootlift", "pth_root_near_one"),
    ("rootlift.verify_trace", "rootlift", "verify_trace"),
    ("rootlift.build_tower", "rootlift", "build_tower"),
    ("rootlift.verify_tower", "rootlift", "verify_tower"),
    ("frobenius.series_decompose", "frobenius", "series_decompose"),
    ("frobenius.verify_norm_bound", "frobenius", "verify_norm_bound"),
    ("frobenius.derivative_span_witness", "frobenius",
     "derivative_span_witness"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.write_artifact", "cli", "write_artifact"),
    ("cli.check_artifact", "cli", "check_artifact"),
)

# per-layer metrics that come from call arguments and results (hooks) or
# from the artifacts (jobs.artifact_counters), besides calls and self time
EXTRA_METRICS = (
    ("linalg.sparse_rank_mod_p.full_rank_ratio", "ratio"),
    ("lognorm.interval.max_depth", "count"),
    ("series.term_products", "count"),
    ("derivlab.system_entries", "count"),
    ("derivlab.span_products", "count"),
    ("rootlift.steps", "count"),
    ("cli.artifact_bytes", "B"),
)


def per_layer_metric_units():
    """[(metric name, unit)] in report order."""
    out = []
    for name, _, _ in TARGETS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return out + list(EXTRA_METRICS)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _hook_rank(counters, args, kwargs, result):
    counters["rank_calls"] += 1
    counters["rank_full"] += result == _arg(args, kwargs, 1, "ncols")


def _hook_interval(counters, args, kwargs, result):
    counters["interval_max_depth"] = max(
        counters["interval_max_depth"], _arg(args, kwargs, 1, "depth"))


def _hook_series_mul(counters, args, kwargs, result):
    counters["term_products"] += len(args[0].support) * len(
        getattr(args[1], "support", ()))


HOOKS = {
    "linalg.sparse_rank_mod_p": _hook_rank,
    "lognorm.interval": _hook_interval,
    "series.mul": _hook_series_mul,
}


class Tracer:
    """Context manager: wrap every target while active, record spans.

    ``job`` is the id stamped on spans; the caller sets it before each job.
    """

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.job = -1
        self.name_ids = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = {"rank_calls": 0, "rank_full": 0,
                         "interval_max_depth": 0, "term_products": 0}
        self._stack = []
        self._restore = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, nid, hook):
        name_ids, parents, jobs = self.name_ids, self.parents, self.jobs
        starts, ends, stack = self.starts, self.ends, self._stack
        counters = self.counters
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for _, module, _ in TARGETS:
            importlib.import_module(f"nonarch.{module}")
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "nonarch" or k.startswith("nonarch.")]
        # every namespace a function can be bound under: module globals
        # and the attribute dicts of the classes those modules define
        spaces = []
        for mod in mods:
            spaces.append(mod)
            spaces += [v for v in vars(mod).values()
                       if isinstance(v, type)
                       and v.__module__.startswith("nonarch")]
        spaces = list({id(s): s for s in spaces}.values())
        for nid, (name, module, path) in enumerate(TARGETS):
            owner = sys.modules[f"nonarch.{module}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self._wrap(original, nid, HOOKS.get(name))
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._restore.append((space, key, value))
                        setattr(space, key, wrapped)
        return self

    def __exit__(self, *exc):
        for space, key, value in reversed(self._restore):
            setattr(space, key, value)
        self._restore.clear()
        return False

    # -- results ---------------------------------------------------------

    def spans(self):
        return (self.name_ids, self.starts, self.ends, self.parents,
                self.jobs)

    def write(self, path):
        """Spans as five little-endian arrays: name id (i32), start (f64),
        end (f64), parent (i32), job (i32); the order matches
        ``summary.json``'s ``span_layout``."""
        with open(path, "wb") as fh:
            for arr in self.spans():
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)

    def metrics(self):
        """Per-layer metrics from spans and hooks (artifact counts aside)."""
        table = summarize(self.names, *self.spans()[:4])
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = table[name]["calls"]
            out[f"{name}.self_s"] = table[name]["self_s"]
        c = self.counters
        out["linalg.sparse_rank_mod_p.full_rank_ratio"] = \
            c["rank_full"] / c["rank_calls"] if c["rank_calls"] else 0.0
        out["lognorm.interval.max_depth"] = c["interval_max_depth"]
        out["series.term_products"] = c["term_products"]
        return out, table


def summarize(names, name_ids, starts, ends, parents):
    """{name: {calls, self_s, total_s}} from spans in entry order.

    Self time is a span's duration minus its direct children's durations.
    Total time counts a span only when no ancestor has the same name, so
    recursion is not counted twice.
    """
    n = len(starts)
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    total_s = [0.0] * len(names)
    # spans arrive in pre-order, so the open chain is a stack
    chain, open_count = [], [0] * len(names)
    for i in range(n):
        p, nid = parents[i], name_ids[i]
        while chain and chain[-1] != p:
            open_count[name_ids[chain.pop()]] -= 1
        if not open_count[nid]:
            total_s[nid] += dur[i]
        chain.append(i)
        open_count[nid] += 1
        calls[nid] += 1
        self_s[nid] += dur[i] - child[i]
    return {name: {"calls": calls[k], "self_s": self_s[k],
                   "total_s": total_s[k]}
            for k, name in enumerate(names)}
