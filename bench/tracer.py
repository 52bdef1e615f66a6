"""Per-layer tracing of jfkernel from outside the package.

:class:`Tracer` replaces the public functions of every ``jfkernel`` module,
and the arithmetic dunders and public methods of its classes, with timing
wrappers.  Nothing under ``src/`` changes: a function imported by name into
other modules (``from .construct import lambda2_inv``) is rebound in every
``jfkernel`` module that holds it, and dunders are patched on the class.
:meth:`Tracer.uninstall` puts every original back.

A layer is a module.  Each wrapped call becomes a span (name, start, end,
parent span, job id); its self time is its duration minus the time covered
by its child spans.  The tracer's own bookkeeping is charged to neither
side, so the self times of all layers, the benchmark's own job code
(``bench``) and the bookkeeping (``trace``) add up to the traced wall time.

Element arithmetic in ``cyclotomic`` runs millions of times per job list;
those calls are counted and timed like every other but kept out of the
span list, which would otherwise outgrow the process.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
import types
from fractions import Fraction

LAYERS = ("cyclotomic", "series", "jacobi", "sl2", "weil", "construct",
          "numeric", "verify", "cli")

# Dunder aliases: a reflected operator is the same operation as its base.
_DUNDER = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "__matmul__": "matmul", "__eq__": "eq", "__call__": "call",
}

# Class methods traced per module: arithmetic dunders plus the public methods
# that do real work (constant-time accessors such as is_zero are left out).
METHODS = {
    "cyclotomic": {"CycNumber": ["__add__", "__radd__", "__sub__", "__rsub__",
                                 "__neg__", "__mul__", "__rmul__", "__truediv__",
                                 "__rtruediv__", "__pow__", "__eq__", "inverse",
                                 "conj", "to_complex"]},
    "series": {"PuiseuxSeries": ["__add__", "__sub__", "__neg__", "__mul__",
                                 "__rmul__", "same_below", "first_difference",
                                 "truncate"]},
    "jacobi": {"JacobiSeries": ["__add__", "__sub__", "__neg__", "__mul__",
                                "__rmul__", "same_below"]},
    "sl2": {"GroupWord": ["to_matrix"]},
    "weil": {"UMatrix": ["__matmul__", "__pow__", "__eq__", "canonical", "scale",
                         "conj", "conj_transpose", "embed", "to_complex", "det2"]},
    "numeric": {"NumericForm": ["__call__"]},
}

# JSON encoding and decoding, wherever it lives, is the cli's I/O cost.
JSON_METHODS = {
    "series": {"PuiseuxSeries": ["to_json", "from_json"]},
    "jacobi": {"JacobiSeries": ["to_json", "from_json"]},
    "construct": {"VVPair": ["to_json", "from_json"]},
    "verify": {"CheckReport": ["to_json"]},
    "weil": {"UMatrix": ["to_json"]},
}
JSON_FUNCTIONS = {"cli": ["_dump", "_read_json"]}

# coerce24 is an isinstance test run once per stored term, so a span around
# it would measure the wrapper; theta_jacobi_num is theta_vector_num's loop
# over components, and its time is reported as theta_vector_num's.
SKIP = {("cyclotomic", "coerce24"), ("numeric", "theta_jacobi_num")}

# Names whose inclusive time (children included, recursion counted once) is
# reported as well: the per-operation costs of the public entry points.
TOTALS = ("series.eta_power", "construct.lambda2_inv", "construct.lambda_star_inv",
          "weil.word_product", "weil.resolve_scalar")

# Names whose calls are timed and counted but not kept as spans.
UNRECORDED_LAYERS = ("cyclotomic",)


def _is_traceable(obj, modname):
    kinds = (types.FunctionType, functools._lru_cache_wrapper)
    return isinstance(obj, kinds) and getattr(obj, "__module__", None) == modname


class Tracer:
    """Wraps jfkernel's layers; collects spans, self times and counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self._active: list[int] = []
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.bookkeeping_s = 0.0
        self.job = -1
        # Each frame is [time covered by children, own span index].
        self._stack: list[list] = [[0.0, -1]]
        self._restore: list = []
        self._last_exc = None

    # -- installation ---------------------------------------------------------

    def install(self):
        pkg = "jfkernel"
        modules = {name: importlib.import_module(f"{pkg}.{name}") for name in LAYERS}
        holders = [importlib.import_module(pkg)] + list(modules.values())
        wrapped: dict[int, object] = {}

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or (layer, attr) in SKIP:
                    continue
                if _is_traceable(obj, mod.__name__):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj, layer)
            for attr in JSON_FUNCTIONS.get(layer, ()):
                obj = getattr(mod, attr)
                wrapped[id(obj)] = self._wrap("cli.json", obj, "cli")

        # Rebind each wrapped function under every name that holds it.
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._restore.append((holder, attr, obj))
                    setattr(holder, attr, w)

        for table, json_io in ((METHODS, False), (JSON_METHODS, True)):
            for layer, classes in table.items():
                for cls_name, attrs in classes.items():
                    cls = getattr(modules[layer], cls_name)
                    by_fn: dict[int, object] = {}
                    for attr in attrs:
                        raw = cls.__dict__[attr]
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        name = "cli.json" if json_io else f"{layer}.{_DUNDER.get(attr, attr)}"
                        w = by_fn.get(id(fn))
                        if w is None:
                            w = by_fn[id(fn)] = self._wrap(name, fn, layer)
                        self._restore.append((cls, attr, raw))
                        setattr(cls, attr, staticmethod(w) if isinstance(raw, staticmethod) else w)
        return self

    def uninstall(self):
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore.clear()

    # -- jobs -------------------------------------------------------------------

    def begin_job(self, job: int):
        """Open the root span of one job; its self time is the bench's own."""
        self.job = job
        nid = self._id("bench.job")
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append([0.0, idx, nid, time.perf_counter()])

    def end_job(self):
        t1 = time.perf_counter()
        covered, idx, nid, t0 = self._stack.pop()
        self.calls[nid] += 1
        self.self_s[nid] += (t1 - t0) - covered
        self.spans[idx] = (nid, t0, t1, -1, self.job)
        self.job = -1

    # -- wrapping -----------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self._active.append(0)
        return nid

    def _wrap(self, name: str, fn, layer: str):
        nid = self._id(name)
        record = layer not in UNRECORDED_LAYERS
        hook = _HOOKS.get(name)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        total_s, active = self.total_s, self._active
        now = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            active[nid] += 1
            parent = stack[-1]
            if record:
                idx = len(spans)
                spans.append(None)
            else:
                idx = parent[1]
            frame = [0.0, idx]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = now()
                stack.pop()
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - frame[0]
                active[nid] -= 1
                if not active[nid]:
                    total_s[nid] += t1 - t0
                if record:
                    spans[idx] = (nid, t0, t1, parent[1], tracer.job)
                if exc is not None and exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    key = f"raised.{type(exc).__name__}"
                    tracer.counts[key] = tracer.counts.get(key, 0) + 1
                elif hook is not None and exc is None and result is not NotImplemented:
                    hook(tracer.counts, args, result)
                t2 = now()
                tracer.bookkeeping_s += t2 - t1
                parent[0] += t2 - t0

        return wrapper

    # -- results --------------------------------------------------------------------

    def layer_metrics(self, traced_wall_s: float):
        """The per-layer metrics as {name: (value, unit)}."""
        import jfkernel.jacobi as jacobi

        by_name = {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}
        totals = dict(zip(self.names, self.total_s))
        c = self.counts

        def calls(name):
            return by_name.get(name, (0, 0.0))[0]

        def self_time(*names):
            return sum(by_name.get(n, (0, 0.0))[1] for n in names)

        def share(num, den):
            return num / den if den else 0.0

        info = jacobi._theta_component_terms.cache_info()
        mul = calls("cyclotomic.mul")
        out = {
            "cyclotomic.mul.calls": (mul, "count"),
            "cyclotomic.mul.self_s": (self_time("cyclotomic.mul"), "s"),
            "cyclotomic.mul.rational_share": (share(c.get("cyclotomic.mul.rational", 0), mul), "ratio"),
            "cyclotomic.mul.n24.calls": (c.get("cyclotomic.mul.n24", 0), "count"),
            "cyclotomic.mul.n120.calls": (c.get("cyclotomic.mul.n120", 0), "count"),
            "cyclotomic.add.calls": (calls("cyclotomic.add"), "count"),
            "cyclotomic.add.self_s": (self_time("cyclotomic.add"), "s"),
            "cyclotomic.inverse.calls": (calls("cyclotomic.inverse"), "count"),
            "series.mul.calls": (calls("series.mul"), "count"),
            "series.mul.self_s": (self_time("series.mul"), "s"),
            "series.mul.terms_in": (c.get("series.mul.terms_in", 0), "count"),
            "series.mul.terms_out": (c.get("series.mul.terms_out", 0), "count"),
            "series.mul.dense_share": (share(c.get("series.mul.dense", 0),
                                             c.get("series.mul.products", 0)), "ratio"),
            "series.add.calls": (calls("series.add"), "count"),
            "series.div_exact.calls": (calls("series.div_exact"), "count"),
            "series.div_exact.self_s": (self_time("series.div_exact"), "s"),
            "series.eta_power.self_s": (self_time("series.eta_power"), "s"),
            "jacobi.mul.calls": (calls("jacobi.mul"), "count"),
            "jacobi.mul.self_s": (self_time("jacobi.mul"), "s"),
            "jacobi.mul.terms_out": (c.get("jacobi.mul.terms_out", 0), "count"),
            "jacobi.theta_j.self_s": (self_time("jacobi.theta_j"), "s"),
            "jacobi.theta_decompose.self_s": (self_time("jacobi.theta_decompose"), "s"),
            "jacobi.d2_hat.self_s": (self_time("jacobi.d2_hat"), "s"),
            "jacobi.restrict_z0.self_s": (self_time("jacobi.restrict_z0"), "s"),
            "jacobi.theta_component.hit_ratio": (share(info.hits, info.hits + info.misses), "ratio"),
            "construct.lambda2_inv.self_s": (self_time("construct.lambda2_inv"), "s"),
            "construct.lambda2_fwd.self_s": (self_time("construct.lambda2_fwd"), "s"),
            "construct.lambda_star_inv.self_s": (self_time("construct.lambda_star_inv"), "s"),
            "construct.lambda_star_fwd.self_s": (self_time("construct.lambda_star_fwd"), "s"),
            "construct.xi.self_s": (self_time("construct.xi_hat", "construct.xi_m_star_hat",
                                              "construct.xi_pair_hat"), "s"),
            "sl2.sl2_word.self_s": (self_time("sl2.sl2_word"), "s"),
            "sl2.word_letters": (c.get("sl2.word_letters", 0), "count"),
            "weil.word_product.calls": (calls("weil.word_product"), "count"),
            "weil.word_product.self_s": (self_time("weil.word_product"), "s"),
            "weil.matmul.calls": (calls("weil.matmul"), "count"),
            "weil.matmul.self_s": (self_time("weil.matmul"), "s"),
            "weil.resolve_scalar.calls": (calls("weil.resolve_scalar"), "count"),
            "weil.resolve_scalar.self_s": (self_time("weil.resolve_scalar"), "s"),
            "weil.snap_failed": (c.get("raised.SnapFailed", 0), "count"),
            "numeric.theta_vector_num.calls": (calls("numeric.theta_vector_num"), "count"),
            "numeric.theta_vector_num.self_s": (self_time("numeric.theta_vector_num"), "s"),
            "numeric.eval_series.self_s": (self_time("numeric.eval_series"), "s"),
            "verify.checks": (c.get("verify.checks", 0), "count"),
            "verify.checks_failed": (c.get("verify.checks_failed", 0), "count"),
            "cli.run.self_s": (self_time("cli.run"), "s"),
            "cli.json.self_s": (self_time("cli.json"), "s"),
        }
        for name in TOTALS:
            out[f"{name}.total_s"] = (totals.get(name, 0.0), "s")
        # A layer's self time is that of all its names; bench.job is the
        # benchmark's own job code.
        layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
        for i, name in enumerate(self.names):
            layer_self[name.split(".", 1)[0]] += self.self_s[i]
        for layer, s in layer_self.items():
            out[f"{layer}.self_s"] = (s, "s")
        out["trace.bookkeeping_s"] = (self.bookkeeping_s, "s")
        out["trace.wall_s"] = (traced_wall_s, "s")
        accounted = sum(layer_self.values()) + self.bookkeeping_s
        out["trace.accounted_share"] = (share(accounted, traced_wall_s), "ratio")
        return out

    def write(self, path):
        """Write the counters, then one JSON line per span, to ``path``."""
        with open(path, "w") as fh:
            head = {"names": self.names, "calls": self.calls, "self_s": self.self_s,
                    "counts": self.counts, "span_fields": ["name", "start", "end", "parent", "job"]}
            fh.write(json.dumps(head) + "\n")
            for nid, t0, t1, parent, job in self.spans:
                fh.write(f'[{nid},{t0:.9f},{t1:.9f},{parent},{job}]\n')


# ---------------------------------------------------------------------------
# Counters taken at the layer boundary, from a call's arguments and result.


def _count_cyc_mul(counts, args, result):
    a, b = args
    if isinstance(b, (int, Fraction)):
        rational, n = True, a.field.n
    else:
        rational = not any(a.num[1:]) or not any(b.num[1:])
        n = result.field.n
    if rational:
        counts["cyclotomic.mul.rational"] = counts.get("cyclotomic.mul.rational", 0) + 1
    key = f"cyclotomic.mul.n{n}"
    counts[key] = counts.get(key, 0) + 1


def _is_dense(series) -> bool:
    """At least half the slots of the series' own exponent grid are filled.

    The grid step is the gcd of the gaps between stored exponents, so eta
    powers (integer gaps) count as dense and theta components (quadratic
    gaps) as sparse.
    """
    terms = series.terms
    if len(terms) < 2:
        return False
    v = min(terms)
    gaps = [e - v for e in terms if e != v]
    den = math.lcm(*(g.denominator for g in gaps))
    step = Fraction(math.gcd(*(g.numerator * (den // g.denominator) for g in gaps)), den)
    slots = (series.valid_below - v) / step
    return len(terms) >= slots / 2


def _count_series_mul(counts, args, result):
    a, b = args
    if type(b) is not type(a):
        return
    counts["series.mul.products"] = counts.get("series.mul.products", 0) + 1
    counts["series.mul.terms_in"] = counts.get("series.mul.terms_in", 0) + len(a.terms) + len(b.terms)
    counts["series.mul.terms_out"] = counts.get("series.mul.terms_out", 0) + len(result.terms)
    if _is_dense(a) and _is_dense(b):
        counts["series.mul.dense"] = counts.get("series.mul.dense", 0) + 1


def _count_jacobi_mul(counts, args, result):
    if hasattr(args[1], "terms"):
        counts["jacobi.mul.terms_out"] = counts.get("jacobi.mul.terms_out", 0) + len(result.terms)


def _count_letters(counts, args, result):
    counts["sl2.word_letters"] = counts.get("sl2.word_letters", 0) + len(result)


def _count_checks(counts, args, result):
    counts["verify.checks"] = counts.get("verify.checks", 0) + len(result)
    failed = sum(1 for r in result if not r.passed)
    counts["verify.checks_failed"] = counts.get("verify.checks_failed", 0) + failed


_HOOKS = {
    "cyclotomic.mul": _count_cyc_mul,
    "series.mul": _count_series_mul,
    "jacobi.mul": _count_jacobi_mul,
    "sl2.sl2_word": _count_letters,
    "verify.suite_identities": _count_checks,
    "verify.suite_weil": _count_checks,
    "verify.suite_numeric": _count_checks,
}
