"""Outside-in span tracer for helmat.

The tracer changes no helmat source.  ``install`` replaces, for the duration
of a traced pass, every public helmat function at every namespace that binds
it (module globals, ``from .linalg import ...`` re-bindings, and dicts such
as ``suites.SUITES``), three class methods of :mod:`helmat.linalg`, and
``numpy.linalg.eigh``/``eigvalsh``/``svd``.  Each call records one span:
name, start, end, parent span and op id.  Spans stay in compact arrays in
memory and are written out once, after the pass.

Span names are ``<layer>.<qualname>``; the layer is the helmat module that
defines the function, or ``lapack`` for the numpy entry points.
"""

from __future__ import annotations

import sys
import types
from array import array
from time import perf_counter

import numpy as np

LAPACK_FUNCTIONS = ("eigh", "eigvalsh", "svd")
LINALG_METHODS = (
    ("HermitianMatrix", "__init__"),
    ("SpdMatrix", "__init__"),
    ("HermitianMatrix", "eig"),
)
DISTANCE_KINDS = ("d1", "d2", "d3", "d4")
SUITE_FUNCTIONS = {
    "counterexamples": "suites.counterexamples_suite",
    "trace-chain": "suites.trace_chain_suite",
    "divergence-axioms": "suites.divergence_axioms_suite",
    "bregman": "suites.bregman_suite",
    "legendre-cex": "suites.legendre_cex_suite",
    "d4-guess": "suites.d4_guess_suite",
}
COUNTED_LAYERS = ("calculus", "bregman", "legendre_cex", "sampling")


def _distance_kind(args, result) -> int:
    return DISTANCE_KINDS.index(args[0].value)


def _solve_iterations(args, result) -> int:
    return result[1].iterations


# Spans whose call carries a small integer worth keeping: the distance kind,
# or the iteration count a solve reported.
TAGGERS = {
    "distances.distance": _distance_kind,
    "distances.divergence": _distance_kind,
    "barycentre.solve": _solve_iterations,
}


class Tracer:
    """Records spans for calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = [-1]
        self._patches: list[tuple[object, object, object]] = []
        self._wrappers: dict[int, object] = {}

    def set_op(self, op_id: int) -> None:
        self._op[0] = op_id

    def __len__(self) -> int:
        return len(self.name)

    def _wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        tagger = TAGGERS.get(name)
        names, parents, ops, tags = self.name, self.parent, self.op, self.tag
        starts, ends, stack, op_box = self.start, self.end, self._stack, self._op

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op_box[0])
            tags.append(-1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if tagger is not None:
                tags[i] = tagger(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__wrapped__ = fn
        return traced

    def _wrapper_for(self, fn, name: str):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self._wrappers[id(fn)] = self._wrap(fn, name)
        return wrapper

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_item(self, mapping: dict, key, wrapper) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = wrapper

    def install(self) -> None:
        """Wrap helmat's public functions, methods and numpy's LAPACK calls."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "helmat" or n.startswith("helmat.")) and m is not None]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if _is_public_helmat_function(obj) and not attr.startswith("_"):
                    self._patch_attr(module, attr, self._wrapper_for(obj, _span_name(obj)))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if _is_public_helmat_function(value):
                            self._patch_item(obj, key,
                                             self._wrapper_for(value, _span_name(value)))
        linalg = sys.modules["helmat.linalg"]
        for cls_name, method in LINALG_METHODS:
            cls = getattr(linalg, cls_name)
            fn = vars(cls)[method]
            self._patch_attr(cls, method,
                             self._wrapper_for(fn, f"linalg.{cls_name}.{method}"))
        for fn_name in LAPACK_FUNCTIONS:
            fn = getattr(np.linalg, fn_name)
            self._patch_attr(np.linalg, fn_name, self._wrapper_for(fn, f"lapack.{fn_name}"))

    def uninstall(self) -> None:
        """Put every patched binding back, newest first."""
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._stack[:] = [-1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "tag": np.frombuffer(self.tag, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path) -> None:
        """Write every span to ``path`` as a compressed ``.npz`` archive."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _is_public_helmat_function(obj) -> bool:
    return (isinstance(obj, types.FunctionType)
            and (obj.__module__ or "").startswith("helmat")
            and not obj.__name__.startswith("_"))


def _span_name(fn) -> str:
    layer = fn.__module__.rpartition(".")[2]
    return f"{layer}.{fn.__qualname__}"


class SpanTable:
    """Derived views of a tracer's spans: durations, self times, ancestry."""

    def __init__(self, tracer: Tracer):
        cols = tracer.arrays()
        self.names = tracer.names
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.tag = cols["tag"]
        self.dur = cols["end"] - cols["start"]
        n = len(self.name)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                 minlength=n)
        self.self_time = self.dur - child_time
        self._name_ids = {nm: i for i, nm in enumerate(self.names)}

    def mask(self, *names: str) -> np.ndarray:
        ids = [self._name_ids[nm] for nm in names if nm in self._name_ids]
        return np.isin(self.name, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, nm in enumerate(self.names) if nm.partition(".")[0] == layer]
        return np.isin(self.name, ids)

    def outermost(self, roots: np.ndarray) -> np.ndarray:
        """For each span, the outermost ancestor-or-self flagged in ``roots``
        (-1 if none).  Parents always precede their children."""
        parent = self.parent.tolist()
        flagged = roots.tolist()
        anc = [-1] * len(parent)
        for i, p in enumerate(parent):
            up = anc[p] if p >= 0 else -1
            anc[i] = up if up >= 0 else (i if flagged[i] else -1)
        return np.asarray(anc, dtype=np.int64)


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as ``(value, unit)``."""
    t = SpanTable(tracer)
    out: dict[str, tuple[float, str]] = {}

    def calls(m):
        return float(np.count_nonzero(m)), "count"

    def self_s(m):
        return float(t.self_time[m].sum()), "s"

    lapack_eigh = t.mask("lapack.eigh", "lapack.eigvalsh")
    lapack_svd = t.mask("lapack.svd")
    out["lapack.eigh_calls"] = calls(lapack_eigh)
    out["lapack.eigh_s"] = float(t.dur[lapack_eigh].sum()), "s"
    out["lapack.svd_calls"] = calls(lapack_svd)
    out["lapack.svd_s"] = float(t.dur[lapack_svd].sum()), "s"

    for metric, span in (("eigh", "linalg.eigh"),
                         ("hermitian_init", "linalg.HermitianMatrix.__init__"),
                         ("spd_init", "linalg.SpdMatrix.__init__"),
                         ("apply_spectral", "linalg.apply_spectral")):
        m = t.mask(span)
        out[f"linalg.{metric}_calls"] = calls(m)
        out[f"linalg.{metric}_self_s"] = self_s(m)
    eig = t.mask("linalg.HermitianMatrix.eig")
    under_eigh = t.parent[t.mask("linalg.eigh")]
    computed = np.zeros(len(t.name), dtype=bool)
    computed[under_eigh[under_eigh >= 0]] = True
    hits = np.count_nonzero(eig & ~computed)
    out["linalg.eig_cache_hit_ratio"] = _ratio(hits, np.count_nonzero(eig)), "ratio"

    for layer in ("means", "distances"):
        m = t.layer_mask(layer)
        out[f"{layer}.calls"] = calls(m)
        out[f"{layer}.self_s"] = self_s(m)
    dist_root = t.outermost(t.mask("distances.distance", "distances.divergence"))
    lapack_in_dist = np.bincount(dist_root[lapack_eigh & (dist_root >= 0)],
                                 minlength=len(t.name))
    is_root = dist_root == np.arange(len(t.name))
    for k, kind in enumerate(DISTANCE_KINDS):
        roots = is_root & (t.tag == k)
        out[f"distances.eigh_per_call.{kind}"] = (
            _ratio(lapack_in_dist[roots].sum(), np.count_nonzero(roots)), "count")

    solve = t.mask("barycentre.solve")
    solve_root = t.outermost(solve)
    iterations = t.tag[solve].astype(np.int64)
    out["barycentre.solve_calls"] = calls(solve)
    out["barycentre.solve_self_s"] = self_s(solve)
    out["barycentre.iterations_per_solve"] = (
        _ratio(iterations.sum(), len(iterations)), "count")
    # A solve that stops after `iterations` steps evaluates the Picard sum
    # iterations + 1 times; that is the denominator of eigh per iteration.
    out["barycentre.eigh_per_iteration"] = (
        _ratio(np.count_nonzero(lapack_eigh & (solve_root >= 0)),
               (iterations + 1).sum()), "count")
    out["barycentre.mean_map_calls"] = calls(t.mask("barycentre.mean_map"))

    for layer in COUNTED_LAYERS:
        m = t.layer_mask(layer)
        out[f"{layer}.calls"] = calls(m)
        out[f"{layer}.self_s"] = self_s(m)

    for suite, span in SUITE_FUNCTIONS.items():
        out[f"suites.{suite}_s"] = float(t.dur[t.mask(span)].sum()), "s"

    reads = t.mask("matio.read_matrix_file", "matio.read_weights_file")
    out["matio.read_calls"] = calls(reads)
    out["matio.read_self_s"] = self_s(reads)
    out["cli.self_s"] = self_s(t.layer_mask("cli"))
    return out
