"""Span tracing of one mblchain process, from outside the package.

The wrappers are installed before ``mblchain`` is imported: numerical
kernels are replaced on their numpy/scipy modules, and an import hook
wraps each mblchain module's public functions the moment the module has
executed, so ``from .module import name`` bindings made by later modules
see the wrapper too.  A target that no longer exists is recorded as
absent, never raised.

Every wrapped call records a span (name, start, end, parent, realization
id).  A span's self time is its duration minus the part of that interval
covered by its children.  Untraced runs install only the realization
wrapper, which every end-to-end timing needs.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import os
import sys
import time
from collections import defaultdict

# package functions, by module; "Class.__init__" spans are named after the class
PACKAGE_TARGETS = {
    "mblchain.disorder": ["sample_field"],
    "mblchain.xy": ["diagonalize", "eigenstate_block_entropy",
                    "sample_eigenstate_entropy_sup"],
    "mblchain.xxz": ["enumerate_basis", "build_h_sector", "droplet_geometry",
                     "s_indicator", "set_distance", "ct_check",
                     "ChainSpectrum.__init__", "ChainSpectrum.window_states",
                     "QuasiLocalityProbe.errors_profile"],
    "mblchain.oracle": ["build_full", "embed_site", "diagonalize_full"],
    "mblchain.experiments": ["_commutator_opnorm", "run_ensemble",
                             "fit_exponential_decay", "fit_log_slope"],
    "mblchain.cli": ["main", "write_outputs"],
}

# numpy/scipy kernels: span name -> (module, attribute).  The solvers a
# later change is likely to switch to are wrapped too, so a saving that
# moves work from one kernel to another shows.
KERNEL_TARGETS = {
    "linalg.eigh": ("numpy.linalg", "eigh"),
    "linalg.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "linalg.svd": ("numpy.linalg", "svd"),
    "linalg.eigh_tridiagonal": ("scipy.linalg", "eigh_tridiagonal"),
    "linalg.scipy_eigh": ("scipy.linalg", "eigh"),
    "linalg.expm": ("scipy.linalg", "expm"),
    "linalg.splu": ("scipy.sparse.linalg", "splu"),
    "linalg.spsolve": ("scipy.sparse.linalg", "spsolve"),
    "linalg.cg": ("scipy.sparse.linalg", "cg"),
    "linalg.minres": ("scipy.sparse.linalg", "minres"),
    "linalg.eigsh": ("scipy.sparse.linalg", "eigsh"),
    "linalg.lobpcg": ("scipy.sparse.linalg", "lobpcg"),
    "linalg.expm_multiply": ("scipy.sparse.linalg", "expm_multiply"),
}

REALIZATION = "experiments.realization"
# the CLI's per-realization calls: every experiments.METRICS entry, and
# ct_sample, which xxz-ct calls directly
REALIZATION_MODULE = "mblchain.experiments"


def span_name(module: str, attr: str) -> str:
    short = module.rsplit(".", 1)[-1]
    return f"{short}.{attr.removesuffix('.__init__')}"


def all_span_names() -> list[str]:
    names = [span_name(m, a) for m, attrs in PACKAGE_TARGETS.items()
             for a in attrs]
    return names + list(KERNEL_TARGETS) + [REALIZATION]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval.

    ``spans`` is a sequence of (start, end, parent) with parent an index
    into the same sequence or None.
    """
    children = defaultdict(list)
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][0]):
            lo = max(spans[c][0], reach)
            hi = min(spans[c][1], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder for one process.  With ``traced`` False it records
    only the realization timings."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.names: list[str] = []
        self.rids: list[int | None] = []
        self.ops: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.realizations: list[dict] = []
        self.cpu_first: float | None = None
        self.cpu_last: float | None = None
        self._stack: list[int] = []
        self._rid: int | None = None
        self._in_realization = False

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else None)
        self.rids.append(self._rid)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, post=None, ops=None):
        """Wrapper recording one span per call; ``post(result, args)``
        returns counters to add, ``ops(args)`` the computed n^3."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ops is not None:
                self.ops[name] += ops(args)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post is not None:
                for key, value in post(result, args).items():
                    self.counters[key] += value
            return result
        return traced

    def wrap_realization(self, fn, substitute_offset: int):
        """Time one per-realization call (index is its second argument).
        A realization nested in another one is not counted twice."""
        @functools.wraps(fn)
        def realization(config, attempt, *args, **kwargs):
            if self._in_realization:
                return fn(config, attempt, *args, **kwargs)
            self._in_realization = True
            self._rid = attempt
            record = {"attempt": int(attempt),
                      "index": int(attempt) % substitute_offset,
                      "error": None}
            idx = self._open(REALIZATION) if self.traced else None
            cpu = time.process_time()
            if self.cpu_first is None:
                self.cpu_first = cpu
            record["start"] = time.monotonic()
            try:
                return fn(config, attempt, *args, **kwargs)
            except Exception as exc:
                record["error"] = type(exc).__name__
                raise
            finally:
                record["end"] = time.monotonic()
                self.cpu_last = time.process_time()
                if idx is not None:
                    self._close(idx)
                self.realizations.append(record)
                self._rid = None
                self._in_realization = False
        return realization

    # -- installation ------------------------------------------------------

    def patch_attr(self, owner, attr: str, name: str, **hooks) -> bool:
        target = owner
        *path, last = attr.split(".")
        for part in path:
            target = getattr(target, part, None)
        fn = getattr(target, last, None) if target is not None else None
        if fn is None or not callable(fn):
            self.absent.append(name)
            return False
        setattr(target, last, self.wrap(name, fn, **hooks))
        return True

    def patch_package_module(self, module):
        if module.__name__ == REALIZATION_MODULE:
            offset = getattr(module, "SUBSTITUTE_OFFSET", 1 << 62)
            metrics = getattr(module, "METRICS", {})
            for kind, fn in list(metrics.items()):
                metrics[kind] = self.wrap_realization(fn, offset)
            if hasattr(module, "ct_sample"):
                module.ct_sample = self.wrap_realization(module.ct_sample, offset)
        if not self.traced:
            return
        for attr in PACKAGE_TARGETS.get(module.__name__, ()):
            name = span_name(module.__name__, attr)
            self.patch_attr(module, attr, name, **_HOOKS.get(name, {}))

    def install(self):
        """Wrap the kernels and hook the package imports.  Must run before
        anything imports mblchain."""
        if any(m == "mblchain" or m.startswith("mblchain.") for m in sys.modules):
            raise RuntimeError("mblchain was imported before the tracer")
        if self.traced:
            for name, (module, attr) in KERNEL_TARGETS.items():
                try:
                    mod = importlib.import_module(module)
                except ImportError:
                    self.absent.append(name)
                    continue
                self.patch_attr(mod, attr, name, ops=_kernel_ops)
        wanted = set(PACKAGE_TARGETS) | {REALIZATION_MODULE}
        sys.meta_path.insert(0, _PatchingFinder(wanted, self.patch_package_module))

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total_s, self_s (and ops for kernels);
        per kernel: self time by calling span; realization coverage."""
        spans = list(zip(self.starts, self.ends, self.parents))
        selfs = self_times(spans)
        by_name = {}
        by_caller = defaultdict(lambda: defaultdict(float))
        real_total = real_self = inside_self = 0.0
        for i, name in enumerate(self.names):
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += self.ends[i] - self.starts[i]
            entry["self_s"] += selfs[i]
            if name.startswith("linalg."):
                parent = self.parents[i]
                caller = self.names[parent] if parent is not None else "(top)"
                by_caller[name][caller] += selfs[i]
            if name == REALIZATION:
                real_total += self.ends[i] - self.starts[i]
                real_self += selfs[i]
            if self.rids[i] is not None:
                inside_self += selfs[i]
        for name, count in self.ops.items():
            by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})["ops"] = count
        return {
            "spans": by_name,
            "kernel_callers": {k: dict(v) for k, v in by_caller.items()},
            "realization_total_s": real_total,
            "realization_self_s": real_self,
            "realization_inner_self_sum_s": inside_self,
            "counters": dict(self.counters),
            "absent": sorted(set(self.absent)),
        }


def _kernel_ops(args) -> int:
    """Computed n^3 of the operator a kernel is handed, n its leading
    dimension (not a flop count; for sparse kernels it bounds dense work)."""
    shape = getattr(args[0], "shape", None) if args else None
    return int(shape[0]) ** 3 if shape else 0


def _write_bytes(result, args):
    total = 0
    for path in result or ():
        try:
            total += os.path.getsize(path)
        except OSError:
            pass
    return {"cli.write_outputs.bytes": total}


def _window_counts(result, args):
    chain = args[0]
    computed = sum(len(s.energies) for s in getattr(chain, "sectors", {}).values())
    used = sum(1 for state in result if state[0] != 0)
    return {"xxz.window_states.used": used,
            "xxz.window_states.computed": computed}


_HOOKS = {
    "cli.write_outputs": {"post": _write_bytes},
    "xxz.ChainSpectrum.window_states": {"post": _window_counts},
}


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, on_loaded):
        self._loader = loader
        self._on_loaded = on_loaded

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module):
        self._loader.exec_module(module)
        self._on_loaded(module)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Hands the wanted modules to ``on_loaded`` right after they execute,
    before any importer can bind names from them."""

    def __init__(self, wanted, on_loaded):
        self._wanted = wanted
        self._on_loaded = on_loaded

    def find_spec(self, fullname, path, target=None):
        if fullname not in self._wanted:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None and spec.loader is not None:
                spec.loader = _PatchingLoader(spec.loader, self._on_loaded)
                return spec
        return None
