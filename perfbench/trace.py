"""Span recording for the traced benchmark run.

A span is (name, kind, start, end, CPU, self wall, self CPU, parent, pid,
units).
Self time is a span's duration minus the part its child spans cover; CPU
time is process CPU time, so on one core concurrently running workers do not
count each other's time slices.  Kinds:

- ``kernel``: compute inside one process (driver or Ray worker);
- ``stage``: a driver span around a Ray Dataset call, timed through the
  materialization of its result, so its duration includes the workers.

Spans are recorded from the benchmark's files only: `install()` replaces the
library's public callables with `Timed` wrappers in every module namespace
where callers look them up (``dggsray.ops.raster2dggs.project_inv`` as well
as ``dggsray.core.rhpx.project_inv``).  The same `install()` runs in the
driver and, through Ray's ``worker_process_setup_hook``, in every worker.

Recording is switched on and off by the presence of a flag file, so a run
can alternate traced and untraced passes without restarting workers.  The
driver keeps its spans in memory; a worker appends its buffered spans to
``spans-<pid>.jsonl`` in the trace directory each time its outermost span
ends, and the driver merges them when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import glob
import importlib
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
_FLAG = "tracing.on"
_FLAG_RECHECK_S = 0.05

# Modules whose namespaces are scanned for the patched callables.  Importing
# them up front matters in workers: a module imported later would bind the
# unwrapped originals.
MODULES = (
    "dggsray.core.rhpx", "dggsray.core.tiffio", "dggsray.core.raster",
    "dggsray.core.auid", "dggsray.io.imagetable", "dggsray.io.storage",
    "dggsray.ops.raster2dggs", "dggsray.ops.vector2dggs", "dggsray.ops.cellify",
    "dggsray.ops.joins", "dggsray.ops.warp", "dggsray.ops.cells2raster",
    "dggsray.pipelines.flagship",
)


def _size(i):
    return lambda a, kw, out: {"points": int(getattr(a[i], "size", len(a[i])))}


def _file_bytes(a, kw, out):
    return {"bytes": os.path.getsize(a[0])}


# (defining module, attribute, span name, kind, units(args, kwargs, result))
FUNCTIONS = (
    ("dggsray.core.rhpx", "project_fwd", "rhpx.project_fwd", "kernel", _size(0)),
    ("dggsray.core.rhpx", "project_inv", "rhpx.project_inv", "kernel", _size(0)),
    ("dggsray.core.rhpx", "cell_from_point", "rhpx.cell_from_point", "kernel",
     _size(1)),
    ("dggsray.core.rhpx", "cell_keys_from_point", "rhpx.cell_keys", "kernel",
     _size(1)),
    ("dggsray.core.rhpx", "cell_centroid", "rhpx.cell_centroid", "kernel",
     _size(0)),
    ("dggsray.core.tiffio", "read_geotiff", "tiffio.read", "kernel", None),
    ("dggsray.core.tiffio", "write_geotiff", "tiffio.write", "kernel",
     _file_bytes),
    ("dggsray.io.imagetable", "decode_image", "imagetable.decode", "kernel",
     lambda a, kw, out: {"bytes": int(a[1]) * int(a[2]) * 3}),
    ("dggsray.io.imagetable", "_pixels_batch", "imagetable.verify", "kernel",
     None),
    ("dggsray.ops.vector2dggs", "burn_polygons_to_cells", "vector2dggs.burn",
     "kernel", lambda a, kw, out: {"cells": out.num_rows}),
    ("dggsray.core.auid", "is_optimal_cuids", "auid.is_optimal", "kernel",
     None),
    ("dggsray.core.auid", "optimize_cuids", "auid.optimize", "kernel", None),
    ("dggsray.pipelines.flagship", "_vector_cells_cached",
     "flagship.index_build", "kernel", None),
    ("dggsray.ops.joins", "sized_groupby", "joins.sized_groupby", "stage",
     None),
)

# (module, class, method, span name, kind, units)
METHODS = (
    ("dggsray.pipelines.flagship", "ImageCellJoinAgg", "__init__",
     "flagship.actor_init", "kernel", None),
    ("dggsray.pipelines.flagship", "ImageCellJoinAgg", "__call__",
     "flagship.call", "kernel", None),
    ("dggsray.ops.raster2dggs", "ImageToCells", "_batch_cells",
     "raster2dggs.warp", "kernel",
     lambda a, kw, out: {"cells": int(out[1][1].size)}),
    ("dggsray.ops.raster2dggs", "ImageToCells", "_image_cells",
     "raster2dggs.slow_path", "kernel", None),
)


class Recorder:
    """Per-process span store.  One exists per traced process (see
    `install`); the wrappers reach it through the module-level `RECORDER`,
    because a worker's setup hook has no caller to hand it to."""

    def __init__(self, trace_dir: str, is_driver: bool):
        self.trace_dir = trace_dir
        self.is_driver = is_driver
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._flag_path = os.path.join(trace_dir, _FLAG)
        self._flag = False
        self._flag_checked = 0.0

    def active(self) -> bool:
        now = time.monotonic()
        if now - self._flag_checked > _FLAG_RECHECK_S:
            self._flag = os.path.exists(self._flag_path)
            self._flag_checked = now
        return self._flag

    def set_active(self, on: bool) -> None:
        """Driver only: switch recording in every process of the session."""
        if on:
            open(self._flag_path, "w").close()
        elif os.path.exists(self._flag_path):
            os.remove(self._flag_path)
        self._flag_checked = 0.0
        time.sleep(2 * _FLAG_RECHECK_S)   # let cached flags in workers expire

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "stage"):
        """Span around a block; the yielded dict may be filled with units."""
        if not self.active():
            yield {}
            return
        st = self._stack()
        frame = [name, 0.0, 0.0]          # name, child wall, child cpu
        parent = st[-1][0] if st else None
        units = {}
        st.append(frame)
        t0, c0 = time.time(), time.process_time()
        try:
            yield units
        finally:
            t1, c1 = time.time(), time.process_time()
            st.pop()
            self._record(st, name, kind, t0, t1, c0, c1, frame, parent,
                         units or None)

    def call(self, t: "Timed", args, kwargs):
        with self.span(t.name, t.kind) as units:
            out = t.orig(*args, **kwargs)
            if t.units is not None:
                units.update(t.units(args, kwargs, out))
            return out

    def _record(self, st, name, kind, t0, t1, c0, c1, frame, parent, units):
        wall, cpu = t1 - t0, c1 - c0
        if st:
            st[-1][1] += wall
            st[-1][2] += cpu
        with self._lock:
            self.spans.append((name, kind, t0, t1, cpu, wall - frame[1],
                               cpu - frame[2], parent, os.getpid(), units))
        if not st and not self.is_driver:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
        if spans:
            path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
            with open(path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))

    def collect(self) -> list[tuple]:
        """Driver: its own spans plus every worker's flushed spans."""
        out = list(self.spans)
        for path in glob.glob(os.path.join(self.trace_dir, "spans-*.jsonl")):
            with open(path) as f:
                out.extend(tuple(json.loads(line)) for line in f if line.strip())
        return out


RECORDER: Recorder | None = None


class Timed:
    """Callable stand-in for a library function.  Pickles by name, so a
    closure that Ray ships to a worker resolves it to that worker's own
    wrapper instead of carrying the driver's copy."""

    def __init__(self, orig, name, kind, units, module, attr):
        self.orig, self.name, self.kind, self.units = orig, name, kind, units
        self.module, self.attr = module, attr
        functools.update_wrapper(self, orig)

    def __call__(self, *args, **kwargs):
        rec = RECORDER
        if rec is None or not rec.active():
            return self.orig(*args, **kwargs)
        return rec.call(self, args, kwargs)

    def __reduce__(self):
        return (_resolve, (self.module, self.attr))


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(module), attr)


class CountingKernel:
    """map_batches kernel wrapper counting rows in and out of a combiner."""

    def __init__(self, fn, name: str):
        self.fn, self.name = fn, name

    def __call__(self, batch):
        if RECORDER is None:
            return self.fn(batch)
        with RECORDER.span(self.name, "kernel") as units:
            out = self.fn(batch)
            units.update(rows_in=batch.num_rows, rows_out=out.num_rows)
        return out


def _method_wrapper(orig, name, kind, units):
    t = Timed(orig, name, kind, units, None, None)

    @functools.wraps(orig)
    def method(*args, **kwargs):
        return t(*args, **kwargs)
    return method


def _counting_partial_again(orig):
    @functools.wraps(orig)
    def partial_again(keys, spec):
        return CountingKernel(orig(keys, spec), "joins.combine")
    return partial_again


def install(trace_dir: str, is_driver: bool) -> Recorder:
    """Create this process's recorder and wrap every traced callable in
    every namespace that holds it.  Idempotent."""
    global RECORDER
    if RECORDER is not None:
        return RECORDER
    mods = [importlib.import_module(m) for m in MODULES]
    for mod_name, attr, name, kind, units in FUNCTIONS:
        orig = getattr(importlib.import_module(mod_name), attr)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, Timed(orig, name, kind, units,
                                            mod.__name__, key))
    for mod_name, cls_name, meth, name, kind, units in METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        orig = cls.__dict__[meth]
        setattr(cls, meth, _method_wrapper(orig, name, kind, units))
    joins = importlib.import_module("dggsray.ops.joins")
    joins.partial_again = _counting_partial_again(joins.partial_again)
    RECORDER = Recorder(trace_dir, is_driver)
    return RECORDER


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker too."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir:
        install(trace_dir, is_driver=False)
