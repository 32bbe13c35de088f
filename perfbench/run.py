#!/usr/bin/env python3
"""dggsray benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  After set-up (imports, ``ray.init``,
input generation or cache hit, and one labelled warm-up run), the driver runs
the workload back to back until ``--seconds`` have passed, each run starting
after the previous one completes.  Every run is recorded: a run fails if it
raises, fails its output check or misses its deadline.  Outputs are checked
outside the timed section.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` installs span wrappers in the driver and in every Ray worker,
interleaves untraced and traced runs, and reports the per-layer metrics of
the traced runs plus the tracing overhead (traced minus untraced wall_s).

Human-readable lines (each metric by name with its unit, quartiles and run
count, and the machine context) precede the result; the last line of
standard output is the JSON result.  Everything the library and Ray print
goes to standard error.  Files are written only under ``.pb/`` in the
checkout: ``run-<pid>/`` (work and trace directories) and ``ray/`` (Ray's
session) are removed at exit; ``<workload>-trace.jsonl`` (the spans of the
last traced run) and ``cache/`` (the seed-independent flagship image table)
are kept.  Ray's socket paths must fit in 107 bytes: from a checkout whose
path is longer than 35 bytes Ray falls back to its default temp directory.
"""
import time

_T0 = time.time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
from importlib import metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".pb")
NUM_CPUS = 4                  # Ray logical CPUs, fixed for every workload
OBJECT_STORE_BYTES = 768 << 20
RUN_DEADLINE_S = 60.0
EXIT_BY_S = 140.0             # last run deadline; cleanup fits before 180 s
RSS_PERIOD_S = 0.05
# Ray kills idle workers beyond num_cpus after 1 s by default; back-to-back
# runs then alternate between a warm and a cold worker pool (flagship_join:
# 9 vs 6 workers, ~2.8 vs ~3.9 s) and the median over a few runs flips
# between the two.
# Keeping idle workers gives every run the same warm pool.
IDLE_WORKER_KEEP_MS = 3_600_000
AF_UNIX_MAX = 107
RAY_SOCKET_SUFFIX = 64        # session_<date>_<pid>/sockets/plasma_store


def _proc_table():
    """{pid: (ppid, starttime)} of every live (not zombie) process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            out[int(d)] = (int(fields[1]), int(fields[19]))
    return out


def _descendants(root: int, table) -> set:
    kids = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = set(), [root]
    while todo:
        for c in kids.get(todo.pop(), ()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


class RssSampler(threading.Thread):
    """Samples the summed RSS of the driver and its Ray worker processes
    (``ray::`` command lines).  Also remembers every descendant process seen,
    so the benchmark can wait for all of them to end."""

    def __init__(self):
        super().__init__(daemon=True)
        self.pid = os.getpid()
        self.page = os.sysconf("SC_PAGE_SIZE")
        self.seen = {}                 # pid -> starttime
        self.workers = set()
        self.peak = 0
        self._halt = threading.Event()
        self._lock = threading.Lock()

    def _rescan(self):
        table = _proc_table()
        workers = set()
        for pid in _descendants(self.pid, table):
            self.seen.setdefault(pid, table[pid][1])
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if f.read(5) == b"ray::":
                        workers.add(pid)
            except OSError:
                pass
        self.workers = workers

    def _rss(self, pid) -> int:
        try:
            with open(f"/proc/{pid}/statm") as f:
                return int(f.read().split()[1]) * self.page
        except OSError:
            return 0

    def run(self):
        n = 0
        while not self._halt.is_set():
            if n % 10 == 0:
                self._rescan()
            total = self._rss(self.pid) + sum(self._rss(p) for p in self.workers)
            with self._lock:
                self.peak = max(self.peak, total)
            n += 1
            self._halt.wait(RSS_PERIOD_S)

    def take_peak_mb(self) -> float:
        """Peak since the previous call, in MB."""
        with self._lock:
            peak, self.peak = self.peak, 0
        return peak / 1e6

    def stop(self):
        self._halt.set()
        self.join()
        self._rescan()


class Bench:
    """What a workload sees: seed, directories, and the span helper."""

    def __init__(self, seed: int, work_dir: str, cache_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.cache_dir = cache_dir
        self.recorder = None

    def span(self, name: str, kind: str = "stage"):
        if self.recorder is None:
            return contextlib.nullcontext({})
        return self.recorder.span(name, kind)


def _quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def _nproc() -> str:
    """What `nproc` prints (it honours OMP_NUM_THREADS)."""
    try:
        return subprocess.run(["nproc"], capture_output=True, text=True,
                              timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def _source_id() -> str:
    """Git commit when the checkout is a repository, else a digest of the
    package sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "dggsray")
    for d, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def _object_store_mb() -> int:
    import ray
    return round(ray.cluster_resources().get("object_store_memory", 0) / 1e6)


def _ray_init(trace_dir: str | None):
    """Start a local Ray with the fixed CPU count.  Workers find the package
    through the runtime environment's PYTHONPATH, whatever directory the
    benchmark was started from."""
    import ray

    temp = os.path.join(OUT, "ray")
    if len(temp) + RAY_SOCKET_SUFFIX > AF_UNIX_MAX:
        print(f"note: {temp} is too long for Ray's socket paths; using "
              f"Ray's default temp directory", file=sys.stderr)
        temp = None
    else:
        os.makedirs(temp, exist_ok=True)
    env = {"PYTHONPATH": ROOT}
    runtime_env = {"env_vars": env}
    if trace_dir:
        from perfbench.trace import TRACE_DIR_ENV
        env[TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = \
            "perfbench.trace.worker_setup"
    ray.init(num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp,
             runtime_env=runtime_env,
             _system_config={"idle_worker_killing_time_threshold_ms":
                             IDLE_WORKER_KEEP_MS})
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def _run_with_deadline(fn, timeout: float):
    """(wall seconds, output, error) of fn() run in a helper thread; error is
    "deadline" when it did not finish in time (the thread is abandoned)."""
    box = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["out"] = fn()
        except Exception as e:          # noqa: BLE001 — a failed run is data
            box["err"] = f"{type(e).__name__}: {e}"
        box["wall"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return timeout, None, "deadline"
    return box["wall"], box.get("out"), box.get("err")


def _wait_gone(seen: dict, timeout: float = 20.0):
    """Wait for every process in {pid: starttime} to end; kill stragglers."""
    def alive():
        table = _proc_table()
        return [p for p, st in seen.items()
                if p in table and table[p][1] == st and p != os.getpid()]
    end = time.time() + timeout
    while alive() and time.time() < end:
        time.sleep(0.2)
    for p in alive():
        print(f"killing leftover process {p}", file=sys.stderr)
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    end = time.time() + 5
    while alive() and time.time() < end:
        time.sleep(0.1)


def _cleanup(sampler: RssSampler, bench_dir: str):
    """Stop Ray and wait for every process this run started to end."""
    if sampler.is_alive():
        sampler.stop()      # last scan, while Ray's workers are still ours
    if "ray" in sys.modules:
        import ray
        if ray.is_initialized():
            ray.shutdown()
    _wait_gone(sampler.seen)
    shutil.rmtree(bench_dir, ignore_errors=True)
    shutil.rmtree(os.path.join(OUT, "ray"), ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "dggsray", "__init__.py")):
        print(f"error: no dggsray package under {ROOT}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import layers
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    # the result stream is the real stdout; everything else goes to stderr
    result_fd = os.dup(1)
    os.dup2(2, 1)
    result = os.fdopen(result_fd, "w")

    def emit(line: str):
        result.write(line + "\n")
        result.flush()

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    bench_dir = os.path.join(OUT, f"run-{os.getpid()}")
    work_dir = os.path.join(bench_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    bench = Bench(args.seed, work_dir, os.path.join(OUT, "cache"))
    wl = WORKLOADS[args.workload]()
    tracing = bool(args.trace)
    trace_dir = None
    sampler = RssSampler()
    sampler.start()
    try:
        if tracing:
            from perfbench import trace
            trace_dir = os.path.join(bench_dir, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            bench.recorder = trace.install(trace_dir, is_driver=True)
            bench.recorder.set_active(True)
        import dggsray  # noqa: F401
        if wl.uses_ray:
            with bench.span("ray_data.init"):
                _ray_init(trace_dir)
        wl.setup(bench)
        gc.collect()
        warm_s, warm, err = _run_with_deadline(lambda: wl.run(bench),
                                               RUN_DEADLINE_S)
        if err is not None:
            print(f"error: warm-up run failed: {err}", file=sys.stderr)
            # a hung warm-up may never return: skip interpreter teardown
            _cleanup(sampler, bench_dir)
            os._exit(1)
        wl.check(warm)
        del warm
        gc.collect()
        setup_s = time.time() - _T0
        setup_end = time.time()
        sampler.take_peak_mb()

        runs, wrong = [], 0
        hung = False
        window_end = time.time() + args.seconds
        while True:
            # untraced, traced, traced, untraced, ...: back-to-back runs of
            # one session alternate slightly in speed, so each mode gets both
            # positions
            traced = tracing and len(runs) % 4 in (1, 2)
            if tracing:
                bench.recorder.set_active(traced)
            deadline = min(RUN_DEADLINE_S, EXIT_BY_S - (time.time() - _T0))
            start = time.time()
            wall, out, err = _run_with_deadline(lambda: wl.run(bench),
                                                max(deadline, 1.0))
            end = time.time()
            peak = sampler.take_peak_mb()
            counters = {}
            if err is None:
                try:
                    counters = wl.check(out)
                except AssertionError as e:
                    err = f"check failed: {e}"
                    wrong += 1
            elif err != "deadline":
                wrong += 1
            # A finished Dataset sits in reference cycles that keep its actor
            # pool alive (holding CPUs) until the cyclic collector runs; left
            # to chance, it stalls the next run by 14-24 s.  Collect here,
            # outside the timed section, so every run starts from the same
            # state.
            out = None
            gc.collect()
            runs.append({"start": start, "end": end, "wall_s": wall,
                         "peak_rss_mb": peak, "traced": traced,
                         "counters": counters, "error": err})
            if err == "deadline":
                hung = True
                break
            if time.time() >= window_end and (not tracing or len(runs) >= 3):
                break
        if tracing:
            bench.recorder.set_active(False)

        ok = [r for r in runs if r["error"] is None]
        attempted, failed = len(runs), len(runs) - len(ok)
        context = {
            "workload": wl.name, "seed": args.seed,
            "seed_effect": wl.seed_effect, "items": f"{wl.items} {wl.item}",
            "loop": "closed, 1 client", "nproc": _nproc(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "ray_num_cpus": NUM_CPUS if wl.uses_ray else "none (no Ray)",
            "object_store_mb": _object_store_mb() if wl.uses_ray
            else "none (no Ray)",
            "ray_idle_workers": f"kept for {IDLE_WORKER_KEEP_MS} ms"
            if wl.uses_ray else "none (no Ray)",
            **{m: metadata.version(m) for m in ("ray", "pyarrow", "numpy")},
            "python": sys.version.split()[0],
            "source": _source_id(), "warmup_s": round(warm_s, 4),
            "run_deadline_s": RUN_DEADLINE_S,
        }
        for k, v in context.items():
            emit(f"context {k}: {v}")
        for r in runs:
            label = "traced" if r["traced"] else "run"
            emit(f"{label} wall_s={r['wall_s']:.4f} "
                 f"peak_rss_mb={r['peak_rss_mb']:.1f}"
                 + (f" FAILED {r['error']}" if r["error"] else ""))
        emit(f"metric error_rate: {failed / attempted:.4f} "
             f"({failed} failed of {attempted} attempted)")

        metrics = {}
        if not tracing:
            if ok:
                series = {
                    "wall_s": ("s", [r["wall_s"] for r in ok]),
                    "items_per_s": ("1/s", [wl.items / r["wall_s"] for r in ok]),
                    "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in ok]),
                }
                for name, (unit, vals) in series.items():
                    q1, med, q3 = _quartiles(vals)
                    emit(f"metric {name}: median {med:.4f} {unit} "
                         f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(vals)})")
                    metrics[name] = {"value": med, "unit": unit}
            emit(f"metric setup_s: {setup_s:.4f} s (one set-up, incl. "
                 f"warm-up {warm_s:.4f} s)")
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        else:
            spans = bench.recorder.collect()
            units = layers.units()
            values = layers.per_layer(spans, runs, setup_end)
            n_traced = sum(r["traced"] for r in runs)
            for name in layers.NAMES:
                emit(f"layer {name}: {values[name]:.6g} {units[name]} "
                     f"(median of {n_traced} traced runs)")
                metrics[name] = {"value": values[name], "unit": units[name]}
            with open(os.path.join(OUT, f"{wl.name}-trace.jsonl"), "w") as f:
                for s in spans:
                    f.write(json.dumps(s) + "\n")
        emit(json.dumps({"correct": wrong == 0 and bool(ok),
                         "attempted": attempted, "failed": failed,
                         "metrics": metrics}))
        if hung:
            # the abandoned run may never return: skip interpreter teardown
            _cleanup(sampler, bench_dir)
            os._exit(0)
        return 0
    finally:
        _cleanup(sampler, bench_dir)


if __name__ == "__main__":
    sys.exit(main())
