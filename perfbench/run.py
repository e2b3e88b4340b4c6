"""rrm-lab benchmark: cold CLI processes and a warm library batch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ``src/``. Load is
a closed loop with one client: one op at a time, the next sent when the
previous one has finished. With ``--trace 0`` the run is timed and prints the
end-to-end metrics; with ``--trace 1`` each op runs untraced and then traced
and the run prints the per-layer metrics. Human-readable report lines come
first; the last line of stdout is one JSON object.
"""

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 30.0
PROBE_TIMEOUT_S = 3.0
SETUP_TIMEOUT_S = 30.0
SETUP_REPEATS = 3
# fixed, seed-independent warm-up command for each CLI workload
WARMUP = {
    "cli_closed_form": ["qcd", "lambda", "--alpha", "0.118", "--nf", "5"],
    "cli_solver_bulk": ["qed", "run", "--qmax", "91.188"],
}

KERNEL_LAYERS = ("qed.evolve_alpha", "qed.fit_light_quarks",
                 "qcd.evolve_alpha_s_massive", "qcd.eval", "self_energy.zeta",
                 "self_energy.eval", "regulator.oracle", "regulator.eval",
                 "potential.eval", "lamb.eval")
TIME_LAYERS = ("import.rrm_lab", "import.numpy", "import.scipy", "cli.parse",
               "constants.load", "fixtures.load", "cli.handler",
               "cli.write") + KERNEL_LAYERS
COUNT_LAYERS = ("qed.beta_total_calls", "qed.fit_evaluations",
                "qed.curve_samples", "qcd.curve_samples", "cli.output_bytes")


class Child:
    """One finished child process, with its wait4 rusage."""

    def __init__(self, code, out, err, t_spawn, t_reaped, rusage, timed_out):
        self.code, self.out, self.err = code, out, err
        self.t_spawn, self.t_reaped = t_spawn, t_reaped
        self.wall = t_reaped - t_spawn
        self.cpu = rusage.ru_utime + rusage.ru_stime
        self.rss_mb = rusage.ru_maxrss / 1024.0
        self.timed_out = timed_out


def spawn(args, env, timeout):
    """Run one process to its end; kill it at the timeout."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(args, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        deadline = t_spawn + timeout
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0 and not timed_out:
                timed_out = True
                proc.kill()
            for key, _ in sel.select(max(left, 0.05) if not timed_out
                                     else 0.05):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, rusage = os.wait4(proc.pid, 0)
    t_reaped = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(proc.returncode,
                 b"".join(chunks[proc.stdout]).decode("utf-8", "replace"),
                 b"".join(chunks[proc.stderr]).decode("utf-8", "replace"),
                 t_spawn, t_reaped, rusage, timed_out)


def tail_stats(values):
    """p50, p90 and how many samples lie beyond p90."""
    values = sorted(values)
    p50 = statistics.median(values)
    p90 = (statistics.quantiles(values, n=10, method="inclusive")[8]
           if len(values) > 1 else values[0])
    return p50, p90, sum(v > p90 for v in values)


def end_to_end(latencies, cpus, rss_mb, elapsed, setups, samples="ops"):
    """The end-to-end metrics of one timed window.

    ``latencies`` are per op for the CLI workloads and per distinct task for
    ``lib_batch``; ``cpus`` are per op.
    """
    p50, p90, beyond = tail_stats(latencies)
    n, k = len(cpus), len(latencies)
    metrics = {
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "throughput_ops_s": (n / elapsed, "1/s"),
        "cpu_per_op_ms": (sum(cpus) / n * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    notes = {"latency_p50_ms": f"{k} {samples}",
             "latency_p90_ms": f"{k} {samples}, {beyond} beyond p90",
             "throughput_ops_s": f"{n} ops in {elapsed:.3f} s",
             "cpu_per_op_ms": f"{n} ops",
             "setup_s": f"median of {len(setups)}: "
                        + ", ".join(f"{s:.4f}" for s in setups)}
    return metrics, notes


# ---------------------------------------------------------------- CLI

class CliRun:
    def __init__(self, root, tmp, workload, seed):
        self.tmp, self.workload = tmp, workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.ops = workloads.GENERATORS[workload](seed)
        self.configs = {}
        for i, o in enumerate(self.ops):
            if o["config"] is not None:
                self.configs[i] = self._write_config(f"cfg-{i}", o["config"])

    def _write_config(self, name, text):
        path = self.tmp / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def untraced(self, i, o=None, timeout=OP_TIMEOUT_S, config=None):
        o = o or self.ops[i]
        args = workloads.argv(o, config or self.configs.get(i))
        return spawn([sys.executable, "-m", "rrm_lab.cli", *args], self.env,
                     timeout)

    def traced(self, i):
        out = self.tmp / "spans.json"
        args = workloads.argv(self.ops[i], self.configs.get(i))
        child = spawn([sys.executable, str(HERE / "child.py"), str(i),
                       str(out), *args], self.env, OP_TIMEOUT_S)
        if not out.exists():            # killed, or the import failed
            child.trace = {"t0": child.t_spawn, "spans": [], "counts": {}}
            child.t_exit = child.t_reaped
            return child
        lines = out.read_text(encoding="utf-8").splitlines()
        out.unlink()
        child.trace = json.loads(lines[0])
        child.t_exit = float(lines[1])
        return child

    def set_up(self):
        warm = WARMUP[self.workload]
        times = []
        for _ in range(SETUP_REPEATS):
            child = spawn([sys.executable, "-m", "rrm_lab.cli", *warm],
                          self.env, OP_TIMEOUT_S)
            if child.code != 0:
                raise SystemExit(f"warm-up {' '.join(warm)} exited "
                                 f"{child.code}: {child.err.strip()}")
            times.append(child.wall)
        return times

    def check(self, i, child, rl):
        if child.timed_out:
            return f"timed out after {OP_TIMEOUT_S:.0f} s"
        return check.check_cli(self.ops[i], child.code, child.out, child.err,
                               rl, self.configs.get(i))

    def probes(self):
        ops = workloads.probes(self.workload)
        configs = [self._write_config(f"probe-{k}", o["config"])
                   if o["config"] else None for k, o in enumerate(ops)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            children = list(pool.map(
                lambda k: self.untraced(None, ops[k], PROBE_TIMEOUT_S,
                                        configs[k]), range(len(ops))))
        return [(" ".join(workloads.argv(o)),
                 check.check_probe(c.code, c.out, c.err, c.timed_out))
                for o, c in zip(ops, children)]


def _library():
    src = str(Path.cwd() / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import rrm_lab
    return rrm_lab


def run_cli(run, seconds, report):
    setups = run.set_up()
    done = []
    start = time.monotonic()
    deadline = start + seconds
    while time.monotonic() < deadline and len(done) < len(run.ops):
        done.append(run.untraced(len(done)))
    elapsed = time.monotonic() - start
    probe_results = run.probes()
    rl = _library()
    failures = [(i, reason) for i, child in enumerate(done)
                if (reason := run.check(i, child, rl)) is not None]
    metrics, notes = end_to_end(
        [c.wall for c in done], [c.cpu for c in done],
        statistics.median(c.rss_mb for c in done), elapsed, setups)
    notes["peak_rss_mb"] = "median over ops of each child's peak RSS"
    report_failures(report, run.ops, failures, len(done))
    bad = [p for p in probe_results if p[1] is not None]
    report(f"non-finite-input probes (untimed, {PROBE_TIMEOUT_S:.0f} s "
           f"timeout each): {len(bad)}/{len(probe_results)} fail")
    for argv, reason in probe_results:
        report(f"  probe {argv}: {reason or 'ok'}")
    total = len(done) + len(probe_results)
    report(f"failed_frac: timed ops {len(failures)}/{len(done)}; with probes "
           f"{len(failures) + len(bad)}/{total} = "
           f"{(len(failures) + len(bad)) / total:.4f}")
    return metrics, notes, len(done), len(failures)


def run_cli_traced(run, seconds, report):
    run.untraced(0)                       # warm the page cache and pycs
    pairs = []
    start = time.monotonic()
    while time.monotonic() - start < seconds and len(pairs) < len(run.ops):
        i = len(pairs)
        pairs.append((run.untraced(i), run.traced(i)))
    rl = _library()
    failures = []
    for i, (plain, traced) in enumerate(pairs):
        for child in (plain, traced):
            reason = run.check(i, child, rl)
            if reason is not None:
                failures.append((i, reason))
    report_failures(report, run.ops, failures, 2 * len(pairs))
    metrics = _cli_layers(pairs)
    wall_ms = metrics.pop("wall_ms")
    report(f"traced {len(pairs)} ops, each also run untraced; traced wall "
           f"{wall_ms:.1f} ms/op")
    groups = ("process", "import", "parse+load", "kernels", "render",
              "unaccounted")
    report_shares(report, "all ops", metrics, wall_ms, groups)
    cut = tail_stats([t.wall for _, t in pairs])[1]
    tail = _cli_layers([(p, t) for p, t in pairs if t.wall >= cut])
    report_shares(report, "ops at or above traced p90", tail,
                  tail.pop("wall_ms"), groups)
    return metrics, 2 * len(pairs), len(failures)


def _cli_layers(pairs):
    """Per-layer metrics over (untraced, traced) pairs of cold CLI ops."""
    layers, counts = {}, {}
    start_s = exit_s = unaccounted = 0.0
    for _, traced in pairs:
        t = traced.trace
        own, top = spans.self_times(t["spans"])
        for name, value in own.items():
            layers[name] = layers.get(name, 0.0) + value
        for name, value in t["counts"].items():
            counts[name] = counts.get(name, 0) + value
        start = t["t0"] - traced.t_spawn
        end = traced.t_reaped - traced.t_exit
        start_s += start
        exit_s += end
        unaccounted += traced.wall - start - end - top
    n = len(pairs)
    metrics = per_layer(
        layers, counts, n, start_s / n, exit_s / n, unaccounted / n,
        sum(t.wall - p.wall for p, t in pairs) / n,
        counts.get("import.modules_loaded", 0) / n,
        counts.get("import.numpy_loaded", 0) / n,
        counts.get("import.scipy_loaded", 0) / n)
    metrics["wall_ms"] = sum(t.wall for _, t in pairs) / n * 1e3
    return metrics


SHARES = {
    "process": ("process.start_ms", "process.exit_ms"),
    "import": ("import.rrm_lab_ms", "import.numpy_ms", "import.scipy_ms"),
    "parse+load": ("cli.parse_ms", "constants.load_ms", "fixtures.load_ms"),
    "kernels": tuple(name + "_ms" for name in KERNEL_LAYERS),
    "render": ("cli.render_ms", "cli.write_ms"),
    "unaccounted": ("op.unaccounted_ms",),
}


def report_shares(report, label, metrics, wall_ms, groups):
    """Where a traced op's wall time goes, by group of layers."""
    parts = [f"{g} {sum(metrics[m][0] for m in SHARES[g]) / wall_ms:.1%}"
             for g in groups]
    report(f"share of traced wall, {label} ({wall_ms:.3f} ms/op): "
           + ", ".join(parts))


def per_layer(layers, counts, n, start_s, exit_s, unaccounted_s, overhead_s,
              modules, numpy, scipy):
    """Per-op means of each layer's self time and of each counter."""
    ms = {name: layers.get(name, 0.0) / n * 1e3 for name in TIME_LAYERS}
    metrics = {
        "process.start_ms": (start_s * 1e3, "ms"),
        "process.exit_ms": (exit_s * 1e3, "ms"),
        "import.rrm_lab_ms": (ms["import.rrm_lab"], "ms"),
        "import.numpy_ms": (ms["import.numpy"], "ms"),
        "import.scipy_ms": (ms["import.scipy"], "ms"),
        "import.modules_loaded": (modules, "count"),
        "import.numpy_loaded_frac": (numpy, "fraction"),
        "import.scipy_loaded_frac": (scipy, "fraction"),
        "cli.parse_ms": (ms["cli.parse"], "ms"),
        "constants.load_ms": (ms["constants.load"], "ms"),
        "fixtures.load_ms": (ms["fixtures.load"], "ms"),
        "cli.render_ms": (ms["cli.handler"], "ms"),
        "cli.write_ms": (ms["cli.write"], "ms"),
        "cli.output_bytes": (counts.get("cli.output_bytes", 0) / n, "count"),
    }
    for name in KERNEL_LAYERS:
        metrics[name + "_ms"] = (ms[name], "ms")
    for name in COUNT_LAYERS[:-1]:
        metrics[name] = (counts.get(name, 0) / n, "count")
    metrics["op.unaccounted_ms"] = (unaccounted_s * 1e3, "ms")
    metrics["trace.overhead_ms"] = (overhead_s * 1e3, "ms")
    return metrics


def report_failures(report, ops, failures, attempted):
    report(f"output checks: {attempted - len(failures)}/{attempted} ops "
           f"correct")
    for i, reason in failures[:10]:
        report(f"  FAILED op {i} ({' '.join(workloads.argv(ops[i]))}): "
               f"{reason}")


# ---------------------------------------------------------------- library

def lib_worker(root, seed, seconds, mode):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    child = spawn([sys.executable, str(HERE / "libworker.py"), str(seed),
                   repr(seconds), mode], env,
                  SETUP_TIMEOUT_S if mode == "setup" else seconds + 60.0)
    if child.code != 0 or child.timed_out:
        raise SystemExit(f"library worker failed (exit {child.code}):\n"
                         f"{child.err}")
    lines = child.out.splitlines()
    child.result = json.loads(lines[0])
    child.t_exit = float(lines[1])
    return child


def run_lib(root, seed, seconds, report, traced):
    setups = [lib_worker(root, seed, seconds, "setup").result["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    child = lib_worker(root, seed, seconds, "traced" if traced else "timed")
    res = child.result
    setups.append(res["setup_s"])
    kinds = res["kinds"]
    failures = [(int(k), v) for k, v in res["failures"].items()]
    failed_ops = sum(1 for row in res["rows"] if str(row[0]) in
                     res["failures"])
    rows = res["rows"]
    report(f"output checks: {len(rows) - failed_ops}/{len(rows)} ops correct "
           f"({len(set(r[0] for r in rows))} distinct tasks checked)")
    for index, reason in failures[:10]:
        report(f"  FAILED task {index} ({kinds[index]}): {reason}")
    report(f"modules imported during timed ops: {res['new_modules']}")
    if not traced:
        # a task runs several times in a window, on a box whose speed
        # changes by phases of seconds; its mean over those runs is its
        # latency, so the percentiles move smoothly with the slow share
        walls = {}
        for row in rows:
            walls.setdefault(row[0], []).append(row[1])
        metrics, notes = end_to_end(
            [statistics.fmean(w) for w in walls.values()],
            [r[2] for r in rows], child.rss_mb, res["elapsed"], setups,
            "tasks, each the mean of its runs")
        notes["peak_rss_mb"] = "peak RSS of the library process"
        report(f"failed_frac: {failed_ops}/{len(rows)} = "
               f"{failed_ops / len(rows):.4f}")
        return metrics, notes, len(rows), failed_ops
    n = len(rows)
    own, top = spans.self_times(res["spans"])
    imports, _ = spans.self_times(res["import_spans"])
    layers = dict(own)
    for name, value in imports.items():
        layers[name] = value * n        # one set-up, reported per process
    traced_wall = sum(r[3] for r in rows)
    metrics = per_layer(
        layers, res["counts"], n, res["t0"] - child.t_spawn,
        child.t_reaped - child.t_exit, (traced_wall - top) / n,
        (traced_wall - sum(r[1] for r in rows)) / n, res["modules_loaded"],
        res["numpy_loaded"], res["scipy_loaded"])
    report(f"traced {n} tasks, each also run untraced; import.* and "
           f"process.* are the worker's own, once per process")
    report_shares(report, "all tasks", metrics, traced_wall / n * 1e3,
                  ("parse+load", "kernels", "render", "unaccounted"))
    return metrics, 2 * n, failed_ops


# ---------------------------------------------------------------- main

def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"machine: nproc={os.cpu_count()}, cpu={cpu}, "
            f"python={platform.python_version()}, "
            f"numpy={metadata.version('numpy')}, "
            f"scipy={metadata.version('scipy')}")


def importtime_top(root, k=8):
    """Top cumulative ``-X importtime`` entries of ``import rrm_lab.cli``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    child = spawn([sys.executable, "-X", "importtime", "-c",
                   "import rrm_lab.cli"], env, OP_TIMEOUT_S)
    entries = []
    for line in child.err.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                entries.append((int(cumulative), name.rstrip()))
    entries.sort(reverse=True)
    return [f"{us / 1e3:9.1f} ms  {name}" for us, name in entries[:k]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rrm_lab" / "cli.py").is_file():
        print("perfbench: run from a checkout root; src/rrm_lab/cli.py "
              "not found", file=sys.stderr)
        return 2
    tmp = root / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)

    def report(line):
        print(line, flush=True)

    report(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
           f"trace {args.trace}; closed loop, one client")
    report(machine())
    try:
        if args.workload == "lib_batch":
            out = run_lib(root, args.seed, args.seconds, report,
                          bool(args.trace))
        else:
            run = CliRun(root, tmp, args.workload, args.seed)
            out = (run_cli_traced(run, args.seconds, report) if args.trace
                   else run_cli(run, args.seconds, report))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        metrics, attempted, failed = out
        report("-X importtime, import rrm_lab.cli, top cumulative:")
        for line in importtime_top(root):
            report("  " + line)
        for name, (value, unit) in metrics.items():
            report(f"{name:>32} = {value:.6g} {unit}")
    else:
        metrics, notes, attempted, failed = out
        for name, (value, unit) in metrics.items():
            report(f"{name:>18} = {value:.6g} {unit}  ({notes.get(name, '')})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
