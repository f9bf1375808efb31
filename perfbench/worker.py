"""One workload process of the fracspde benchmark.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --out DIR [--trace]
    python3 perfbench/worker.py --probe

The process imports ``fracspde.cli`` and prints ``ready``; run.py times the
set-up from the spawn to that line.  It then runs one warm-up op and repeats
the workload's op list through ``fracspde.cli.main`` until ``--seconds`` are
used, with at least MIN_REPS repeats.  The outputs are checked outside the
timed ops, and one JSON line with the timings and checks is printed last.  With
``--trace`` the layer functions are wrapped with spans (see tracer.py); run.py
starts that run as a process of its own, so untraced timings never carry the
wrappers.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

MIN_REPS = 3
# A worker stops repeating after this many seconds of timed work, whatever
# --seconds asks for, so that run.py stays within its time limit.
MAX_TIMED_S = 90.0
PATH_HEAT_OPS = 3
CONFIG_ECHO = "effective-config.txt"


def workload_ops(workload, seed):
    """The op list of a workload: each op is the argv of one CLI command.

    path-heat op i uses seed + i.  The gronwall power:-0.7 op exits 2 at the
    time of writing (its summability verdict cannot certify the heat
    density); it stays in the list so that a fix shows in ok_frac.
    """
    s = str(seed)
    if workload == "path-heat":
        return [["picard", "--equation", "heat", "--seed", str(seed + i)] for i in range(PATH_HEAT_OPS)]
    if workload == "ensemble-wave":
        return [["picard", "--ensemble", "64", "--threads", "2", "--seed", s]]
    if workload == "checks":
        # verify-kernels, the cheapest op, comes first: it is the warm-up op
        return [
            ["verify-kernels"],
            ["verify-identities"],
            ["peszat"],
            ["simulate", "--seed", s],
            ["gronwall", "--g", "const", "--seed", s],
            ["gronwall", "--g", "power:-0.7", "--seed", s],
        ]
    if workload == "holder":
        return [
            ["holder", "--target", "heat", "--seed", s],
            ["holder", "--target", "noise", "--seed", s],
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("path-heat", "ensemble-wave", "checks", "holder")


def run_op(cli_main, argv, out_dir):
    """Run one CLI command in process.

    Returns (exit code or "raised", wall seconds, CPU seconds, output).
    """
    buf = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli_main(argv + ["--out", out_dir])
    except Exception:  # a raising op is a failed op; keep the traceback
        code = "raised"
        buf.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return code, wall, time.process_time() - cpu, buf.getvalue()


def tree_bytes(root):
    """Relative path -> bytes of every file under root, except the config echo."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name == CONFIG_ECHO:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def same_tree(a, b):
    ta = tree_bytes(a)
    return bool(ta) and ta == tree_bytes(b)


class Run:
    """Op executions of one worker, with their failures."""

    def __init__(self, cli_main, out_root):
        self.cli_main = cli_main
        self.out_root = out_root
        self.attempted = 0
        self.failures = []
        self.count = 0

    def op(self, argv):
        """Execute argv; returns (out dir, wall seconds, CPU seconds, ok)."""
        out_dir = os.path.join(self.out_root, f"op{self.count:04d}")
        self.count += 1
        code, wall, cpu, output = run_op(self.cli_main, argv, out_dir)
        self.attempted += 1
        ok = code == 0
        if not ok:
            tail = output.strip().splitlines()[-1:] or [""]
            self.fail(argv, f"exit {code}: {tail[0][:200]}")
        return out_dir, wall, cpu, ok

    def fail(self, what, why, kind="exit"):
        """Record a failure: kind "exit" for an op's exit code, "output" for an output check."""
        what = " ".join(what) if isinstance(what, list) else what
        self.failures.append({"op": what, "kind": kind, "why": why})

    def check(self, name, ok, why):
        """An output check made once per run counts as one more attempted op."""
        self.attempted += 1
        if not ok:
            self.fail(name, why, kind="output")


def fixed_point_gate(seed):
    """Rebuild the path-heat solve from public functions and apply one more step.

    The extra Picard step must move the core by at most the solve's own
    stopping threshold; returns (ok, change / threshold).
    """
    import numpy as np
    from fracspde.config import from_mapping, to_picard_config
    from fracspde.picard import homogeneous_term, noise_slabs, picard_step, solve

    cfg = to_picard_config(from_mapping({"equation": "heat", "seed": seed}))
    result = solve(cfg)
    geom = result.geometry
    w = homogeneous_term(cfg).values
    eta = noise_slabs(geom, cfg.seed, cfg.realization)
    u = result.field.values
    change = float(np.max(np.abs((picard_step(geom, cfg.sigma, u, eta, w) - u)[:, geom.core])))
    threshold = float(result.stopping_threshold)
    return change <= threshold, change / threshold


def _blas_libraries():
    """Name and thread count of each OpenBLAS loaded into this process."""
    found = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = None
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
        found.append({"library": os.path.basename(path), "threads": threads})
    return found


def machine_record():
    import numpy
    import scipy

    model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_loaded": _blas_libraries(),
        "measures": "per-process only: perf_counter, process_time, getrusage, tracemalloc",
    }


def warmup_argv(workload, op):
    """The untimed warm-up run of the first op.

    ensemble-wave's warm-up runs at --threads 1, so that every timed
    --threads 2 run is compared byte for byte with a serial run.
    """
    if workload != "ensemble-wave":
        return op
    argv = list(op)
    argv[argv.index("--threads") + 1] = "1"
    return argv


def run_workload(cli_main, workload, seed, seconds, out_root, tracer=None):
    ops = workload_ops(workload, seed)
    run = Run(cli_main, out_root)
    first_out = {}
    op_seconds = {i: [] for i in range(len(ops))}

    def execute(i, argv=None):
        out_dir, wall, cpu, ok = run.op(argv or ops[i])
        if i in first_out:
            # a failed execution is counted once, by its exit code
            if ok and not same_tree(first_out[i], out_dir):
                run.fail(ops[i], "artifacts differ from the op's first run", kind="output")
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            first_out[i] = out_dir
        return wall, cpu

    execute(0, warmup_argv(workload, ops[0]))
    if tracer is not None:
        tracer.install()
    list_s, list_cpu_s = [], []
    timed_start = time.perf_counter()
    try:
        while True:
            # the list's time is the sum of its ops' times, so the output
            # checks made between ops stay outside the timed region
            times = [execute(i) for i in range(len(ops))]
            for i, (wall, _) in enumerate(times):
                op_seconds[i].append(wall)
            list_s.append(sum(wall for wall, _ in times))
            list_cpu_s.append(sum(cpu for _, cpu in times))
            elapsed = time.perf_counter() - timed_start
            if len(list_s) >= MIN_REPS and elapsed + statistics.median(list_s) > seconds:
                break
            if elapsed > MAX_TIMED_S:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gate_ratio = None
    if tracer is None and workload == "path-heat":
        ok, gate_ratio = fixed_point_gate(seed)
        run.check(
            "path-heat fixed-point gate",
            ok,
            f"one more Picard step moved the core by {gate_ratio:.3g} x stopping_threshold",
        )

    result = {
        "reps": len(list_s),
        "list_s": list_s,
        "list_cpu_s": list_cpu_s,
        "ops": [
            {"argv": " ".join(op), "median_s": statistics.median(op_seconds[i]), "n": len(op_seconds[i])}
            for i, op in enumerate(ops)
        ],
        "attempted": run.attempted,
        "failures": run.failures,
        "peak_rss_mb": peak_rss_mb,
        "first_out": [first_out[i] for i in range(len(ops))],
        "gate_ratio": gate_ratio,
    }
    if tracer is not None:
        from tracer import summarize

        stats, idle = summarize(tracer.spans, tracer.pools)
        result["spans"] = stats
        result["pool_idle_s"] = idle
        result["peaks_mb"] = dict(tracer.peaks)
        result["lattices"] = sorted(tracer.lattices)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="import, print ready, and exit")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import fracspde.cli

    print("ready", flush=True)
    if args.probe:
        return 0
    if not args.workload or not args.out:
        parser.error("--workload and --out are required unless --probe is given")
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    result = run_workload(fracspde.cli.main, args.workload, args.seed, args.seconds, args.out, tracer)
    result["fracspde"] = os.path.dirname(fracspde.cli.__file__)
    result["machine"] = machine_record()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
