"""Benchmark of the fracspde CLI: four workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload path-heat --seed 0 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
Each workload runs in fresh processes started by this script (see worker.py).
With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics:

- setup_s: median, over SETUP_SAMPLES spawns, of the time from spawning a
  workload process until it has imported fracspde.cli and is ready;
- wall_s: median warm wall time of the workload's op list;
- peak_rss_mb: peak resident memory of the workload process (getrusage);
- ok_frac: share of op executions and output checks that succeeded, that
  is 1 - failed / attempted.

With ``--trace 1`` it reports the per-layer metrics instead (PER_LAYER
below): an untraced worker and a traced worker run one after the other, and
their difference in wall_s is the tracing overhead.  The line before the
last is a JSON object with details: per-op medians and their sample counts,
the failures, the machine record and, when traced, the lattices built and
the dominant layer.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import worker

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150.0

# Layer predicted to hold the most self time on each workload.
DOMINANT_LAYER = {
    "path-heat": "diagnostics",
    "ensemble-wave": "picard",
    "checks": "sobolev",
    "holder": "regularity",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "setup.import_s": ("s", "setup_s on every workload"),
    "setup.import_scipy_s": ("s", "setup_s on every workload"),
    "picard.picard_step.busy_s": ("s", "wall_s on ensemble-wave (most) and path-heat; none on checks, holder"),
    "picard.picard_step.calls": ("count", "wall_s on ensemble-wave and path-heat (iterations per op list)"),
    "picard.solve.busy_s": ("s", "wall_s on path-heat"),
    "picard.solve_ensemble.busy_s": ("s", "wall_s on ensemble-wave"),
    "picard.noise_slabs.busy_s": ("s", "wall_s on ensemble-wave and path-heat"),
    "picard.build_geometry.busy_s": ("s", "wall_s on ensemble-wave, path-heat and holder"),
    "picard._homogeneous_values.busy_s": ("s", "wall_s on path-heat and ensemble-wave"),
    "noise.spectral_increments.busy_s": ("s", "wall_s on ensemble-wave; small on path-heat"),
    "noise.spectral_increments.calls": ("count", "wall_s on ensemble-wave (RNG draws per op list)"),
    "noise.sample_noise.busy_s": ("s", "wall_s on checks (simulate), small"),
    "noise.variance_bias_report.busy_s": ("s", "wall_s on checks (simulate), small"),
    "diagnostics.pathwise_x2_seminorm.busy_s": ("s", "wall_s on path-heat; none on ensemble-wave"),
    "diagnostics.pathwise_x2_seminorm.peak_mb": ("MB", "peak_rss_mb on path-heat"),
    "regularity.sample_additive_solution.busy_s": ("s", "wall_s on holder; none elsewhere"),
    "regularity.sample_additive_solution.peak_mb": ("MB", "peak_rss_mb on holder"),
    "regularity.sample_noise_antiderivative.busy_s": ("s", "wall_s on holder; none elsewhere"),
    "regularity.sample_noise_antiderivative.peak_mb": ("MB", "peak_rss_mb on holder"),
    "regularity.holder_exponent_space.busy_s": ("s", "wall_s on holder"),
    "regularity.holder_exponent_time.busy_s": ("s", "wall_s on holder"),
    "regularity.space_increment_moments.busy_s": ("s", "wall_s on holder (the space fit's moments)"),
    "regularity.time_increment_moments.busy_s": ("s", "wall_s on holder (the time fit's moments)"),
    "regularity.spectral_window_completion.busy_s": ("s", "wall_s on holder"),
    "sobolev.identity_check.busy_s": ("s", "wall_s on checks"),
    "sobolev.fourier_side.busy_s": ("s", "wall_s on checks"),
    "sobolev.sobolev_side.busy_s": ("s", "wall_s on checks"),
    "kernels.fourier_moment.calls": ("count", "wall_s on checks"),
    "kernels.A_T.busy_s": ("s", "wall_s on checks"),
    "kernels.peszat_probe.busy_s": ("s", "wall_s on checks"),
    "kernels.cos_increment_bound_check.busy_s": ("s", "wall_s on checks"),
    "kernels.time_increment_bound_check.busy_s": ("s", "wall_s on checks"),
    "quadrature.gauss_panels.calls": ("count", "wall_s on checks"),
    "quadrature.gauss_panels.busy_s": ("s", "wall_s on checks"),
    "gronwall.a_n_sequence.busy_s": ("s", "wall_s and ok_frac on checks"),
    "gronwall.hitting_probability.busy_s": ("s", "wall_s and ok_frac on checks"),
    "report.emit_report.busy_s": ("s", "wall_s on every workload, small share"),
    "report.emit_report.calls": ("count", "wall_s on every workload, small share"),
    "cli.picard.busy_s": ("s", "wall_s on path-heat and ensemble-wave"),
    "cli.verify-identities.busy_s": ("s", "wall_s on checks"),
    "cli.verify-kernels.busy_s": ("s", "wall_s on checks"),
    "cli.peszat.busy_s": ("s", "wall_s on checks"),
    "cli.simulate.busy_s": ("s", "wall_s on checks"),
    "cli.gronwall.busy_s": ("s", "wall_s on checks"),
    "cli.holder.busy_s": ("s", "wall_s on holder"),
    "cli._run_parallel.idle_s": ("s", "wall_s on ensemble-wave"),
    "process.cpu_s": ("s", "reported only: CPU time of one op list, untraced"),
    "process.tracing_overhead_s": ("s", "reported only: traced minus untraced wall_s"),
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # commands read their default pool size from here; the op lists set it
    env.pop("FRACSPDE_THREADS", None)
    return env


def _spawn(args):
    """Start a worker; returns (process, seconds from spawn to its ready line)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), *args],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc)
        raise BenchError(f"worker did not start: {line.strip() or 'no output'}")
    return proc, ready


def _finish(proc):
    """Wait for a worker; returns (stdout rest, stderr).  Kills it on timeout."""
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-500:]}")
    return out, err


def setup_samples():
    """Seconds from spawn to ready of SETUP_SAMPLES processes that only import."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc, ready = _spawn(["--probe"])
        _finish(proc)
        samples.append(ready)
    return samples


def import_times():
    """Cumulative import time of fracspde.cli, and of the scipy packages it pulls in."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fracspde.cli"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"import failed: {proc.stderr.strip()[-500:]}")
    return parse_importtime(proc.stderr)


def parse_importtime(text):
    """(fracspde.cli cumulative s, scipy cumulative s) from -X importtime output.

    Lines come children first; the nesting depth is the indent of the name.
    The scipy share sums the outermost scipy entries, those whose parent is
    not itself a scipy module.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    cli_s = scipy_s = 0.0
    pending = []  # (depth, is scipy, cumulative s) of rows awaiting their parent
    for depth, name, cumulative in rows:
        is_scipy = name == "scipy" or name.startswith("scipy.")
        kids = [p for p in pending if p[0] > depth]
        pending = [p for p in pending if p[0] <= depth]
        if not is_scipy:
            scipy_s += sum(c for _, s, c in kids if s)
        pending.append((depth, is_scipy, cumulative))
        if name == "fracspde.cli":
            cli_s = cumulative
    scipy_s += sum(c for _, s, c in pending if s)
    return cli_s, scipy_s


def run_worker(workload, seed, seconds, out_dir, trace=False):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--out", out_dir]
    proc, ready = _spawn(args + (["--trace"] if trace else []))
    out, _ = _finish(proc)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    if os.path.realpath(result["fracspde"]) != os.path.realpath(os.path.join(SRC, "fracspde")):
        raise BenchError(f"imported fracspde from {result['fracspde']}, not from {SRC}")
    result["ready_s"] = ready
    return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(traced, base):
    spans = traced["spans"]
    reps = traced["reps"]
    metrics = {}
    for name, (unit, _) in PER_LAYER.items():
        span, _, stat = name.rpartition(".")
        if stat in ("busy_s", "calls"):
            value = spans.get(span, {}).get(stat, 0) / reps
        elif stat == "peak_mb":
            value = traced["peaks_mb"].get(span, 0.0)
        else:
            continue
        metrics[name] = _metric(value, unit)
    metrics["cli._run_parallel.idle_s"] = _metric(traced["pool_idle_s"] / reps, "s")
    metrics["process.cpu_s"] = _metric(statistics.median(base["list_cpu_s"]), "s")
    metrics["process.tracing_overhead_s"] = _metric(
        statistics.median(traced["list_s"]) - statistics.median(base["list_s"]), "s"
    )
    return metrics


def layer_shares(spans):
    """Self time per module (first name component), as a share of the total."""
    totals = {}
    for name, entry in spans.items():
        module = name.split(".", 1)[0]
        totals[module] = totals.get(module, 0.0) + entry["busy_s"]
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=worker.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "fracspde", "cli.py")):
        print(f"perfbench: no fracspde sources under {SRC}", file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, ".bench_build", "perfbench", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            half = args.seconds / 2.0
            import_s, scipy_s = import_times()
            base = run_worker(args.workload, args.seed, half, os.path.join(out_root, "base"))
            traced = run_worker(args.workload, args.seed, half, os.path.join(out_root, "traced"), trace=True)
            failures = base["failures"] + traced["failures"]
            # The traced worker's own warm-up of op 0 ran untraced, and it
            # compared every traced run of op 0 with it; the other ops'
            # first runs were traced and are compared with the untraced ones.
            for a, b in zip(base["first_out"], traced["first_out"]):
                if not worker.same_tree(a, b):
                    failures.append({"op": b, "kind": "output", "why": "traced artifacts differ from untraced"})
            attempted = base["attempted"] + traced["attempted"] + len(base["first_out"])
            metrics = layer_metrics(traced, base)
            metrics["setup.import_s"] = _metric(import_s, "s")
            metrics["setup.import_scipy_s"] = _metric(scipy_s, "s")
            shares = layer_shares(traced["spans"])
            dominant = next(iter(shares))
            detail = {
                "ops": base["ops"],
                "lattices": traced["lattices"],
                "layer_shares": shares,
                "dominant_layer": dominant,
                "dominant_layer_predicted": DOMINANT_LAYER[args.workload],
                "dominant_layer_confirmed": dominant == DOMINANT_LAYER[args.workload],
                "machine": base["machine"],
            }
        else:
            samples = setup_samples()
            base = run_worker(args.workload, args.seed, args.seconds, os.path.join(out_root, "base"))
            samples.append(base["ready_s"])
            failures = base["failures"]
            attempted = base["attempted"]
            metrics = {
                "setup_s": _metric(statistics.median(samples), "s"),
                "wall_s": _metric(statistics.median(base["list_s"]), "s"),
                "peak_rss_mb": _metric(base["peak_rss_mb"], "MB"),
                "ok_frac": _metric(1.0 - len(failures) / attempted, "frac"),
            }
            detail = {
                "setup_samples_s": samples,
                "list_s": base["list_s"],
                "ops": base["ops"],
                "gate_ratio": base["gate_ratio"],
                "machine": base["machine"],
            }
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    detail["failed_frac"] = len(failures) / attempted
    detail["failures"] = failures
    print(json.dumps({"detail": detail}))
    correct = not any(f["kind"] == "output" for f in failures)
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
