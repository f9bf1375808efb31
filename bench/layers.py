"""Layer timings of the fracspde solver and CLI, written as one JSON file.

    python3 bench/layers.py --out BENCH.json
    python3 bench/layers.py --dx 0.0625 --commands gronwall --out tiny.json
    python3 bench/layers.py --src path/to/other/checkout/src --out other.json

The solver layers are timed for each equation (wave and heat) at each
dt = dx of --dx (default 1/256 and 1/1024), with every other setting at the
SimulationConfig default.  Each (equation, dx) case runs in a fresh process
and times, in order: the RNG draw of the slab increments, the lattice
transform ``picard._band_field``, the homogeneous term, the per-slab update
``picard._slab_sums`` of one iterate-engine batch (ENGINE_BATCH
realizations times the default Picard iteration count) over all slabs, one
``picard_step``, the causal sweep, a full ``solve`` and ``solve_ensemble``
of ENSEMBLE_REALIZATIONS realizations at the default Picard iteration
count.  The sweep is the streamed ``picard._sweep_rows``, its chunked
residual included, on the given rows of w and the noise; a checkout that
predates it times ``picard._sweep`` on whole arrays.  Each CLI command then
runs at its defaults, each repeat in a fresh process, so its time includes
the interpreter start and the imports.  ``moments`` refuses a single
realization, so it runs as ``moments --ensemble 200 --threads 2``;
``picard:ensemble`` is ``picard --ensemble 64 --threads 2`` and
``picard:heat-1024`` is a heat ``picard`` at dt = dx = 1/1024 (a COMMANDS
key names its CLI command before any ``:``).  A command that exits non-zero
stops the script: the time of a refused run is not a timing of the command.

Every entry records the median of 5 ``perf_counter`` timings and all of
them.  A solver layer also records the ``tracemalloc`` peak of one more
call; each process records its peak resident memory from ``getrusage``
(``os.wait4`` on the child).  The machine is recorded too.  A layer that
the source under --src does not define is recorded as null, so older
checkouts can be timed with the same script.  Only per-process measures
are used.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

SCHEMA = "fracspde-bench-layers/1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 5
LAYERS = (
    "rng_draw", "band_field", "homogeneous", "slab_sums", "picard_step", "sweep", "solve", "ensemble",
)
ENSEMBLE_REALIZATIONS = 8
# each command with the arguments it is timed at; () is its defaults
COMMANDS = {
    "verify-identities": (),
    "verify-kernels": (),
    "peszat": (),
    "simulate": (),
    "picard": (),
    "picard:ensemble": ("--ensemble", "64", "--threads", "2"),
    "picard:heat-1024": ("--equation", "heat", "--dt", "0.0009765625", "--dx", "0.0009765625"),
    "holder": (),
    "moments": ("--ensemble", "200", "--threads", "2"),
    "gronwall": (),
}


def _run_child(argv, env):
    """Run argv to completion; returns (exit code, wall s, maxrss MB, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # wait4 reaped the child: tell Popen, so that it does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.decode()


def _timed(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "median_s": statistics.median(times),
        "times_s": times,
        "tracemalloc_peak_mb": peak / 2**20,
    }


def time_case(equation, dx):
    """The solver layers of one (equation, dt = dx) case, in this process."""
    import numpy as np

    from fracspde import picard
    from fracspde.config import from_mapping, to_picard_config
    from fracspde.noise import keyed_rng, spectral_increments

    cfg = to_picard_config(from_mapping({"equation": equation, "dt": dx, "dx": dx}))
    geom = picard.build_geometry(cfg)
    z = spectral_increments(geom.band_masses, geom.dt, geom.n_steps, keyed_rng(cfg.seed, 0))
    eta = picard._band_field(geom, z)
    w = picard._homogeneous_values(geom, cfg.init)
    calls = {
        "rng_draw": lambda: spectral_increments(
            geom.band_masses, geom.dt, geom.n_steps, keyed_rng(cfg.seed, 0)
        ),
        "band_field": lambda: picard._band_field(geom, z),
        "homogeneous": lambda: picard._homogeneous_values(geom, cfg.init),
        "picard_step": lambda: picard.picard_step(geom, cfg.sigma, w, eta, w),
        "solve": lambda: picard.solve(cfg),
        "ensemble": lambda: picard.solve_ensemble(cfg, ENSEMBLE_REALIZATIONS),
    }
    if hasattr(picard, "ENGINE_BATCH"):
        # every slab feeds the same transformed integrand: the update's cost
        # does not depend on its values
        batch = (picard.ENGINE_BATCH, cfg.max_iters)
        p_hat = np.fft.rfft(np.broadcast_to(eta[0], batch + eta[0].shape), axis=-1)

        def slab_sums():
            add = picard._slab_sums(geom, batch)
            for j in range(geom.n_steps):
                add(j, p_hat)

        calls["slab_sums"] = slab_sums
    if hasattr(picard, "_sweep_rows"):
        calls["sweep"] = lambda: picard._sweep_rows(geom, cfg.sigma, iter(w), iter(eta[:, None]))
    elif hasattr(picard, "_sweep"):
        calls["sweep"] = lambda: picard._sweep(geom, cfg.sigma, w, eta)
    return {
        "equation": equation,
        "dt": geom.dt,
        "dx": geom.dx,
        "n_steps": geom.n_steps,
        "n_fft": geom.n_fft,
        "n_bands": geom.n_bands,
        "layers": {
            name: _timed(calls[name]) if name in calls else None for name in LAYERS
        },
    }


def time_command(command, env):
    """One CLI command at its COMMANDS arguments, each repeat in a fresh process."""
    runs = []
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as out:
            argv = [sys.executable, "-m", "fracspde.cli", command.partition(":")[0],
                    *COMMANDS[command], "--out", out]
            code, wall, rss, _ = _run_child(argv, env)
            if code != 0:
                raise SystemExit(f"{' '.join(argv[3:-2])} exited {code}")
            runs.append((wall, rss))
    times = [wall for wall, _ in runs]
    return {
        "command": command,
        "args": list(COMMANDS[command]),
        "median_s": statistics.median(times),
        "times_s": times,
        "maxrss_mb": max(rss for _, rss in runs),
    }


def machine_record():
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "measures": "per-process only: perf_counter, tracemalloc, getrusage via wait4",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--dx", type=float, nargs="+", default=[1.0 / 256, 1.0 / 1024],
                        help="lattice steps, each used as dt = dx")
    parser.add_argument("--commands", nargs="*", default=list(COMMANDS), choices=COMMANDS,
                        help="CLI commands to time (none: solver layers only)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="the source tree that provides fracspde")
    parser.add_argument("--case", nargs=2, metavar=("EQUATION", "DX"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)

    if args.case:
        # one solver case, run by the parent process below
        record = time_case(args.case[0], float(args.case[1]))
        print(json.dumps(record))
        return 0

    env = dict(os.environ, PYTHONPATH=src)
    solver = []
    for equation in ("wave", "heat"):
        for dx in args.dx:
            argv = [sys.executable, os.path.abspath(__file__), "--case", equation, repr(dx),
                    "--src", src, "--out", args.out]
            code, _, rss, out = _run_child(argv, env)
            if code != 0:
                raise SystemExit(f"solver case {equation} dx={dx} exited {code}")
            record = json.loads(out.splitlines()[-1])
            record["maxrss_mb"] = rss
            solver.append(record)
    cli = [time_command(command, env) for command in args.commands]

    result = {
        "schema": SCHEMA,
        "src": os.path.relpath(src, ROOT),
        "repeats": REPEATS,
        "machine": machine_record(),
        "solver": solver,
        "cli": cli,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
