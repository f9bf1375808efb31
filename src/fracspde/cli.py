"""Command-line front end: verification suites, the lattice noise audit, solver runs.

Each command is one row of _COMMANDS: its help and its settings, each a
key with a kind and a default.  The parser adds one flag per setting, and
_settings resolves every setting by one rule, default < config file < set
flag.  A flag's text is read by the config file's value rule
(config.parse_scalar), so a value means the same on the command line and in
a file: a string that reads as a number or a bool is quoted in both.  The
kind is checked once, by _checked, or by from_mapping for the
SimulationConfig fields.  --format, verify-identities --tol and moments
--p default to None, so they are echoed only when given.

A command resolves its settings, calls the library and only then writes
its artifacts.  Every check of a proof object is built in the library, in
the module that owns its mathematics: the kernel suite
(kernels.kernel_checks), the seminorm identities, the moment sups and the
Gaussian ratio, holder's slope bands and sampler check
(regularity.holder_checks), and the Gronwall summability verdict.  A
command builds a check itself only for a run-level tolerance that no
library function owns: the noise audit's bias allowance, picard's run
status, peszat's monotone count and gronwall's Monte Carlo agreement.

Exit codes: 0 when every check passed (or the run completed, for commands
without checks), 2 when at least one check failed, 1 on usage or
configuration errors, 3 when a Picard iteration diverges (a delta that is
not finite).  A finished run writes its artifacts into the output
directory and echoes its effective settings beside them as
effective-config.txt; rerunning a command on its own echo reproduces the
outputs byte for byte.  A refused run writes nothing, not even the output
directory.  Two flags stay outside the settings and the echo: --threads,
because the pool size changes no output (picard --ensemble and moments
split their realizations over a worker pool bounded by --threads, default
from FRACSPDE_THREADS, else 1), and simulate --save-noise, because
simulate's echo must stay a valid picard config.
"""

import argparse
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from typing import NamedTuple

import numpy as np

from .config import (
    SimulationConfig,
    from_mapping,
    parse_config_file,
    parse_scalar,
    serialize_mapping,
    to_picard_config,
)
from .constants import validate_hurst
from .diagnostics import pathwise_x2_seminorm
from .gronwall import (
    GronwallProblem,
    a_n_sequence,
    hitting_probability,
    root_summability_check,
)
from .kernels import EQUATIONS, kernel_checks, peszat_probe
from .noise import keyed_rng, spectral_increments, variance_bias_report
from .picard import (
    PicardConvergenceError,
    PicardDivergenceError,
    build_geometry,
    solve,
    solve_ensemble,
)
from .regularity import (
    HOLDER_REALIZATIONS,
    HOLDER_SLOPE_BAND,
    HOLDER_Z_MAX,
    MIN_HOLDER_REALIZATIONS,
    FieldSampleCollector,
    FirstIncrementCollector,
    gaussian_ratio_check,
    holder_checks,
    moment_report,
)
from .report import (
    PlotSeries,
    VerificationReport,
    all_passed,
    csv_text,
    emit_report,
    format_float,
    make_check,
)
from .sobolev import gaussian_bump, identity_check, indicator, tent

_MAX_THREADS = 64
_KIND_NAMES = {float: "a number", int: "an integer", str: "a string"}
_SIM_KEYS = tuple(SimulationConfig.__dataclass_fields__)


class _CliError(Exception):
    """Usage or configuration problem; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the command contract
    # reserves 2 for failed checks, so route usage problems through the
    # config-error path instead.
    def error(self, message):
        raise _CliError(message)


def _resolve_threads(value):
    if value is None:
        raw = os.environ.get("FRACSPDE_THREADS", "").strip()
        if not raw:
            return 1
        try:
            value = int(raw)
        except ValueError:
            raise _CliError(f"FRACSPDE_THREADS must be a positive integer, got {raw!r}")
    if value < 1:
        raise _CliError(f"threads must be a positive integer, got {value}")
    return min(value, _MAX_THREADS)


def _run_parallel(tasks, threads):
    """Run callables, results in submission order, independent of pool size."""
    if threads <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


def _checked(key, kind, value):
    if kind is None:
        return value
    if isinstance(kind, list):
        if isinstance(value, str):
            value = [parse_scalar(token.strip()) for token in value.split(",")]
        elif not isinstance(value, list):
            value = [value]
        return tuple(_checked(key, kind[0], item) for item in value)
    if isinstance(kind, tuple):
        if value not in kind:
            raise _CliError(f"{key} must be one of {', '.join(kind)}, got {value!r}")
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise _CliError(f"{key} is too large for a float")
        if not math.isfinite(value):
            raise _CliError(f"{key} must be a finite number, got {value!r}")
        return value
    raise _CliError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _settings(args):
    """Resolve the settings of args.command: default < config file < set flag.

    The command's row in _COMMANDS maps each setting key, which is also its
    flag's dest, to its kind and default; a config key outside them is an
    error.  Flag text is read by parse_scalar, the rule of a config file's
    values, item by item for a list flag.  A value from the file or a flag
    must be of its key's kind: float takes an int or a float (never a
    bool) and yields a finite float; int takes an int and str a string,
    neither a bool; [float] and [int] take a repeatable flag, one value or
    a comma-separated string of values and yield a tuple of that kind; a
    tuple kind lists the allowed values; None passes the value through for
    from_mapping to check.  Any other value exits with code 1.  An unset
    setting takes its default, and a default of None stays unset.
    """
    options = _COMMANDS[args.command].settings
    mapping = parse_config_file(args.config) if args.config else {}
    unknown = [key for key in mapping if key not in options]
    if unknown:
        raise _CliError(f"unknown config key {unknown[0]!r} for this command")
    settings = {}
    for key, (kind, default, *_) in options.items():
        flag = getattr(args, key, None)
        if flag is None:
            value = mapping.get(key)
        elif isinstance(flag, list):
            value = [parse_scalar(text) for text in flag]
        else:
            value = parse_scalar(flag)
        settings[key] = default if value is None else _checked(key, kind, value)
    return settings


def _sim_config(settings):
    """The validated run record of a SimulationConfig command, and its echo:
    the record's fields, then the command's other settings."""
    cfg = from_mapping({key: settings[key] for key in _SIM_KEYS if settings[key] is not None})
    echo = asdict(cfg)
    echo.update((key, value) for key, value in settings.items() if key not in echo)
    return cfg, echo


def _grid_text(values):
    return ",".join(format_float(v) for v in values)


def _write(path, data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def _json_number(value):
    value = float(value)
    return value if math.isfinite(value) else format_float(value)


def _json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _print_reports(reports):
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{status} {rep.check_name}: computed {format_float(rep.computed)} "
            f"reference {format_float(rep.reference)}"
        )


def _finish(echo, reports, files, plots=None):
    """Write a computed run, print per-check lines, and map to an exit code.

    Creates the output directory echo["out"] and writes into it the echo
    as effective-config.txt (grids comma-joined, unset settings left out),
    files (name -> text or bytes; an absolute name is kept), and the report
    file in echo["format"], json when unset, with report.svg when plots
    are given.  Commands write nothing before this.
    """
    out_dir = echo["out"]
    os.makedirs(out_dir, exist_ok=True)
    text = {k: _grid_text(v) if isinstance(v, tuple) else v for k, v in echo.items()}
    _write(os.path.join(out_dir, "effective-config.txt"), serialize_mapping(text))
    for name, data in files.items():
        _write(os.path.join(out_dir, name), data)
    fmt = echo["format"] or "json"
    emit_report(reports, fmt, os.path.join(out_dir, f"report.{fmt}"))
    if plots:
        emit_report(reports, "svg-plot", os.path.join(out_dir, "report.svg"), plots=plots)
    _print_reports(reports)
    n_failed = sum(0 if rep.passed else 1 for rep in reports)
    if n_failed:
        print(f"{n_failed} of {len(reports)} checks failed")
        return 2
    print(f"all {len(reports)} checks passed")
    return 0


def _thin_indices(n_points, target):
    if n_points <= target:
        return np.arange(n_points)
    return np.unique(np.linspace(0, n_points - 1, target).round().astype(int))


def _log10_intercept(fit):
    lx = np.log10(fit.lags)
    ly = np.log10(fit.moments)
    return float(np.mean(ly - fit.fitted_slope * lx))


# ---------------------------------------------------------------- identities


def _cmd_verify_identities(args):
    settings = _settings(args)
    for h in settings["hurst_grid"]:
        validate_hurst(h, lo=0.0)
    rows = [
        row
        for g in (gaussian_bump(), tent(), indicator())
        for row in identity_check(g, settings["hurst_grid"], tol=settings["tol"])
    ]
    if settings["format"] == "csv":
        cells = [
            (row.name, row.h, row.fourier, row.sobolev, row.rel_err, row.report.passed)
            for row in rows
        ]
        files = {"identities.csv": csv_text(("g", "h", "lhs", "rhs", "rel_err", "pass"), cells)}
    else:
        records = [
            {
                "g": row.name,
                "h": _json_number(row.h),
                "lhs": _json_number(row.fourier),
                "rhs": _json_number(row.sobolev),
                "rel_err": _json_number(row.rel_err),
                "pass": row.report.passed,
            }
            for row in rows
        ]
        files = {"identities.json": _json_text(records)}
    return _finish(settings, [row.report for row in rows], files)


# ------------------------------------------------------------------- kernels


def _cmd_verify_kernels(args):
    settings = _settings(args)
    equation, T, alphas = settings["equation"], settings["T"], settings["alpha_grid"]
    if not T > 0.0:
        raise _CliError(f"T must be positive, got {T!r}")
    for alpha in alphas:
        if not -1.0 < alpha < 1.0:
            raise _CliError(f"alpha must lie in (-1, 1), got {alpha!r}")
    equations = EQUATIONS if equation == "both" else (equation,)
    reports = [rep for eq in equations for rep in kernel_checks(eq, T, alphas)]
    return _finish(settings, reports, {})


# -------------------------------------------------------------------- peszat


def _cmd_peszat(args):
    settings = _settings(args)
    etas = settings["eta_grid"]
    if len(etas) < 2:
        raise _CliError("eta grid needs at least two points to test monotonicity")

    rows = []
    reports = []
    for h in settings["hurst_grid"]:
        probe = [peszat_probe(h, eta) for eta in etas]
        for eta, val in zip(etas, probe):
            rows.append((float(h), float(eta), float(val)))
        increasing = sum(1 for a, b in zip(probe, probe[1:]) if b > a)
        reports.append(
            make_check(
                f"peszat-monotonicity-h{h:g}",
                computed=increasing / (len(probe) - 1),
                reference=1.0,
                tolerance=0.0,
                inputs={"h": h, "etas": _grid_text(etas)},
            )
        )
    return _finish(settings, reports, {"probes.csv": csv_text(("h", "eta", "value"), rows)})


# ------------------------------------------------------------------ simulate


def _cmd_simulate(args):
    cfg, echo = _sim_config(_settings(args))
    # the lattice and noise bands that picard builds at the same settings
    geom = build_geometry(to_picard_config(cfg))
    files = {}
    if args.save_noise:
        # the stream of realization 0, which noise_slabs draws for picard
        z = spectral_increments(geom.band_masses, geom.dt, geom.n_steps, keyed_rng(cfg.seed, 0))
        npy = io.BytesIO()
        np.save(npy, z)
        files[args.save_noise] = npy.getvalue()

    # check points inside the reported window [-L, L]: the lattice period
    # n_fft * dx is at least 2L, so none of them meets its periodic image
    bias = variance_bias_report(geom, cfg.L * np.array([0.25, 0.5, 1.0]))
    reports = []
    for x, rel_err, tail, exact in zip(bias["x"], bias["rel_err"], bias["tail"], bias["exact"]):
        # the truncation tail is known exactly, so grant it and require the
        # band quantisation to contribute at most another 1%
        reports.append(
            make_check(
                f"noise-variance-bias-x{x:g}",
                computed=float(rel_err),
                reference=0.0,
                tolerance=float(tail / exact) + 0.01,
                inputs={
                    "h": cfg.hurst,
                    "x": float(x),
                    "xi_cut": geom.xi_cut,
                    "n_bands": geom.n_bands,
                },
            )
        )
    code = _finish(echo, reports, files)
    if args.save_noise:
        print(f"wrote noise increments {os.path.join(cfg.out, args.save_noise)}")
    return code


# -------------------------------------------------------------------- picard


def _ensemble_blocks(n, threads):
    width = max(1, math.ceil(n / max(1, min(threads, n))))
    return [(r0, min(n, r0 + width)) for r0 in range(0, n, width)]


def _solve_ensemble_blocks(picard_cfg, n_realizations, n_iters, threads, thin=None):
    """solve_ensemble over contiguous realization blocks, one per worker.

    Realizations are independent streams indexed by (seed, realization), so
    splitting preserves every number the serial run produces.  Returns the
    deltas, the thinned ensemble (None without ``thin``) and the first
    increments at the final-time lattice center, in realization order.
    """
    geom = build_geometry(picard_cfg)
    blocks = _ensemble_blocks(n_realizations, threads)
    collectors = [FieldSampleCollector(geom, *thin) if thin else None for _ in blocks]
    firsts = [FirstIncrementCollector() for _ in blocks]

    def run(block, coll, first):
        r0, r1 = block
        cfg = replace(picard_cfg, realization=picard_cfg.realization + r0)
        on_final = coll.on_final if coll is not None else None
        return solve_ensemble(
            cfg, r1 - r0, n_iters=n_iters, collectors=(first,), on_final=on_final
        )

    results = _run_parallel(
        [lambda b=b, c=c, f=f: run(b, c, f) for b, c, f in zip(blocks, collectors, firsts)],
        threads,
    )
    deltas = np.vstack([res.deltas for res in results])
    ensemble = None
    if thin:
        parts = [coll.finalize() for coll in collectors]
        ensemble = replace(parts[0], values=np.concatenate([p.values for p in parts]))
    return deltas, ensemble, [v for first in firsts for v in first.values]


def _picard_single(cfg, echo):
    picard_cfg = to_picard_config(cfg)
    result = solve(picard_cfg)
    field = result.field

    t_idx = _thin_indices(field.n_steps + 1, 33)
    x_all = field.core_x
    x_idx = _thin_indices(x_all.size, 257)
    values = field.core_values
    # each t and x repeats across the grid: format it once
    x_text = [format_float(x_all[j]) for j in x_idx]
    rows = []
    for i in t_idx:
        t_text = format_float(field.t_grid[i])
        for j, x in zip(x_idx, x_text):
            rows.append((t_text, x, float(values[i, j])))

    seminorm = pathwise_x2_seminorm(field.values - result.homogeneous, result.geometry)
    diagnostics = {
        "equation": cfg.equation,
        "hurst": cfg.hurst,
        "T": cfg.T,
        "dt": cfg.dt,
        "dx": cfg.dx,
        "L": cfg.L,
        "sigma_a": cfg.sigma_a,
        "sigma_b": cfg.sigma_b,
        "u0": cfg.u0,
        "v0": cfg.v0,
        "seed": cfg.seed,
        "n_iters": int(result.n_iters),
        "converged": bool(result.converged),
        "stopping_threshold": _json_number(result.stopping_threshold),
        "deltas": [_json_number(d) for d in result.deltas],
        "pathwise_x2_seminorm": _json_number(seminorm),
    }
    files = {
        "field.csv": csv_text(("t", "x", "value"), rows),
        "diagnostics.json": _json_text(diagnostics),
    }

    reports = [
        make_check(
            "picard-converged",
            computed=1.0 if result.converged else 0.0,
            reference=1.0,
            tolerance=0.0,
            inputs={"equation": cfg.equation, "h": cfg.hurst, "seed": cfg.seed},
        ),
        make_check(
            "picard-final-delta-below-threshold",
            computed=float(result.deltas[-1]),
            reference=0.0,
            tolerance=float(result.stopping_threshold),
            inputs={"equation": cfg.equation, "h": cfg.hurst, "seed": cfg.seed},
        ),
    ]
    plots = [
        PlotSeries(
            name="picard-deltas",
            x=tuple(range(1, len(result.deltas) + 1)),
            y=tuple(float(d) for d in result.deltas),
            axes="semilogy",
            annotation=f"converged in {result.n_iters} iterations",
        )
    ]
    return _finish(echo, reports, files, plots=plots)


def _picard_ensemble(cfg, echo, threads):
    picard_cfg = to_picard_config(cfg)
    deltas, _, _ = _solve_ensemble_blocks(picard_cfg, cfg.ensemble, cfg.max_iters, threads)
    mean = deltas.mean(axis=0)
    peak = deltas.max(axis=0)
    rows = [(n + 1, float(mean[n]), float(peak[n])) for n in range(mean.size)]
    diagnostics = {
        "equation": cfg.equation,
        "hurst": cfg.hurst,
        "ensemble": cfg.ensemble,
        "n_iters": int(deltas.shape[1]),
        "mean_deltas": [_json_number(v) for v in mean],
        "max_deltas": [_json_number(v) for v in peak],
        "seed": cfg.seed,
    }
    files = {
        "deltas.csv": csv_text(("iteration", "mean_delta", "max_delta"), rows),
        "diagnostics.json": _json_text(diagnostics),
    }

    reports = [
        make_check(
            "picard-ensemble-completed",
            computed=float(deltas.shape[0]),
            reference=float(cfg.ensemble),
            tolerance=0.0,
            inputs={"equation": cfg.equation, "h": cfg.hurst, "seed": cfg.seed},
        )
    ]
    if mean.size >= 3:
        worst = max(float(mean[n + 1] - mean[n]) for n in range(1, mean.size - 1))
        reports.append(
            make_check(
                "picard-mean-delta-monotone-from-n2",
                computed=max(worst, 0.0),
                reference=0.0,
                tolerance=0.0,
                inputs={"equation": cfg.equation, "h": cfg.hurst, "ensemble": cfg.ensemble},
            )
        )
    plots = [
        PlotSeries(
            name="ensemble-mean-deltas",
            x=tuple(range(1, mean.size + 1)),
            y=tuple(float(v) for v in mean),
            axes="semilogy",
            annotation=f"{cfg.ensemble} realizations",
        )
    ]
    return _finish(echo, reports, files, plots=plots)


def _cmd_picard(args):
    threads = _resolve_threads(args.threads)
    cfg, echo = _sim_config(_settings(args))
    if cfg.ensemble == 1:
        return _picard_single(cfg, echo)
    return _picard_ensemble(cfg, echo, threads)


# -------------------------------------------------------------------- holder


def _cmd_holder(args):
    settings = _settings(args)
    target = settings["target"]
    # the run record checks the ranges of the Hurst index, ensemble and seed
    from_mapping({key: settings[key] for key in ("hurst", "ensemble", "seed", "out")})
    reports, axes = holder_checks(target, settings["hurst"], settings["ensemble"], settings["seed"])

    files = {}
    plots = []
    summary = {}
    for held in axes:
        fit = held.fit
        files[f"holder-{target}-{held.axis}.csv"] = csv_text(
            ("lag", "lattice_exact", "completion", "lattice_mc", "mc_stderr", "z"),
            [tuple(map(float, row)) for row in zip(
                fit.lags, fit.lattice, fit.completion, held.mc, held.stderr, held.z)],
        )
        summary[held.axis] = {
            "label": fit.label,
            "fitted_slope": _json_number(fit.fitted_slope),
            "stderr": _json_number(fit.stderr),
            "r_squared": _json_number(fit.r_squared),
            "status": fit.status,
            "target_slope": _json_number(held.target_slope),
            "holder_exponent": _json_number(fit.fitted_slope / 2.0),
            "sampler_max_abs_z": _json_number(np.max(np.abs(held.z))),
        }
        plots.append(
            PlotSeries(
                name=fit.label,
                x=tuple(float(v) for v in fit.lags),
                y=tuple(float(v) for v in fit.moments),
                axes="loglog",
                slope=fit.fitted_slope,
                intercept=_log10_intercept(fit),
                annotation=f"target {format_float(held.target_slope)}",
            )
        )
    files["holder.json"] = _json_text(summary)
    return _finish(settings, reports, files, plots=plots)


# ------------------------------------------------------------------- moments


def _cmd_moments(args):
    threads = _resolve_threads(args.threads)
    settings = _settings(args)
    cfg, echo = _sim_config(settings)
    p_list = settings["p"] or (2, 4)
    for p in p_list:
        if p < 2:
            raise _CliError(f"p must be at least 2, got {p}")
    if cfg.ensemble < 2:
        raise _CliError(f"moments needs at least 2 realizations, got {cfg.ensemble}")
    if cfg.sigma_a == 0.0 and cfg.sigma_b == 0.0:
        raise _CliError("moments needs a noise term; sigma_a = sigma_b = 0 leaves u = w")

    picard_cfg = to_picard_config(cfg)
    _, ensemble, first = _solve_ensemble_blocks(
        picard_cfg, cfg.ensemble, cfg.max_iters, threads, thin=(16, 128)
    )
    reports, sups = moment_report(ensemble, p_list=p_list)
    rows = [(s.p, s.sup, s.stderr) for s in sups]

    if cfg.sigma_a == 0.0:
        reports.append(gaussian_ratio_check(picard_cfg, first))

    # the first stored time is the deterministic datum: the curves start after it
    plots = [
        PlotSeries(
            name=f"p{s.p}-sup-moment-over-time",
            x=tuple(float(t) for t in ensemble.t[1:]),
            y=tuple(float(v) for v in s.sup_over_time),
            axes="semilogy",
        )
        for s in sups
    ]
    files = {"moments.csv": csv_text(("p", "sup_moment", "stderr"), rows)}
    return _finish(echo, reports, files, plots=plots)


# ------------------------------------------------------------------ gronwall


def _cmd_gronwall(args):
    settings = _settings(args)
    g_spec, T, n_max, k, mc_samples, seed = (
        settings[key] for key in ("g", "T", "n_max", "k", "mc_samples", "seed")
    )
    if n_max < 2:
        raise _CliError(f"n_max must be at least 2, got {n_max}")
    if mc_samples < 1000:
        raise _CliError(f"mc_samples must be at least 1000, got {mc_samples}")

    problem = GronwallProblem(T=T, g=g_spec, M0=settings["m0"], M1=settings["m1"])
    seq = a_n_sequence(problem, n_max)
    rows = [(n, float(seq[n])) for n in range(seq.size)]

    conv = hitting_probability(g_spec, T, k)
    mc = hitting_probability(g_spec, T, k, method="mc", n_samples=mc_samples, seed=seed)
    se = math.sqrt(max(conv * (1.0 - conv), 0.0) / mc_samples)
    reports = [
        make_check(
            "gronwall-hitting-conv-vs-mc",
            computed=mc,
            reference=conv,
            standard_error=max(se, 1e-300),
            inputs={"g": g_spec, "T": T, "k": k, "mc_samples": mc_samples, "seed": seed},
        )
    ]
    if g_spec == "const" and T == 1.0:
        reports.append(
            make_check(
                "gronwall-hitting-exact-uniform",
                computed=conv,
                reference=1.0 / math.factorial(k),
                tolerance=1e-3 / math.factorial(k),
                inputs={"k": k},
            )
        )

    reports.append(root_summability_check(problem, seq))

    positive = seq > 0.0
    plots = [
        PlotSeries(
            name="a_n",
            x=tuple(float(n) for n in np.nonzero(positive)[0]),
            y=tuple(float(v) for v in seq[positive]),
            axes="semilogy",
            annotation=f"g = {g_spec}",
        )
    ]
    return _finish(settings, reports, {"a_n.csv": csv_text(("n", "a_n"), rows)}, plots=plots)


# -------------------------------------------------------------------- report


def _parse_report_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise _CliError(f"cannot read report file {path}: {err}")
    if not isinstance(entries, list):
        raise _CliError(f"not a report file: {path}")

    def scalar(value):
        return None if value is None else float(value)

    reports = []
    for entry in entries:
        try:
            reports.append(
                VerificationReport(
                    check_name=entry["check_name"],
                    inputs_digest=entry["inputs_digest"],
                    computed=scalar(entry["computed"]),
                    reference=scalar(entry["reference"]),
                    tolerance=scalar(entry["tolerance"]),
                    standard_error=scalar(entry["standard_error"]),
                    passed=bool(entry["pass"]),
                    runtime=float(entry["runtime"]),
                )
            )
        except (KeyError, TypeError, ValueError) as err:
            raise _CliError(f"not a report file: {path} ({err})")
    return reports


def _cmd_report(args):
    reports = _parse_report_file(args.input)
    parent = os.path.dirname(args.output)
    if parent:
        os.makedirs(parent, exist_ok=True)
    emit_report(reports, args.format, args.output)
    _print_reports(reports)
    print(f"rewrote {len(reports)} checks to {args.output}")
    return 0 if all_passed(reports) else 2


# ------------------------------------------------------------------ commands


class _Command(NamedTuple):
    """One row of the command table.

    settings maps each setting key to (kind, default) or (kind, default,
    help); every key but those in file_only gets a flag, --key with
    underscores as dashes and a _grid suffix dropped.  flags are plain
    (flag, add_argument keywords) pairs: no config key, never echoed.
    """

    help: str
    settings: dict
    flags: tuple = ()
    file_only: tuple = ()
    description: str = None


_COMMON = {
    "out": (str, ".", "output directory"),
    "format": (("json", "csv"), None, "report file format (default json)"),
}
# the SimulationConfig fields pass through unchecked: from_mapping checks them
_SIM_SETTINGS = {key: (None, None) for key in _SIM_KEYS if key != "out"}
_SIM_SETTINGS["u0"] = (None, None, "const:<value> or holder-sample")
_THREADS = ("--threads", dict(type=int, help="worker pool bound (default FRACSPDE_THREADS or 1)"))

_COMMANDS = {
    "verify-identities": _Command(
        "seminorm route identities per test function",
        {"hurst_grid": ([float], (0.26, 0.3, 0.35, 0.4, 0.45)), "tol": (float, None), **_COMMON},
    ),
    "verify-kernels": _Command(
        "kernel integral closed forms vs quadrature",
        {
            "equation": (("wave", "heat", "both"), "both"),
            "T": (float, 1.0),
            "alpha_grid": ([float], (0.0, 0.2, 0.4)),
            **_COMMON,
        },
    ),
    "peszat": _Command(
        "spectral smoothing probe monotonicity",
        {
            "hurst_grid": ([float], (0.3, 0.45)),
            "eta_grid": ([float], (1.0, 10.0, 100.0, 1000.0)),
            **_COMMON,
        },
    ),
    "simulate": _Command(
        "variance bias of the noise that picard draws at these settings, "
        "at x = L/4, L/2 and L",
        {**_SIM_SETTINGS, **_COMMON},
        flags=(
            (
                "--save-noise",
                dict(
                    help="write the (n_steps, n_bands) complex band increments here as .npy "
                    "(a relative path is taken inside the output directory)"
                ),
            ),
        ),
        # read so that picard's echo runs simulate; they change none of its outputs
        file_only=("sigma_a", "sigma_b", "u0", "v0", "ensemble", "max_iters", "tol"),
    ),
    "picard": _Command(
        "mild-solution Picard iteration", {**_SIM_SETTINGS, **_COMMON}, flags=(_THREADS,)
    ),
    "holder": _Command(
        "increment exponent fits",
        {
            "target": (("noise", "wave", "heat"), "wave"),
            "hurst": (float, SimulationConfig.hurst),
            "ensemble": (
                int,
                HOLDER_REALIZATIONS,
                f"realizations of the sampler check (default {HOLDER_REALIZATIONS}, "
                f"at least {MIN_HOLDER_REALIZATIONS})",
            ),
            "seed": (int, SimulationConfig.seed),
            **_COMMON,
        },
        description="Fit the Holder exponents of the target on its exact lattice "
        "increment moments plus the spectral window completion: each slope must lie "
        f"within {HOLDER_SLOPE_BAND:g} of its target, whatever the seed.  A Monte Carlo "
        "ensemble of the exact-law sampler checks the sampler: at every lag its moment "
        f"must lie within {HOLDER_Z_MAX:g} standard errors of the exact one.",
    ),
    "moments": _Command(
        "ensemble moment bounds",
        {**_SIM_SETTINGS, "p": ([int], None, "moment orders (default 2 4)"), **_COMMON},
        flags=(_THREADS,),
    ),
    "gronwall": _Command(
        "iterated-bound sequence and hitting probabilities",
        {
            "g": (str, "const", "const, const:<v>, power:<e>, or table:<csv>"),
            "T": (float, 1.0),
            "m0": (float, 1.0),
            "m1": (float, 1.0),
            "n_max": (int, 80),
            "k": (int, 3),
            "mc_samples": (int, 200_000),
            "seed": (int, 0),
            **_COMMON,
        },
    ),
    "report": _Command(
        "re-render a saved report file",
        {},
        flags=(
            ("--input", dict(required=True, help="report JSON written by another command")),
            ("--format", dict(choices=("json", "csv"), default="csv")),
            ("--output", dict(required=True, help="destination file")),
        ),
    ),
}


def _build_parser():
    parser = _Parser(prog="fracspde", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help, description=command.description)
        if command.settings:
            sub.add_argument("--config", help="flat key = value config file")
        for key, (kind, _, *text) in command.settings.items():
            if key not in command.file_only:
                sub.add_argument(
                    "--" + key.removesuffix("_grid").replace("_", "-"),
                    dest=key,
                    nargs="+" if isinstance(kind, list) else None,
                    metavar="{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None,
                    help=text[0] if text else None,
                )
        for flag, keywords in command.flags:
            sub.add_argument(flag, **keywords)
        # the handler is found by name each time the parser is built, so a
        # wrapper bound over the module attribute (perfbench's tracer) runs
        sub.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except PicardDivergenceError as err:
        print(f"FAIL picard-divergence: {err}", file=sys.stderr)
        return 3
    except PicardConvergenceError as err:
        print(f"FAIL picard-convergence: {err}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
