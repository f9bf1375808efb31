"""Command-line front end: verification suites, the lattice noise audit, solver runs.

A command parses its flags, resolves its settings, calls the library and
writes the artifacts.  Every check of a proof object is built in the
library, in the module that owns its mathematics: the kernel suite
(kernels.kernel_checks), the seminorm identities, the moment sups and the
Gaussian ratio, and the Gronwall summability verdict.  A command builds a
check itself only for a run-level tolerance that no library function owns:
the noise audit's bias allowance, picard's run status, holder's slope band,
peszat's monotone count and gronwall's Monte Carlo agreement.

Exit codes: 0 when every check passed (or the run completed, for commands
without checks), 2 when at least one check failed, 1 on usage or
configuration errors, 3 when a Picard iteration diverges (a delta that is
not finite).  Every command reads an optional flat key = value
config file, applies flag overrides on top, writes its artifacts into the
output directory, and echoes the effective configuration beside them as
effective-config.txt; rerunning a command on its own echo reproduces the
outputs byte for byte.  picard --ensemble and moments split their
realizations over a worker pool bounded by --threads (default from
FRACSPDE_THREADS, else 1); results do not depend on the pool size.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace

import numpy as np

from .config import (
    SimulationConfig,
    from_mapping,
    parse_config_file,
    serialize_mapping,
    to_picard_config,
)
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
    FieldSampleCollector,
    FirstIncrementCollector,
    IncrementCollector,
    gaussian_ratio_check,
    geometric_time_lags,
    holder_exponent_space,
    holder_exponent_time,
    moment_report,
    sample_additive_solution,
    sample_noise_antiderivative,
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
_H_GRID = (0.26, 0.3, 0.35, 0.4, 0.45)
_GRID = "grid"
_KIND_NAMES = {float: "a number", int: "an integer", str: "a string"}
# the SimulationConfig keys pass through unchecked: from_mapping checks them
_SIM_OPTIONS = {key: (None, None) for key in SimulationConfig.__dataclass_fields__}


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
    if isinstance(kind, tuple):
        if value not in kind:
            raise _CliError(f"{key} must be {', '.join(kind[:-1])}, or {kind[-1]}, got {value!r}")
        return value
    if kind == _GRID:
        if isinstance(value, list):
            grid = tuple(value)
        else:
            try:
                # str() of a float round-trips; a bool's "True" is no number
                grid = tuple(float(tok) for tok in str(value).split(","))
            except ValueError:
                raise _CliError(f"{key} must be a comma-separated list of numbers, got {value!r}")
        if not all(map(math.isfinite, grid)):
            raise _CliError(f"{key} must list finite numbers, got {value!r}")
        return grid
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


def _settings(args, options):
    """Resolve a command's settings: default < config file < set flag.

    options maps each setting key, which is also its flag's dest, to
    (kind, default); a config key outside options is an error.  A value
    from the file or a flag must be of its key's kind: float takes an int
    or a float (never a bool) and yields a finite float; int takes an int
    and str a string, neither a bool; _GRID takes a repeatable flag, one
    number or a comma-separated string of numbers and yields a tuple of
    finite floats; a tuple kind lists the allowed values; None passes the
    value through for from_mapping to check.  Any other value exits with
    code 1.
    """
    mapping = parse_config_file(args.config) if args.config else {}
    unknown = [key for key in mapping if key not in options]
    if unknown:
        raise _CliError(f"unknown config key {unknown[0]!r} for this command")
    settings = {}
    for key, (kind, default) in options.items():
        value = getattr(args, key, None)
        if value is None:
            value = mapping.get(key)
        settings[key] = default if value is None else _checked(key, kind, value)
    return settings


def _sim_config(args):
    """The validated run record of a SimulationConfig command."""
    settings = _settings(args, _SIM_OPTIONS)
    return from_mapping({key: value for key, value in settings.items() if value is not None})


def _grid_text(values):
    return ",".join(format_float(v) for v in values)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_number(value):
    value = float(value)
    return value if math.isfinite(value) else format_float(value)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _echo(settings):
    """Create the output directory settings["out"] and write the settings
    into it as effective-config.txt, grids comma-joined and unset (None)
    settings left out.  Returns the output directory."""
    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    echo = {k: _grid_text(v) if isinstance(v, tuple) else v for k, v in settings.items()}
    _write_text(os.path.join(out_dir, "effective-config.txt"), serialize_mapping(echo))
    return out_dir


def _print_reports(reports):
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(
            f"{status} {rep.check_name}: computed {format_float(rep.computed)} "
            f"reference {format_float(rep.reference)}"
        )


def _finish(reports, out_dir, fmt, plots=None):
    """Emit the report file, print per-check lines, and map to an exit code."""
    path = os.path.join(out_dir, f"report.{'csv' if fmt == 'csv' else 'json'}")
    emit_report(reports, fmt, path)
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
    settings = _settings(
        args, {"hurst_grid": (_GRID, _H_GRID), "tol": (float, None), "out": (str, ".")}
    )
    out_dir = _echo(settings)

    rows = [
        row
        for g in (gaussian_bump(), tent(), indicator())
        for row in identity_check(g, settings["hurst_grid"], tol=settings["tol"])
    ]
    if args.format == "csv":
        cells = [
            (row.name, row.h, row.fourier, row.sobolev, row.rel_err, row.report.passed)
            for row in rows
        ]
        _write_text(
            os.path.join(out_dir, "identities.csv"),
            csv_text(("g", "h", "lhs", "rhs", "rel_err", "pass"), cells),
        )
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
        _write_json(os.path.join(out_dir, "identities.json"), records)
    return _finish([row.report for row in rows], out_dir, args.format)


# ------------------------------------------------------------------- kernels


def _cmd_verify_kernels(args):
    settings = _settings(
        args,
        {
            "equation": (("wave", "heat", "both"), "both"),
            "T": (float, 1.0),
            "alpha_grid": (_GRID, (0.0, 0.2, 0.4)),
            "out": (str, "."),
        },
    )
    equation, T, alphas = settings["equation"], settings["T"], settings["alpha_grid"]
    if not T > 0.0:
        raise _CliError(f"T must be positive, got {T!r}")
    for alpha in alphas:
        if not -1.0 < alpha < 1.0:
            raise _CliError(f"alpha must lie in (-1, 1), got {alpha!r}")
    out_dir = _echo(settings)
    equations = EQUATIONS if equation == "both" else (equation,)
    reports = [rep for eq in equations for rep in kernel_checks(eq, T, alphas)]
    return _finish(reports, out_dir, args.format)


# -------------------------------------------------------------------- peszat


def _cmd_peszat(args):
    settings = _settings(
        args,
        {
            "hurst_grid": (_GRID, (0.3, 0.45)),
            "eta_grid": (_GRID, (1.0, 10.0, 100.0, 1000.0)),
            "out": (str, "."),
        },
    )
    etas = settings["eta_grid"]
    if len(etas) < 2:
        raise _CliError("eta grid needs at least two points to test monotonicity")
    out_dir = _echo(settings)

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
    _write_text(os.path.join(out_dir, "probes.csv"), csv_text(("h", "eta", "value"), rows))
    return _finish(reports, out_dir, args.format)


# ------------------------------------------------------------------ simulate


def _cmd_simulate(args):
    cfg = _sim_config(args)
    out_dir = _echo(asdict(cfg))
    # the lattice and noise bands that picard builds at the same settings
    geom = build_geometry(to_picard_config(cfg))
    if args.save_noise:
        path = args.save_noise
        if not os.path.isabs(path):
            path = os.path.join(out_dir, path)
        # the stream of realization 0, which noise_slabs draws for picard
        z = spectral_increments(geom.band_masses, geom.dt, geom.n_steps, keyed_rng(cfg.seed, 0))
        # a file handle keeps np.save from appending .npy to the path
        with open(path, "wb") as fh:
            np.save(fh, z)
        print(f"wrote noise increments {path}")

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
    return _finish(reports, out_dir, args.format)


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


def _picard_single(cfg, out_dir, fmt):
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
    _write_text(os.path.join(out_dir, "field.csv"), csv_text(("t", "x", "value"), rows))

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
    _write_json(os.path.join(out_dir, "diagnostics.json"), diagnostics)

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
    return _finish(reports, out_dir, fmt, plots=plots)


def _picard_ensemble(cfg, out_dir, fmt, threads):
    picard_cfg = to_picard_config(cfg)
    deltas, _, _ = _solve_ensemble_blocks(picard_cfg, cfg.ensemble, cfg.max_iters, threads)
    mean = deltas.mean(axis=0)
    peak = deltas.max(axis=0)
    rows = [(n + 1, float(mean[n]), float(peak[n])) for n in range(mean.size)]
    _write_text(
        os.path.join(out_dir, "deltas.csv"),
        csv_text(("iteration", "mean_delta", "max_delta"), rows),
    )
    diagnostics = {
        "equation": cfg.equation,
        "hurst": cfg.hurst,
        "ensemble": cfg.ensemble,
        "n_iters": int(deltas.shape[1]),
        "mean_deltas": [_json_number(v) for v in mean],
        "max_deltas": [_json_number(v) for v in peak],
        "seed": cfg.seed,
    }
    _write_json(os.path.join(out_dir, "diagnostics.json"), diagnostics)

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
    return _finish(reports, out_dir, fmt, plots=plots)


def _cmd_picard(args):
    threads = _resolve_threads(args.threads)
    cfg = _sim_config(args)
    out_dir = _echo(asdict(cfg))
    if cfg.ensemble == 1:
        return _picard_single(cfg, out_dir, args.format)
    return _picard_ensemble(cfg, out_dir, args.format, threads)


# -------------------------------------------------------------------- holder


def _holder_fits(target, h, n_realizations, seed):
    """Sample the target field and fit its increment exponents.

    Geometry is fixed per target; the lag windows were chosen so the
    lattice, completion, and horizon constraints all hold with margin.
    One sampling pass feeds every fit of the target.
    """
    if target == "noise":
        increments = IncrementCollector(space_lags=2.0 ** -np.arange(3, 8))
        sample_noise_antiderivative(
            h, 0.5, 1.0 / 512, 2.0, n_realizations, seed=seed, collectors=(increments,)
        )
        return [("space", holder_exponent_space(increments), 2.0 * h)]
    lags_s = np.array([25, 17, 12, 8, 5, 3]) / 1024.0
    if target == "wave":
        T, anchor, time_target = 0.5, 0.25, 2.0 * h
        lags_t = np.array([24, 16, 11, 8, 5, 3]) / 1024.0
        times = np.concatenate([[anchor], anchor + np.sort(lags_t), [T]])
    else:
        T, anchor, time_target = 0.25, 0.125, h
        lags_t = geometric_time_lags(anchor, T, largest=1.0 / 64, n_lags=6, ratio=1.6)
        times = np.concatenate([[anchor], anchor + np.sort(lags_t)])
    increments = IncrementCollector(space_lags=lags_s, time_lags=lags_t)
    sample_additive_solution(
        target, h, T, 1.0 / 1024, 1.0, times, n_realizations, seed=seed,
        collectors=(increments,),
    )
    return [
        ("space", holder_exponent_space(increments), 2.0 * h),
        ("time", holder_exponent_time(increments), time_target),
    ]


def _cmd_holder(args):
    settings = _settings(
        args,
        {
            "target": (("noise", "wave", "heat"), "wave"),
            "hurst": (float, SimulationConfig.hurst),
            "ensemble": (int, None),
            "seed": (int, SimulationConfig.seed),
            "out": (str, SimulationConfig.out),
        },
    )
    target, hurst, ensemble, seed, _ = settings.values()
    if ensemble is None:
        ensemble = settings["ensemble"] = 10000 if target == "noise" else 1000
    # the run record checks the ranges of the Hurst index, ensemble and seed
    from_mapping({key: value for key, value in settings.items() if key != "target"})
    out_dir = _echo(settings)

    fits = _holder_fits(target, hurst, ensemble, seed)

    reports = []
    plots = []
    summary = {}
    for axis, fit, fit_target in fits:
        rows = [
            (float(l), float(m), float(s))
            for l, m, s in zip(fit.lags, fit.moments, fit.stderrs)
        ]
        _write_text(
            os.path.join(out_dir, f"holder-{target}-{axis}.csv"),
            csv_text(("lag", "moment", "stderr"), rows),
        )
        summary[axis] = {
            "label": fit.label,
            "fitted_slope": _json_number(fit.fitted_slope),
            "stderr": _json_number(fit.stderr),
            "r_squared": _json_number(fit.r_squared),
            "status": fit.status,
            "target_slope": _json_number(fit_target),
            "holder_exponent": _json_number(fit.fitted_slope / 2.0),
        }
        # slope tolerance 0.1 = 0.05 on the exponent itself (slope is the
        # p = 2 moment rate, twice the exponent)
        reports.append(
            make_check(
                f"holder-{target}-{axis}-slope",
                computed=fit.fitted_slope,
                reference=fit_target,
                tolerance=0.1,
                inputs={"target": target, "h": hurst, "axis": axis, "seed": seed},
            )
        )
        plots.append(
            PlotSeries(
                name=fit.label,
                x=tuple(float(v) for v in fit.lags),
                y=tuple(float(v) for v in fit.moments),
                axes="loglog",
                slope=fit.fitted_slope,
                intercept=_log10_intercept(fit),
                annotation=f"target {format_float(fit_target)}",
            )
        )
    _write_json(os.path.join(out_dir, "holder.json"), summary)
    return _finish(reports, out_dir, args.format, plots=plots)


# ------------------------------------------------------------------- moments


def _cmd_moments(args):
    threads = _resolve_threads(args.threads)
    cfg = _sim_config(args)
    out_dir = _echo(asdict(cfg))
    p_list = tuple(args.p) if args.p else (2, 4)
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
    _write_text(
        os.path.join(out_dir, "moments.csv"),
        csv_text(("p", "sup_moment", "stderr"), [(s.p, s.sup, s.stderr) for s in sups]),
    )

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
    return _finish(reports, out_dir, args.format, plots=plots)


# ------------------------------------------------------------------ gronwall


def _cmd_gronwall(args):
    settings = _settings(
        args,
        {
            "g": (str, "const"),
            "T": (float, 1.0),
            "m0": (float, 1.0),
            "m1": (float, 1.0),
            "n_max": (int, 80),
            "k": (int, 3),
            "mc_samples": (int, 200_000),
            "seed": (int, 0),
            "out": (str, "."),
        },
    )
    g_spec, T, m0, m1, n_max, k, mc_samples, seed, _ = settings.values()
    if n_max < 2:
        raise _CliError(f"n_max must be at least 2, got {n_max}")
    if mc_samples < 1000:
        raise _CliError(f"mc_samples must be at least 1000, got {mc_samples}")
    out_dir = _echo(settings)

    problem = GronwallProblem(T=T, g=g_spec, M0=m0, M1=m1)
    seq = a_n_sequence(problem, n_max)
    rows = [(n, float(seq[n])) for n in range(seq.size)]
    _write_text(os.path.join(out_dir, "a_n.csv"), csv_text(("n", "a_n"), rows))

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
    return _finish(reports, out_dir, args.format, plots=plots)


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


# -------------------------------------------------------------------- parser


def _add_common(sub):
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report file format"
    )


def _add_threads(sub):
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker pool bound (default FRACSPDE_THREADS or 1)",
    )


_SIM_FLAG_SPECS = {
    "equation": dict(choices=("wave", "heat")),
    "hurst": dict(type=float),
    "T": dict(type=float),
    "dt": dict(type=float),
    "dx": dict(type=float),
    "L": dict(type=float),
    "sigma_a": dict(type=float),
    "sigma_b": dict(type=float),
    "u0": dict(help="const:<value> or holder-sample"),
    "v0": dict(type=float),
    "seed": dict(type=int),
    "ensemble": dict(type=int),
    "max_iters": dict(type=int),
    "tol": dict(type=float),
}


def _add_sim_flags(sub, keys):
    for key in keys:
        sub.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, **_SIM_FLAG_SPECS[key])


def _build_parser():
    parser = _Parser(prog="fracspde", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser(
        "verify-identities", help="seminorm route identities per test function"
    )
    sub.add_argument("--hurst", dest="hurst_grid", type=float, nargs="+", default=None)
    sub.add_argument("--tol", type=float, default=None)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify_identities)

    sub = subs.add_parser("verify-kernels", help="kernel integral closed forms vs quadrature")
    sub.add_argument("--equation", choices=("wave", "heat", "both"), default=None)
    sub.add_argument("--T", dest="T", type=float, default=None)
    sub.add_argument("--alpha", dest="alpha_grid", type=float, nargs="+", default=None)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify_kernels)

    sub = subs.add_parser("peszat", help="spectral smoothing probe monotonicity")
    sub.add_argument("--hurst", dest="hurst_grid", type=float, nargs="+", default=None)
    sub.add_argument("--eta", dest="eta_grid", type=float, nargs="+", default=None)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_peszat)

    sub = subs.add_parser(
        "simulate",
        help="variance bias of the noise that picard draws at these settings, "
        "at x = L/4, L/2 and L",
    )
    _add_sim_flags(sub, ("equation", "hurst", "T", "dt", "dx", "L", "seed"))
    sub.add_argument(
        "--save-noise",
        dest="save_noise",
        default=None,
        help="write the (n_steps, n_bands) complex band increments here as .npy "
        "(a relative path is taken inside the output directory)",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_simulate)

    sub = subs.add_parser("picard", help="mild-solution Picard iteration")
    _add_sim_flags(sub, _SIM_FLAG_SPECS)
    _add_common(sub)
    _add_threads(sub)
    sub.set_defaults(handler=_cmd_picard)

    sub = subs.add_parser("holder", help="increment exponent fits")
    sub.add_argument("--target", choices=("noise", "wave", "heat"), default=None)
    _add_sim_flags(sub, ("hurst", "seed", "ensemble"))
    _add_common(sub)
    sub.set_defaults(handler=_cmd_holder)

    sub = subs.add_parser("moments", help="ensemble moment bounds")
    _add_sim_flags(sub, _SIM_FLAG_SPECS)
    sub.add_argument("--p", type=int, nargs="+", default=None)
    _add_common(sub)
    _add_threads(sub)
    sub.set_defaults(handler=_cmd_moments)

    sub = subs.add_parser(
        "gronwall", help="iterated-bound sequence and hitting probabilities"
    )
    sub.add_argument("--g", default=None, help="const, const:<v>, power:<e>, or table:<csv>")
    sub.add_argument("--T", dest="T", type=float, default=None)
    sub.add_argument("--m0", type=float, default=None)
    sub.add_argument("--m1", type=float, default=None)
    sub.add_argument("--n-max", dest="n_max", type=int, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--mc-samples", dest="mc_samples", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_gronwall)

    sub = subs.add_parser("report", help="re-render a saved report file")
    sub.add_argument("--input", required=True, help="report JSON written by another command")
    sub.add_argument("--format", choices=("json", "csv"), default="csv")
    sub.add_argument("--output", required=True, help="destination file")
    sub.set_defaults(handler=_cmd_report)

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
