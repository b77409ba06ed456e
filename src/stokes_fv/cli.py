"""Command-line front end: solve, convergence studies, stability probes.

Each command takes only the flags it reads (`_COMMANDS`).  A grid is uniform
(`--n`) or the JSON object `--grid '{"x": [...], "y": [...]}'` of its
coordinate lines, never both.  A JSON `--config` file is keyed by long flag
names and may hold the keys of every command; its values fill the flags left
off the command line and pass the same checks.  A key that no command reads
is a configuration error.  The default output directory is $STOKES_FV_OUT.
Exit codes: 0 success, 2 configuration error, 3 numerical or resource failure
(out of memory; `solve` also names the stage that ran out: grid, assemble,
solve or write).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import assembly, verify
from .assembly import SchemeSpec, assemble, cell_means, energy_functional
from .errors import ClusterError, ConfigError, GridError, SolverError, StokesFVError
from .fields import write_scalar_csv, write_table, write_vector_csv
from .grid import build_uniform, cluster_regularity, make_clusters, parse_grid_config
from .solver import schur_smallest_eigen, solve
from .verify import CASES

_CASES = sorted(CASES)
_PROBES = ("checkerboard", "infsup", "consistency", "regularity")
_SPACES = ("cluster", "full")
_DEFAULTS = {"case": "ms1", "quad": 3, "tol": 1e-10, "space": "cluster"}


def _number(value, key: str, kind=float):
    """`value`, a flag's text or a JSON number, as `kind` (int or float).
    A boolean is rejected, and so is a fraction where an int is asked for."""
    try:
        number = kind(value)
        if isinstance(value, bool) or (kind is int and number != float(value)):
            raise ValueError
    except (TypeError, ValueError, OverflowError) as err:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, not {value!r}") from err
    return number


def _choice(args, key: str, choices):
    """The setting `key`, which must be one of `choices`."""
    if args[key] not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}, not {args[key]!r}")
    return args[key]


def _n_list(args) -> list[int]:
    """The refinement list of --n: comma-separated text or a JSON list."""
    n = "" if args["n"] is None else args["n"]
    parts = n if isinstance(n, list) else [p for p in str(n).split(",") if p.strip()]
    if not parts:
        raise ConfigError("missing or empty refinement list (--n)")
    return [_number(p, "n", int) for p in parts]


def _merge_config(args) -> None:
    """Fill each setting left off the command line from --config, else `_DEFAULTS`."""
    cfg, path = {}, args["config"]
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
        if not isinstance(cfg, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = [key for key in cfg if key not in _CONFIG_KEYS]
        if unknown:
            raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    for key, value in args.items():
        if value is None:
            args[key] = cfg.get(key, _DEFAULTS.get(key))


def _out_dir(args) -> Path:
    path = Path(str(args["out"] or os.environ.get("STOKES_FV_OUT") or "."))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create output directory {str(path)!r}: {err.strerror}") from err
    return path


def _build_grid(args):
    """The uniform grid of --n or the grid of the --grid coordinate lines."""
    if (args["grid"] is None) == (args["n"] is None):
        raise ConfigError("give one of --grid and --n")
    if args["grid"] is not None:
        return parse_grid_config(str(args["grid"]))
    return build_uniform(_number(args["n"], "n", int))


def _scheme_settings(args):
    """The scheme, the case, the forcing quadrature order and the solver tolerance."""
    kind = _choice(args, "scheme", assembly.SCHEME_KINDS)
    case = CASES[_choice(args, "case", _CASES)]
    lam = None if args["lambda"] is None else _number(args["lambda"], "lambda")
    quad = _number(args["quad"], "quad", int)
    tol = _number(args["tol"], "tol")
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, not {tol!r}")
    return SchemeSpec(kind, lam), case, quad, tol


def cmd_solve(args) -> int:
    """Assemble and solve one configuration."""
    # `main` names the stage in an out-of-memory report
    args["stage"] = "grid"
    grid = _build_grid(args)
    spec, case, quad, tol = _scheme_settings(args)

    args["stage"] = "assemble"
    f_cells = cell_means(case.forcing, grid, quad)
    # an odd grid fails here, for the cluster schemes, before any output
    system = assemble(spec, grid, f_cells)
    out = _out_dir(args)
    args["stage"] = "solve"
    report = solve(system, tol=tol)

    args["stage"] = "write"
    if args["dump-system"]:
        assembly.export_system(system, out / "system.mtx", out / "rhs.csv")

    summary = [
        ("scheme", spec.kind),
        ("lambda", "" if spec.lam is None else spec.lam),
        ("case", case.id),
        ("nx", grid.nx),
        ("ny", grid.ny),
        ("h", grid.h if grid.is_uniform else ""),
        ("residual_norm", report.residual_norm),
        ("multiplier", report.multiplier),
        ("singular", report.singular),
        ("singular_reason", report.singular_reason or ""),
        ("rcond_est", "" if report.rcond_est is None else report.rcond_est),
    ]
    if report.u is not None:
        energy_u, energy_stab = energy_functional(system, report.u, report.p)
        summary += [("energy_velocity_sq", energy_u), ("energy_stab_sq", energy_stab)]
        write_vector_csv(report.u, out / "u.csv")
        write_scalar_csv(report.p, out / "p.csv")
    stat_keys = (
        "factor_nnz", "fill_factor", "factor_s", "rcond_s", "offdiag_pivots", "order_s",
        "peak_rss_mb", "peak_rss_before_mb",
    )
    summary += [(key, report.stats.get(key, "")) for key in stat_keys]
    write_table(out / "summary.csv", ["key", "value"], summary)

    if report.singular:
        print(f"singular system: {report.singular_reason}", file=sys.stderr)
        return 3
    return 0


def cmd_convergence(args) -> int:
    """Run a refinement study with observed orders."""
    n_list = _n_list(args)
    spec, case, quad, tol = _scheme_settings(args)

    table = verify.run_convergence(spec, case, n_list, quad_order=quad, tol=tol)
    verify.write_convergence_csv(table, _out_dir(args) / "convergence.csv")
    for row in table.rows:
        print(
            f"n={row.n:4d} err_u={row.err_u_h1:.6e} err_p={row.err_p_l2:.6e}"
            + (f" order_u={row.order_u:.3f} order_p={row.order_p:.3f}" if row.order_u else "")
        )
    return 0


def cmd_probe(args) -> int:
    """Run a stability or consistency diagnostic."""
    what = _choice(args, "what", _PROBES)

    if what == "consistency":
        grid = _build_grid(args)
        label = f"uniform n={grid.nx}" if args["grid"] is None else str(args["grid"])
        report = verify.consistency_check(grid)
        verify.write_consistency_csv(label, report, _out_dir(args) / "probe_consistency.csv")
        print(
            f"max interior defect {report.max_interior_defect:.3e}, "
            f"boundary defect {report.max_boundary_defect:.3e}"
        )
        return 0

    n_list = _n_list(args)
    if what == "checkerboard":
        rows, exponent = verify.checkerboard_sweep(n_list)
        verify.write_checkerboard_csv(rows, exponent, _out_dir(args) / "probe_checkerboard.csv")
        print(f"fitted decay exponent: {exponent:.4f}")
        return 0

    if what == "infsup":
        space = _choice(args, "space", _SPACES)
        rows = []
        for n in n_list:
            spec = SchemeSpec("cluster-constant" if space == "cluster" else "natural")
            system = assemble(spec, build_uniform(n), lambda x, y: (0.0 * x, 0.0 * y), quad_order=1)
            beta_sq = schur_smallest_eigen(system)
            beta = math.sqrt(beta_sq) if beta_sq is not None else float("nan")
            rows.append({"space": space, "n": n, "h": 1.0 / n, "beta_h": beta})
            print(f"n={n:4d} beta_h={beta:.6f}")
        verify.write_infsup_csv(rows, _out_dir(args) / "probe_infsup.csv")
        return 0

    rows = []
    for n in n_list:
        grid = build_uniform(n)
        value = cluster_regularity(grid, make_clusters(grid))
        rows.append((f"uniform n={n}", value))
        print(f"n={n:4d} criterion={value:.6f}")
    verify.write_regularity_csv(rows, _out_dir(args) / "probe_regularity.csv")
    return 0


_HELP = {
    "config": "JSON config file keyed by long flag names; flags take precedence",
    "grid": 'coordinate lines as JSON {"x": [...], "y": [...]}',
    "n": "cells per side of a uniform grid, or a comma list for sweeps",
    "scheme": "one of " + ", ".join(assembly.SCHEME_KINDS),
    "lambda": "stabilization strength of bp and cluster",
    "case": "manufactured solution, one of " + ", ".join(_CASES) + " (default ms1)",
    "quad": "Gauss points per direction for the forcing, 1 to 3 (default 3)",
    "tol": "solver relative residual tolerance (default 1e-10)",
    "out": "output directory (default $STOKES_FV_OUT or .)",
    "dump-system": "export the matrix (MatrixMarket) and right-hand side",
    "what": "one of " + ", ".join(_PROBES),
    "space": "infsup pressure space, one of " + ", ".join(_SPACES) + " (default cluster)",
}
# Each command and its flags.  A flag is stored under its long name, which is
# also its config key (but for --config and --dump-system).
_COMMANDS = {
    "solve": (cmd_solve, "config grid n scheme lambda case quad tol out dump-system"),
    "convergence": (cmd_convergence, "config n scheme lambda case quad tol out"),
    "probe": (cmd_probe, "config what n grid space out"),
}
_CONFIG_KEYS = set(_HELP) - {"config", "dump-system"}


def build_parser() -> argparse.ArgumentParser:
    description = "Collocated finite-volume schemes for the 2D Stokes problem"
    parser = argparse.ArgumentParser(prog="stokes-fv", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, flags) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=fn.__doc__)
        for name in flags.split():
            action = "store_true" if name == "dump-system" else "store"
            p_command.add_argument(f"--{name}", dest=name, action=action, help=_HELP[name])
        p_command.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    try:
        _merge_config(args)
        return args["fn"](args)
    except (ConfigError, GridError, ClusterError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (SolverError, StokesFVError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        where = args["command"] + (f" ({args['stage']})" if "stage" in args else "")
        print(f"resource failure: out of memory in {where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
