"""Command-line front end: solve, convergence studies, stability probes.

Exit codes: 0 success, 2 configuration error, 3 numerical or resource
failure (out of memory; `solve` also names the stage that ran out: grid,
assemble, solve or write).
Flags override config-file keys; the config file is JSON, and a key that
no command reads is a configuration error.  The default
output directory is taken from the STOKES_FV_OUT environment variable.
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

_SCHEMES = assembly.SCHEME_KINDS
# Every top-level key a config file may hold; "solver" holds only "tol".
_CONFIG_KEYS = {
    "scheme", "lam", "lambda", "case", "n", "grid", "out", "tol", "quad", "what", "space",
    "solver",
}


def _number(value, key: str, kind=float):
    """`value` as `kind` (int or float), or a ConfigError naming `key`."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, not {value!r}") from err


def _parse_n_list(text) -> list[int]:
    if text is None:
        raise ConfigError("missing refinement list (--n)")
    if isinstance(text, (list, tuple)):
        values = [_number(v, "n", int) for v in text]
    else:
        parts = [p for p in str(text).split(",") if p.strip()]
        values = [_number(p, "n", int) for p in parts]
    if not values:
        raise ConfigError("empty refinement list")
    return values


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    solver = cfg.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError(f"{path}: config key 'solver' must hold a JSON object")
    unknown = [key for key in cfg if key not in _CONFIG_KEYS]
    unknown += [f"solver.{key}" for key in solver if key != "tol"]
    if unknown:
        raise ConfigError(f"{path}: unknown config key {unknown[0]!r}")
    return cfg


def _setting(args, cfg, key, default=None):
    val = getattr(args, key.replace(".", "_").replace("-", "_"), None)
    if val is not None:
        return val
    cur = cfg
    for part in key.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return default
        cur = cur[part]
    return cur


def _out_dir(args, cfg) -> Path:
    out = _setting(args, cfg, "out") or os.environ.get("STOKES_FV_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_grid(args, cfg):
    grid_text = _setting(args, cfg, "grid")
    n = _setting(args, cfg, "n")
    if grid_text:
        return parse_grid_config(str(grid_text))
    if n is None:
        raise ConfigError("need --grid or --n")
    if isinstance(n, str) and "," in n:
        raise ConfigError("solve takes a single n; use convergence for sweeps")
    return build_uniform(_number(n, "n", int))


def _scheme_settings(args, cfg):
    """The scheme kind, lambda (or None), forcing quadrature order and
    solver tolerance that flags and config file ask for."""
    kind = _setting(args, cfg, "scheme")
    if kind is None:
        raise ConfigError("missing scheme (--scheme)")
    if kind not in _SCHEMES:
        raise ConfigError(f"unknown scheme {kind!r}; choose from {_SCHEMES}")
    lam = _setting(args, cfg, "lam", _setting(args, cfg, "lambda"))
    lam = None if lam is None else _number(lam, "lambda")
    quad = _number(_setting(args, cfg, "quad", 3), "quad", int)
    tol = _number(_setting(args, cfg, "tol", _setting(args, cfg, "solver.tol", 1e-10)), "tol")
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be finite and positive, not {tol!r}")
    return kind, lam, quad, tol


def _get_case(args, cfg):
    case_id = _setting(args, cfg, "case", "ms1")
    if case_id not in CASES:
        raise ConfigError(f"unknown case {case_id!r}; choose from {sorted(CASES)}")
    return CASES[case_id]


def cmd_solve(args) -> int:
    # `main` names the stage in an out-of-memory report
    args.stage = "grid"
    cfg = _load_config(args.config)
    grid = _build_grid(args, cfg)
    kind, lam, quad, tol = _scheme_settings(args, cfg)
    spec = verify._scheme_for(kind, lam, grid)
    case = _get_case(args, cfg)
    out = _out_dir(args, cfg)

    args.stage = "assemble"
    f_cells = cell_means(case.forcing, grid, quad)
    system = assemble(spec, grid, f_cells)
    args.stage = "solve"
    report = solve(system, tol=tol)

    args.stage = "write"
    if args.dump_system:
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
    cfg = _load_config(args.config)
    n_list = _parse_n_list(_setting(args, cfg, "n"))
    kind, lam, quad, tol = _scheme_settings(args, cfg)
    case = _get_case(args, cfg)
    out = _out_dir(args, cfg)

    # run_convergence builds each level's partition
    table = verify.run_convergence(SchemeSpec(kind, lam), case, n_list, quad_order=quad, tol=tol)
    table.to_csv(out / "convergence.csv")
    for row in table.rows:
        print(
            f"n={row.n:4d} err_u={row.err_u_h1:.6e} err_p={row.err_p_l2:.6e}"
            + (f" order_u={row.order_u:.3f} order_p={row.order_p:.3f}" if row.order_u else "")
        )
    return 0


def cmd_probe(args) -> int:
    cfg = _load_config(args.config)
    what = _setting(args, cfg, "what")
    out = _out_dir(args, cfg)

    if what == "checkerboard":
        n_list = _parse_n_list(_setting(args, cfg, "n"))
        rows, exponent = verify.checkerboard_sweep(n_list)
        verify.write_checkerboard_csv(rows, exponent, out / "probe_checkerboard.csv")
        print(f"fitted decay exponent: {exponent:.4f}")
        return 0

    if what == "infsup":
        n_list = _parse_n_list(_setting(args, cfg, "n"))
        space = _setting(args, cfg, "space", "cluster")
        if space not in ("full", "cluster"):
            raise ConfigError("--space must be 'full' or 'cluster'")
        rows = []
        for n in n_list:
            grid = build_uniform(n)
            if space == "cluster":
                spec = SchemeSpec("cluster-constant", None, make_clusters(grid))
            else:
                spec = SchemeSpec("natural")
            system = assemble(spec, grid, lambda x, y: (0.0 * x, 0.0 * y), quad_order=1)
            beta_sq = schur_smallest_eigen(system)
            beta = math.sqrt(beta_sq) if beta_sq is not None else float("nan")
            rows.append({"space": space, "n": n, "h": 1.0 / n, "beta_h": beta})
            print(f"n={n:4d} beta_h={beta:.6f}")
        verify.write_infsup_csv(rows, out / "probe_infsup.csv")
        return 0

    if what == "consistency":
        grid_text = _setting(args, cfg, "grid")
        if grid_text is None:
            raise ConfigError("consistency probe needs --grid")
        grid = parse_grid_config(str(grid_text))
        report = verify.consistency_check(grid)
        verify.write_consistency_csv(str(grid_text), report, out / "probe_consistency.csv")
        print(
            f"max interior defect {report.max_interior_defect:.3e}, "
            f"boundary defect {report.max_boundary_defect:.3e}"
        )
        return 0

    if what == "regularity":
        n_list = _parse_n_list(_setting(args, cfg, "n"))
        rows = []
        for n in n_list:
            grid = build_uniform(n)
            value = cluster_regularity(grid, make_clusters(grid))
            rows.append((f"uniform n={n}", value))
            print(f"n={n:4d} criterion={value:.6f}")
        verify.write_regularity_csv(rows, out / "probe_regularity.csv")
        return 0

    raise ConfigError(f"unknown probe {what!r}")


def _add_common(parser) -> None:
    parser.add_argument("--config", help="JSON config file; flags take precedence")
    parser.add_argument("--grid", help="'uniform n=<int>' or JSON {'x':[...],'y':[...]}")
    parser.add_argument("--n", help="cells per side, or comma list for sweeps")
    parser.add_argument("--out", help="output directory (default $STOKES_FV_OUT or .)")
    parser.add_argument("--tol", type=float, help="solver relative residual tolerance")
    parser.add_argument("--quad", type=int, help="Gauss points per direction for forcing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-fv",
        description="Collocated finite-volume schemes for the 2D Stokes problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="assemble and solve one configuration")
    _add_common(p_solve)
    p_solve.add_argument("--scheme", choices=_SCHEMES)
    p_solve.add_argument("--lambda", dest="lam", type=float, help="stabilization strength")
    p_solve.add_argument("--case", choices=sorted(CASES))
    p_solve.add_argument("--dump-system", action="store_true", help="export MatrixMarket + rhs")
    p_solve.set_defaults(fn=cmd_solve)

    p_conv = sub.add_parser("convergence", help="refinement study with observed orders")
    _add_common(p_conv)
    p_conv.add_argument("--scheme", choices=_SCHEMES)
    p_conv.add_argument("--lambda", dest="lam", type=float)
    p_conv.add_argument("--case", choices=sorted(CASES))
    p_conv.set_defaults(fn=cmd_convergence)

    p_probe = sub.add_parser("probe", help="stability and consistency diagnostics")
    _add_common(p_probe)
    p_probe.add_argument(
        "--what", choices=("checkerboard", "infsup", "consistency", "regularity")
    )
    p_probe.add_argument("--space", choices=("full", "cluster"))
    p_probe.set_defaults(fn=cmd_probe)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, GridError, ClusterError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (SolverError, StokesFVError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        stage = getattr(args, "stage", None)
        where = args.command + (f" ({stage})" if stage else "")
        print(f"resource failure: out of memory in {where}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
