import csv
import json

import numpy as np
import pytest

from stokes_fv.assembly import load_system
from stokes_fv.cli import main
from stokes_fv.grid import build_uniform
from stokes_fv.verify import CASES, run_convergence, write_convergence_csv
from stokes_fv import SchemeSpec


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_writes_artifacts(tmp_path):
    code = main(
        [
            "solve",
            "--scheme",
            "bp",
            "--lambda",
            "0.05",
            "--n",
            "8",
            "--case",
            "ms1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "u.csv").exists()
    assert (tmp_path / "p.csv").exists()
    rows = read_csv(tmp_path / "summary.csv")
    summary = dict(r for r in rows[1:])
    assert summary["scheme"] == "bp"
    assert float(summary["residual_norm"]) < 1e-10
    assert summary["singular"] == "False"
    assert [r[0] for r in rows[-8:]] == [
        "factor_nnz", "fill_factor", "factor_s", "rcond_s", "offdiag_pivots", "order_s",
        "peak_rss_mb", "peak_rss_before_mb",
    ]
    assert int(summary["factor_nnz"]) > 0 and float(summary["fill_factor"]) > 1
    assert float(summary["factor_s"]) > 0 and float(summary["rcond_s"]) > 0
    assert int(summary["offdiag_pivots"]) == 0 and float(summary["order_s"]) > 0
    assert 0 < float(summary["peak_rss_before_mb"]) <= float(summary["peak_rss_mb"])


@pytest.mark.parametrize("stage", ["assemble", "solve"])
def test_out_of_memory_exits_resource_failure(tmp_path, monkeypatch, capsys, stage):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(f"stokes_fv.cli.{stage}", exhausted)
    code = main(["solve", "--scheme", "bp", "--lambda", "0.05", "--n", "8", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == f"resource failure: out of memory in solve ({stage})\n"


def test_solve_natural_exits_numerical_failure(tmp_path):
    code = main(
        ["solve", "--scheme", "natural", "--n", "8", "--case", "ms1", "--out", str(tmp_path)]
    )
    assert code == 3
    summary = dict(r for r in read_csv(tmp_path / "summary.csv")[1:])
    assert summary["singular"] == "True"
    assert "checkerboard" in summary["singular_reason"]


def test_solve_cluster_odd_n_is_config_error(tmp_path):
    code = main(
        ["solve", "--scheme", "cluster", "--lambda", "1", "--n", "7", "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize("scheme", [["cluster", "--lambda", "1"], ["cluster-constant"]])
@pytest.mark.parametrize(
    "grid", [["--n", "9"], ["--grid", '{"x": [0, 0.2, 0.5, 1], "y": [0, 0.1, 0.3, 0.6, 1]}']]
)
def test_solve_cluster_odd_grid_is_config_error_before_any_output(tmp_path, capsys, scheme, grid):
    out = tmp_path / "out"
    assert main(["solve", "--scheme", *scheme, *grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: cluster partition needs even cell counts per direction\n"
    assert not out.exists()


def test_solve_missing_scheme_is_config_error(tmp_path):
    assert main(["solve", "--n", "8", "--out", str(tmp_path)]) == 2


def test_dump_system_is_loadable(tmp_path):
    code = main(
        [
            "solve",
            "--scheme",
            "bp",
            "--lambda",
            "0.1",
            "--n",
            "4",
            "--out",
            str(tmp_path),
            "--dump-system",
        ]
    )
    assert code == 0
    matrix, rhs = load_system(tmp_path / "system.mtx", tmp_path / "rhs.csv")
    n = 4 * 4
    assert matrix.shape == (3 * n + 1, 3 * n + 1)
    assert rhs.shape == (3 * n + 1,)


def test_convergence_csv_byte_identical_to_library(tmp_path):
    out = tmp_path / "cli"
    code = main(
        [
            "convergence",
            "--scheme",
            "bp",
            "--lambda",
            "0.05",
            "--case",
            "ms1",
            "--n",
            "4,8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    table = run_convergence(SchemeSpec("bp", 0.05), CASES["ms1"], [4, 8])
    lib_path = tmp_path / "lib.csv"
    write_convergence_csv(table, lib_path)
    assert (out / "convergence.csv").read_bytes() == lib_path.read_bytes()
    header = read_csv(out / "convergence.csv")[0]
    assert header == ["scheme", "lambda", "n", "h", "err_u_h1", "err_p_l2", "order_u", "order_p"]


def test_convergence_empty_n_is_config_error(tmp_path):
    assert main(
        ["convergence", "--scheme", "bp", "--lambda", "0.05", "--n", "", "--out", str(tmp_path)]
    ) == 2


@pytest.mark.parametrize(
    "kind, lam, n_list",
    [
        ("cluster", "1", "5"),
        ("cluster", "1", "4,9"),
        ("cluster-constant", None, "4,9"),
        ("cluster", "1", "1"),
        ("bp", "0.05", "0"),
    ],
)
def test_convergence_odd_or_too_small_n_is_config_error(tmp_path, capsys, kind, lam, n_list):
    out = tmp_path / "out"
    argv = ["convergence", "--scheme", kind, "--n", n_list, "--out", str(out)]
    argv += [] if lam is None else ["--lambda", lam]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_convergence_cluster_scheme(tmp_path):
    code = main(
        [
            "convergence",
            "--scheme",
            "cluster",
            "--lambda",
            "1",
            "--case",
            "ms1",
            "--n",
            "4,8",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "convergence.csv")
    assert len(rows) == 3


def test_probe_checkerboard(tmp_path):
    code = main(["probe", "--what", "checkerboard", "--n", "4,8", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "probe_checkerboard.csv")
    assert rows[0] == ["n", "h", "dual_norm", "l2_norm", "ratio", "fitted_exponent"]
    assert len(rows) == 3


def test_probe_infsup(tmp_path):
    code = main(
        ["probe", "--what", "infsup", "--space", "cluster", "--n", "4,8", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = read_csv(tmp_path / "probe_infsup.csv")
    assert rows[0] == ["space", "n", "h", "beta_h"]
    betas = [float(r[3]) for r in rows[1:]]
    assert all(b > 0.3 for b in betas)


def test_probe_consistency_tensor(tmp_path):
    code = main(
        [
            "probe",
            "--what",
            "consistency",
            "--grid",
            '{"x": [0, 0.25, 1], "y": [0, 0.5, 1]}',
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = read_csv(tmp_path / "probe_consistency.csv")
    assert float(rows[1][1]) <= 1e-13


def test_probe_regularity(tmp_path):
    code = main(["probe", "--what", "regularity", "--n", "4,8", "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "probe_regularity.csv")
    assert all(float(r[1]) == 1.0 for r in rows[1:])


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "scheme": "bp",
                "lambda": 0.05,
                "case": "ms1",
                "n": "4",
                "tol": 1e-9,
            }
        )
    )
    out_a = tmp_path / "a"
    assert main(["solve", "--config", str(cfg), "--out", str(out_a)]) == 0
    # flag overrides the config file's n
    out_b = tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--n", "8", "--out", str(out_b)]) == 0
    assert dict(read_csv(out_b / "summary.csv")[1:])["nx"] == "8"
    assert dict(read_csv(out_a / "summary.csv")[1:])["nx"] == "4"


@pytest.mark.parametrize(
    "config, key",
    [
        ({"solver": {"tol": 1e-9}}, "solver"),
        ({"lamda": 3}, "lamda"),
        ({"tol": 1e-9, "nn": 8}, "nn"),
        ({"lam": 0.05}, "lam"),
        ({"dump-system": True}, "dump-system"),
    ],
)
def test_config_file_unknown_key_is_config_error(tmp_path, capsys, config, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scheme": "bp", "lambda": 0.05, "n": 4, **config}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


def test_config_file_accepts_every_key_read(tmp_path):
    keys = {
        "scheme": "bp", "lambda": 0.05, "case": "ms1", "n": 4,
        "out": str(tmp_path / "out"), "tol": 1e-9, "quad": 2,
        "what": "regularity", "space": "cluster",
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(keys))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert main(["probe", "--config", str(cfg)]) == 0
    del keys["n"]
    cfg.write_text(json.dumps({**keys, "grid": '{"x": [0, 0.5, 1], "y": [0, 0.5, 1]}'}))
    assert main(["solve", "--config", str(cfg)]) == 0


def test_env_var_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("STOKES_FV_OUT", str(tmp_path / "envout"))
    code = main(["probe", "--what", "regularity", "--n", "4"])
    assert code == 0
    assert (tmp_path / "envout" / "probe_regularity.csv").exists()


def test_cli_grid_spec_solve(tmp_path):
    code = main(
        [
            "solve",
            "--scheme",
            "bp",
            "--lambda",
            "0.1",
            "--grid",
            '{"x": [0, 0.25, 0.5, 0.75, 1], "y": [0, 0.25, 0.5, 0.75, 1]}',
            "--case",
            "ms0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0


@pytest.mark.parametrize("source", ["flag", "config"])
def test_probe_non_integer_n_is_config_error(tmp_path, capsys, source):
    if source == "flag":
        args = ["--what", "infsup", "--n", "4,x"]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"what": "infsup", "n": [4, "x"]}))
        args = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main(["probe", *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: n must be an integer, not 'x'\n"
    assert not out.exists()


def test_probe_unknown_space_in_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"what": "infsup", "n": [4], "space": "bogus"}))
    out = tmp_path / "out"
    assert main(["probe", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: space must be one of cluster, full, not 'bogus'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ({"quad": "x"}, "quad"),
        ({"lambda": "x"}, "lambda"),
        ({"lambda": True}, "lambda"),
        ({"tol": "x"}, "tol"),
        ({"tol": True}, "tol"),
        ({"n": "x"}, "n"),
        ({"n": [8]}, "n"),
        ({"n": 8.9}, "n"),
        ({"n": True}, "n"),
        ({"quad": True}, "quad"),
        ({"quad": 2.5}, "quad"),
    ],
)
def test_config_file_non_numeric_value_is_config_error(tmp_path, capsys, config, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scheme": "bp", "lambda": 0.05, "n": 4, **config}))
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} must be ") and err.count("\n") == 1
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize(
    "scheme, key", [("bp", "tol"), ("bp", "lambda"), ("cluster", "lambda")]
)
def test_number_not_finite_and_positive_is_config_error(
    tmp_path, capsys, scheme, key, value, source
):
    settings = {"scheme": scheme, "n": 8, "lambda": 0.5, key: float(value)}
    if source == "flag":
        args = [f"--{name}={setting}" for name, setting in settings.items()]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(settings))  # NaN and Infinity, as json reads them
        args = ["--config", str(cfg)]
    assert main(["solve", *args, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f" {key} " in err
    assert not (tmp_path / "summary.csv").exists()


def test_probe_infsup_lobpcg_step_cap_exits_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("stokes_fv.solver._LOBPCG_MAXITER", 2)
    out = tmp_path / "out"
    code = main(["probe", "--what", "infsup", "--space", "cluster", "--n", "16", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: LOBPCG stopped short")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "convergence"])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "1"])
@pytest.mark.parametrize("scheme", ["natural", "cluster-constant"])
def test_lambda_for_a_scheme_that_reads_none_is_config_error(
    tmp_path, capsys, scheme, value, source, command
):
    settings = {"scheme": scheme, "n": 8 if command == "solve" else "4,8", "lambda": float(value)}
    if source == "flag":
        args = [f"--{name}={setting}" for name, setting in settings.items()]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(settings))
        args = ["--config", str(cfg)]
    out = tmp_path / "out"
    assert main([command, *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "lambda" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence", "--scheme", "bp", "--lambda", "0.05", "--n", "4,8", "--grid", "{}"],
        ["probe", "--what", "regularity", "--n", "4", "--tol", "1e-9"],
        ["probe", "--what", "regularity", "--n", "4", "--quad", "2"],
    ],
)
def test_flag_the_command_does_not_read_exits_2(tmp_path, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("solve", "tol", "x"),
        ("solve", "lambda", "x"),
        ("solve", "quad", "x"),
        ("solve", "quad", "7"),
        ("solve", "scheme", "bogus"),
        ("solve", "case", "ms9"),
        ("probe", "what", "bogus"),
        ("probe", "space", "bogus"),
    ],
)
def test_bad_flag_and_config_values_print_the_same_error(tmp_path, capsys, command, key, value):
    if command == "solve":
        settings = {"scheme": "bp", "lambda": "0.05", "n": "4"}
    else:
        settings = {"what": "infsup", "n": "4"}
    settings[key] = value
    out = tmp_path / "out"
    flags = [f"--{name}={setting}" for name, setting in settings.items()]
    assert main([command, *flags, "--out", str(out)]) == 2
    from_flags = capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(settings))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == from_flags
    assert from_flags.startswith("config error: ") and from_flags.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--scheme", "bp", "--lambda", "0.05"],
        ["probe", "--what", "consistency"],
    ],
)
def test_n_and_grid_together_is_config_error_before_any_output(tmp_path, capsys, argv):
    grid = '{"x": [0, 0.5, 1], "y": [0, 0.5, 1]}'
    out = tmp_path / "out"
    assert main([*argv, "--n", "4", "--grid", grid, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: give one of --grid and --n\n"
    assert not out.exists()


def test_probe_consistency_on_a_uniform_grid_from_n(tmp_path):
    assert main(["probe", "--what", "consistency", "--n", "4", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "probe_consistency.csv")
    assert rows[1][0] == "uniform n=4" and float(rows[1][1]) <= 1e-13


def test_one_config_file_drives_every_command(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(
        json.dumps(
            {
                "scheme": "bp", "lambda": 0.05, "case": "ms1", "n": 4, "quad": 2, "tol": 1e-9,
                "what": "regularity", "space": "full", "out": str(tmp_path / "out"),
            }
        )
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    assert main(["convergence", "--config", str(cfg), "--n", "4,8"]) == 0
    assert main(["probe", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert dict(read_csv(out / "summary.csv")[1:])["nx"] == "4"
    assert len(read_csv(out / "convergence.csv")) == 3
    assert read_csv(out / "probe_regularity.csv")[1][0] == "uniform n=4"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--scheme", "bp", "--lambda", "0.05", "--n", "4"],
        ["probe", "--what", "regularity", "--n", "4"],
    ],
)
@pytest.mark.parametrize("below", ["", "x"])
def test_output_directory_that_cannot_be_made_is_config_error(tmp_path, capsys, argv, below):
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker / below if below else blocker
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {str(out)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "grid",
    [
        '{"x": [0, "a", 1], "y": [0, 0.5, 1]}',
        '{"x": [0, 0.5, 1], "y": [[0], 0.5, 1]}',
        '{"x": [0, 0.5, Infinity], "y": [0, 0.5, 1]}',
        '{"x": [0, NaN, 1], "y": [0, 0.5, 1]}',
    ],
)
def test_malformed_grid_coordinates_are_config_error(tmp_path, capsys, grid):
    out = tmp_path / "out"
    argv = ["solve", "--scheme", "bp", "--lambda", "0.05", "--grid", grid, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "config error: grid coordinates must be flat lists of finite numbers\n"
    assert not out.exists()
