"""End-to-end command line checks: outputs, determinism, exit codes."""

import gc
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import infodyn
from infodyn import cli, simulator


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "n_modes": 4,
                "Y": 5,
                "mu": 1.0,
                "beta": 1.0,
                "sigma_n2": 0.01,
                "T": 1.0,
                "N": 4,
                "seed": 123,
                "initial_data": "generate",
                "scheme": "both",
            }
        )
    )
    return path


def test_simulate_writes_csv_and_report(tmp_path, config_path, capsys):
    out = tmp_path / "run.csv"
    report = tmp_path / "report.json"
    code = cli.main(
        ["simulate", "--config", str(config_path), "--out", str(out),
         "--report", str(report)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,t,kl_step,kl_cumulative,exact_deviation,branch")
    assert len(lines) == 17
    payload = json.loads(report.read_text())
    assert payload["branch_counts"] == {"projected": 16}
    assert payload["direct_gap"] > 0.0
    stdout = capsys.readouterr().out
    assert "wrote 16 steps" in stdout
    assert "iterated-direct gap" in stdout


def test_simulate_output_is_bit_identical(tmp_path, config_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_reports_slopes(tmp_path, config_path, capsys):
    out = tmp_path / "sweep.json"
    code = cli.main(
        ["sweep", "--config", str(config_path), "--n-list", "4,5,6",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["resolutions"] == [4, 5, 6]
    assert 1.5 < payload["slopes"]["per_step_kl"] < 2.5
    assert 0.6 < payload["slopes"]["cumulative_kl"] < 1.6
    assert "slope per_step_kl" in capsys.readouterr().out


def test_compare_exact_writes_deviations(tmp_path, config_path, capsys):
    out = tmp_path / "dev.csv"
    code = cli.main(["compare-exact", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,t,deviation"
    assert len(lines) == 17
    stdout = capsys.readouterr().out
    assert "max deviation" in stdout
    assert "reference energy drift" in stdout


def test_compare_exact_rows_match_simulate_csv(tmp_path, config_path):
    # Both CSVs come from one row writer: compare-exact's rows are the step,
    # t and exact_deviation cells of the simulate CSV, byte for byte.
    sim = tmp_path / "run.csv"
    dev = tmp_path / "dev.csv"
    config = str(config_path)
    assert cli.main(["simulate", "--config", config, "--out", str(sim)]) == 0
    assert cli.main(["compare-exact", "--config", config, "--out", str(dev)]) == 0
    sim_rows = sim.read_bytes().splitlines()[1:]
    dev_rows = dev.read_bytes().splitlines()[1:]
    assert len(dev_rows) == 16
    expected = [b",".join(row.split(b",")[i] for i in (0, 1, 4)) for row in sim_rows]
    assert dev_rows == expected


def test_direct_prints_endpoint(config_path, capsys):
    assert cli.main(["direct", "--config", str(config_path)]) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("final data:")
    assert len(stdout.splitlines()[0].split()) == 2 + 14


def test_config_errors_exit_1(tmp_path, config_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.main(["simulate", "--config", str(missing), "--out", "x.csv"]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad), "--out", "x.csv"]) == 1
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"n_modes": 4}))
    assert cli.main(["simulate", "--config", str(wrong), "--out", "x.csv"]) == 1
    # Too few modes to reach every data coefficient: refused at load time.
    few = json.loads(config_path.read_text())
    few.update(n_modes=3, Y=7)
    config_path.write_text(json.dumps(few))
    out = tmp_path / "few.csv"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
    assert not out.exists()
    # 2^64 + 1 trajectory rows: refused at load time, not failed in numpy.
    huge = json.loads(config_path.read_text())
    huge.update(n_modes=4, Y=5, N=64)
    config_path.write_text(json.dumps(huge))
    out = tmp_path / "huge.csv"
    assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("error:") == 5
    assert "n_modes - 1 >= (pixels - 1)/2" in err
    assert "config field 'N' must be at most 20" in err


_NUMBERS = ", ".join(["0.5"] * 13)


@pytest.mark.parametrize(
    "field, raw",
    [
        # The raw JSON text of 'mu': not UTF-8, no float holds it, and past
        # Python's integer digit limit.
        ("mu", b'"\xff"'),
        ("mu", b"1" + b"0" * 400),
        ("mu", b"1" + b"0" * 5000),
        # No float holds T; N is a boolean.
        ("T", b"1" + b"0" * 400),
        ("N", b"true"),
        # The raw text of the initial data file, one number short of the 14
        # the model needs, then one bad entry.
        ("initial_data", b"[" + _NUMBERS.encode() + b", 1\xe9]"),
        ("initial_data", b"[" + _NUMBERS.encode() + b", 1" + b"0" * 400 + b"]"),
        ("initial_data", b"[" + _NUMBERS.encode() + b', "abc"]'),
        ("initial_data", b"[" + _NUMBERS.encode() + b', "1.5"]'),
        ("initial_data", b"[" + _NUMBERS.encode() + b", {}]"),
        ("initial_data", b"[" + _NUMBERS.encode() + b", [1, 2]]"),
        ("initial_data", b"[" + _NUMBERS.encode() + b", true]"),
        ("initial_data", b"[[1, 2], [3]]"),
        ("initial_data", b'{"data": [1, 2]}'),
    ],
)
def test_unreadable_config_and_initial_data_exit_1(tmp_path, config_path, capsys, field, raw):
    # Each case used to escape as a raw UnicodeDecodeError, OverflowError,
    # ValueError or TypeError traceback.
    mapping = json.loads(config_path.read_text())
    if field == "initial_data":
        d0 = tmp_path / "d0.json"
        d0.write_bytes(raw)
        config_path.write_text(json.dumps({**mapping, "initial_data": str(d0)}))
    else:
        text = json.dumps({**mapping, field: "RAW"}).encode()
        config_path.write_bytes(text.replace(b'"RAW"', raw))
    out = tmp_path / "x.csv"
    for argv in (["simulate", "--out", str(out)], ["direct"]):
        assert cli.main([*argv, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_bad_n_list_exits_1(config_path, capsys):
    assert cli.main(["sweep", "--config", str(config_path), "--n-list", "4,x"]) == 1
    assert cli.main(["sweep", "--config", str(config_path), "--n-list", "4,5"]) == 1
    assert cli.main(["sweep", "--config", str(config_path), "--n-list", ","]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    assert "error: --n-list must not be empty, got ','\n" in err


def test_numeric_refusal_exits_2(tmp_path, capsys):
    # N = 3 gives dt = 1/8, too large for the linearized diagnostics, which
    # need dt < 1/w_max^2 = 1/10; the loader refuses it as a config error.
    path = tmp_path / "coarse.json"
    path.write_text(
        json.dumps(
            {
                "n_modes": 4,
                "Y": 5,
                "mu": 1.0,
                "beta": 1.0,
                "sigma_n2": 0.01,
                "T": 1.0,
                "N": 3,
                "seed": 123,
                "initial_data": "generate",
                "scheme": "iterated",
            }
        )
    )
    out = tmp_path / "x.csv"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 1
    assert "validity region" in capsys.readouterr().err
    # The same config runs under the direct scheme.
    direct = json.loads(path.read_text())
    direct["scheme"] = "direct"
    path.write_text(json.dumps(direct))
    assert cli.main(["direct", "--config", str(path)]) == 0
    capsys.readouterr()
    # A prior that fails the positive definiteness test (mu 1e-8) is refused
    # by both commands.  The posterior information matrix passes whenever
    # the prior does; at a tiny noise or temperature it is the whitened
    # evolved covariance of the relative entropies that fails the test, so
    # scheme 'iterated' refuses those configs and 'direct', which measures
    # no relative entropy, runs them.  The eigenvalues a refusal names are
    # printed as plain floats.
    for key, value in (
        ("sigma_n2", 1e-14), ("sigma_n2", 1e-300), ("mu", 1e-8), ("beta", 1e-10)
    ):
        path.write_text(json.dumps({**direct, "N": 6, "scheme": "iterated", key: value}))
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("positive definiteness test") == 1
        assert "np.float64(" not in err
        assert not out.exists()
        code = cli.main(["direct", "--config", str(path)])
        if key == "mu":
            assert code == 2
            assert capsys.readouterr().err.count("positive definiteness test") == 1
        else:
            assert code == 0
            assert capsys.readouterr().out.startswith("final data:")


def test_direct_runs_configs_only_the_iterated_schemes_refuse(tmp_path, capsys):
    # The direct-long config at N 21 exceeds the per-step cap, and
    # (16, 31, T 1, N 1) has dt = 0.5 outside dt < 1/w_{n-1}^2; 'direct' needs
    # neither bound, whatever scheme the file names.  'simulate' with scheme
    # 'both' still refuses both, with exit 1 and the same messages.
    path = tmp_path / "wide.json"
    base = {
        "n_modes": 16, "Y": 31, "mu": 1.0, "beta": 1.0, "sigma_n2": 0.01,
        "seed": 0, "initial_data": "generate", "scheme": "both",
    }
    out = tmp_path / "x.csv"
    for mapping, message in (
        ({**base, "T": 0.05, "N": 21},
         "config field 'N' must be at most 17, so that the 8 per-step arrays a "
         "run holds at once, (2^N + 1) x 66 each, fit in 1073741824 bytes, got 21"),
        ({**base, "T": 1.0, "N": 1},
         "config fields 'T' and 'N' give step dt = 0.5, outside the validity "
         "region dt < 0.004424778761061947 set by 'n_modes' and 'mu'"),
    ):
        path.write_text(json.dumps(mapping))
        assert cli.main(["direct", "--config", str(path)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("final data:")
        assert len(stdout.splitlines()[0].split()) == 2 + 66
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_step_bound_is_checked_at_load_time_only(tmp_path, config_path, capsys):
    # At N 1, T = 2 dt_limit gives dt = dt_limit exactly: refused at load
    # under the iterated schemes.  One ulp below, the run finishes with
    # finite output.  'direct' accepts both.
    mapping = {**json.loads(config_path.read_text()), "N": 1}
    limit = simulator.parse_config({**mapping, "scheme": "direct"}).model.dt_limit
    out = tmp_path / "x.csv"
    for scheme in ("iterated", "both"):
        for dt, code in ((limit, 1), (np.nextafter(limit, 0.0), 0)):
            config_path.write_text(json.dumps({**mapping, "T": 2 * dt, "scheme": scheme}))
            assert cli.main(["simulate", "--config", str(config_path), "--out", str(out)]) == code
            assert cli.main(["direct", "--config", str(config_path)]) == 0
            captured = capsys.readouterr()
            if code:
                assert captured.err == (
                    f"error: config fields 'T' and 'N' give step dt = {limit!r}, outside "
                    f"the validity region dt < {limit!r} set by 'n_modes' and 'mu'\n"
                )
                assert not out.exists()
            else:
                assert captured.err == ""
                rows = np.loadtxt(out, delimiter=",", skiprows=1, usecols=range(5))
                assert rows.shape == (2, 5) and np.all(np.isfinite(rows))
                out.unlink()


def test_sweep_refuses_a_coarse_resolution_before_any_run(config_path, capsys, monkeypatch):
    # At (4, 5, T 1), N 3 gives dt = 1/8 >= dt_limit = 1/10.
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(simulator, "_setup", no_run)
    assert cli.main(["sweep", "--config", str(config_path), "--n-list", "3,4,5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "give step dt = 0.125, outside the validity region" in captured.err


def test_sweep_of_all_zero_data_refuses_the_log_log_fit(tmp_path, config_path, capsys):
    # Zero data stay zero, as does the exact reference, so every final
    # deviation is 0 and has no logarithm.  The sweep refuses before it
    # writes anything.
    d0 = tmp_path / "d0.json"
    d0.write_text(json.dumps([0.0] * 14))
    mapping = json.loads(config_path.read_text())
    config_path.write_text(json.dumps({**mapping, "initial_data": str(d0)}))
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--config", str(config_path), "--n-list", "4,5,6", "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: exact deviation must be positive for a log-log fit, got [0. 0. 0.]\n"
    )
    assert not out.exists()


def _simulate_quietly(tmp_path, config_path, mapping):
    """Exit code of simulate --report on ``mapping``; any numpy warning fails."""
    config_path.write_text(json.dumps(mapping))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(
            ["simulate", "--config", str(config_path),
             "--out", str(tmp_path / "run.csv"),
             "--report", str(tmp_path / "report.json")]
        )


def _scaled_initial_data(tmp_path, mapping, factor):
    """Path of a file holding ``factor`` times the seed-0 initial data."""
    config = simulator.parse_config({**mapping, "seed": 0, "initial_data": "generate"})
    d0 = factor * simulator.resolve_initial_data(config)
    path = tmp_path / "d0.json"
    path.write_text(json.dumps(d0.tolist()))
    return str(path)


def test_overflowing_run_exits_2_before_writing(tmp_path, config_path, capsys):
    # T = 1000 at N = 14: the explicit update grows like (1 + dt^2 w^2)^(steps/2)
    # until the diagnostics overflow.  Initial data of order 1e200 overflow
    # the diagnostics at once, and the exact reference's energy and the
    # update itself later.  The run must refuse, naming the step, instead
    # of writing NaN and inf, and numpy must not warn on the way.
    mapping = json.loads(config_path.read_text())
    mapping.update(T=1000.0, N=14)
    big = {
        **mapping,
        "seed": 0,
        "scheme": "iterated",
        "initial_data": _scaled_initial_data(tmp_path, mapping, 1e200),
    }
    for case in (mapping, big):
        assert _simulate_quietly(tmp_path, config_path, case) == 2
        err = capsys.readouterr().err
        assert re.search(r"step \d+ of 16384: \w+ is not finite", err)
        assert not (tmp_path / "run.csv").exists()
        assert not (tmp_path / "report.json").exists()


def test_direct_overflow_exits_2_before_writing(tmp_path, config_path, capsys):
    # Initial data of order 1e200 under scheme 'direct': the endpoint is
    # finite, but its distance to the exact reference overflows to inf and
    # the reference's energy drift to NaN.  This used to exit 0 and write
    # inf into the report.
    mapping = json.loads(config_path.read_text())
    mapping.update(T=1.0, N=6, seed=0, scheme="direct")
    mapping["initial_data"] = _scaled_initial_data(tmp_path, mapping, 1e200)
    assert _simulate_quietly(tmp_path, config_path, mapping) == 2
    err = capsys.readouterr().err
    assert "the final deviation from the exact reference is not finite" in err
    assert not (tmp_path / "run.csv").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        # Prior variances near 2.6e-309, whose reciprocals overflow; this
        # used to warn and then refuse on NaN eigenvalues.
        ({"n_modes": 4, "Y": 3, "beta": 1.2e308, "sigma_n2": 1.0, "T": 0.5, "N": 3},
         "the posterior information matrix is not finite"),
        # sigma_n2 / (R Phi R^T) overflows in M'; this used to exit 1 with
        # "matrix entries must be finite" from the matrix exponential.
        ({"n_modes": 2, "Y": 3, "beta": 2.4e16, "sigma_n2": 8.25e306, "T": 1.0, "N": 2,
          "scheme": "direct"},
         "T M' is not finite"),
        # 1 + s / sigma_n2 overflows, so t = sigma_n2 / (s + sigma_n2) in the
        # root of D underflows to 0.
        ({"n_modes": 2, "Y": 3, "mu": 2**-9, "beta": 1.18e-38, "sigma_n2": 1e-280, "T": 0.5,
          "N": 2},
         "the posterior information matrix is not finite"),
    ],
)
def test_overflowing_precisions_exit_2(tmp_path, config_path, capsys, overrides, message):
    mapping = {**json.loads(config_path.read_text()), "scheme": "iterated", **overrides}
    assert _simulate_quietly(tmp_path, config_path, mapping) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err


@pytest.mark.parametrize("total_time", [1e20, 5.92e307])
def test_direct_endpoint_at_huge_times_exits_0(tmp_path, config_path, total_time):
    # At (2, 3, sigma_n2 1) both T M' are finite, and so is the true
    # endpoint.  X exp(T K) X^-1 d(0) takes T only in the phases wT of each
    # class core's one frequency w: the endpoint is finite and keeps
    # ||X^-1 d||, though its phase is off by about eps T w.  The accepted
    # configs' property test found T 5.92e307.
    mapping = json.loads(config_path.read_text())
    mapping.update(n_modes=2, Y=3, sigma_n2=1.0, T=total_time, N=2, seed=0, scheme="direct")
    assert _simulate_quietly(tmp_path, config_path, mapping) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert np.all(np.isfinite(report["direct_data"]))
    assert report["final_data"] == report["direct_data"]


def test_runs_do_not_import_scipy(tmp_path, config_path):
    # A fresh interpreter, because this test process has scipy loaded.  Nor
    # may a run import numpy.ma, which np.unique pulls in lazily at a cost
    # in start-up time and memory, or dataclasses, whose classes generate
    # and compile code when the package is imported.
    script = textwrap.dedent(
        f"""
        import sys
        from infodyn import cli
        config = {str(config_path)!r}
        out = {str(tmp_path / "run.csv")!r}
        assert cli.main(["simulate", "--config", config, "--out", out]) == 0
        assert cli.main(["direct", "--config", config]) == 0
        print(sorted(
            m for m in sys.modules
            if m.split(".")[0] in ("scipy", "dataclasses")
            or m.split(".")[:2] == ["numpy", "ma"]
        ))
        """
    )
    assert _last_line_in_fresh_interpreter(script) == "[]"


# The modules every command loads: the run path, with none of the dense
# library (infodyn.gaussian, infodyn.matching, infodyn.dynamics), whose
# compiling from source would cost start-up time.  Only the commands that
# write a CSV load the table formatter, infodyn.floattext: 'direct' prints
# its one line of floats with %.
RUN_PATH = {
    "infodyn",
    "infodyn._frozen",
    "infodyn.cli",
    "infodyn.errors",
    "infodyn.kleingordon",
    "infodyn.matfun",
    "infodyn.simulator",
}


@pytest.mark.parametrize(
    "command, options, loaded",
    [
        ("simulate", ["--out", "run.csv", "--report", "report.json"], {"infodyn.floattext"}),
        ("direct", [], set()),
        ("sweep", ["--n-list", "4,5,6", "--out", "sweep.json"], set()),
        ("compare-exact", ["--out", "dev.csv"], {"infodyn.floattext"}),
    ],
    ids=["simulate", "direct", "sweep", "compare-exact"],
)
def test_each_command_loads_only_the_run_path(tmp_path, config_path, command, options, loaded):
    script = textwrap.dedent(
        f"""
        import os, sys
        from infodyn import cli
        os.chdir({str(tmp_path)!r})
        argv = [{command!r}, "--config", {str(config_path)!r}, *{options!r}]
        assert cli.main(argv) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "infodyn"))
        """
    )
    expected = sorted(RUN_PATH | loaded)
    assert _last_line_in_fresh_interpreter(script) == str(expected)


def _cli_process(rundir, runner, argv):
    """Status, stdout, stderr and written files of ``python3 <runner> argv``.

    The process runs in the new directory ``rundir``, with its standard
    streams on pipes and block-buffered (no ``PYTHONUNBUFFERED``), so text
    left unflushed at exit is missing from what it returns.
    """
    rundir.mkdir()
    src = os.path.dirname(os.path.dirname(infodyn.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, *runner, *argv], capture_output=True, cwd=rundir, env=env
    )
    files = {path.name: path.read_bytes() for path in sorted(rundir.iterdir())}
    return result.returncode, result.stdout, result.stderr, files


@pytest.mark.parametrize(
    "argv, changes, status",
    [
        (["simulate", "--out", "run.csv", "--report", "report.json"], {}, 0),
        (["direct"], {}, 0),
        (["sweep", "--n-list", "4,5,6", "--out", "sweep.json"], {}, 0),
        (["compare-exact", "--out", "dev.csv"], {}, 0),
        (["simulate", "--out", "run.csv"], None, 1),
        (["simulate", "--out", "run.csv", "--report", "report.json"], {"T": 1000.0, "N": 14}, 2),
    ],
    ids=["simulate", "direct", "sweep", "compare-exact", "missing-config", "overflow"],
)
def test_process_entry_writes_what_main_writes(
    tmp_path, config_path, capsys, monkeypatch, argv, changes, status
):
    # The process entry ends with os._exit after flushing the standard
    # streams.  It must give the status, text and files of main called in
    # process: here, where pytest's logging capture takes the log lines
    # from stderr, and in an interpreter that then exits the ordinary way.
    # ``changes`` None leaves the config file missing.
    config = tmp_path / "config.json"
    if changes is not None:
        config.write_text(json.dumps({**json.loads(config_path.read_text()), **changes}))
    argv = [*argv, "--config", str(config)]
    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    here = cli.main(argv)
    out, err = capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(Path().iterdir())}
    in_process = "import sys; from infodyn.cli import main; sys.exit(main(sys.argv[1:]))"
    ordinary = _cli_process(tmp_path / "main", ["-c", in_process], argv)
    entry = _cli_process(tmp_path / "entry", ["-m", "infodyn.cli"], argv)
    assert (here, out.encode(), files) == (status, entry[1], entry[3])
    assert ("error: " in err) == (status != 0)
    assert err.encode() in entry[2]
    assert out or status
    assert entry == ordinary


def test_cli_module_imports_no_numpy():
    # The process entry raises the collector's threshold before the run
    # path loads, which works only while importing the CLI module does not
    # load it already (python3 -m infodyn.cli runs the module body first).
    script = "import sys, infodyn.cli; print(sorted({'numpy', 'infodyn.simulator'} & set(sys.modules)))"
    assert _last_line_in_fresh_interpreter(script) == "[]"


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(os.path.dirname(__file__)), "pyproject.toml")
    with open(pyproject, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["infodyn"]
    assert target == "infodyn.cli:entry"


def test_main_leaves_the_collector_unfrozen(config_path):
    frozen, threshold = gc.get_freeze_count(), gc.get_threshold()
    assert cli.main(["direct", "--config", str(config_path)]) == 0
    assert cli.main(["direct", "--config", str(config_path.parent / "nope.json")]) == 1
    assert (gc.get_freeze_count(), gc.get_threshold()) == (frozen, threshold)


def _last_line_in_fresh_interpreter(script):
    """The last line ``script`` prints in a new interpreter that imports this infodyn."""
    src = os.path.dirname(os.path.dirname(infodyn.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("name", infodyn.__all__)
def test_public_names_resolve(name):
    namespace = {}
    exec("from infodyn import *", namespace)
    assert namespace[name] is getattr(infodyn, name)
