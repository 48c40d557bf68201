"""End-to-end command line checks: outputs, determinism, exit codes."""

import json
import re

import pytest

from infodyn import cli


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
    err = capsys.readouterr().err
    assert err.count("error:") == 3


def test_bad_n_list_exits_1(config_path, capsys):
    assert cli.main(["sweep", "--config", str(config_path), "--n-list", "4,x"]) == 1
    assert cli.main(["sweep", "--config", str(config_path), "--n-list", "4,5"]) == 1
    assert capsys.readouterr().err.count("error:") == 2


def test_numeric_refusal_exits_2(tmp_path, capsys):
    # N = 3 gives dt = 1/8: valid for the update matrix, too large for the
    # linearized diagnostics; the run refuses with a numeric error.
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
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert "validity region" in capsys.readouterr().err
    # The same config runs under the direct scheme.
    direct = json.loads(path.read_text())
    direct["scheme"] = "direct"
    path.write_text(json.dumps(direct))
    assert cli.main(["direct", "--config", str(path)]) == 0


def test_overflowing_run_exits_2_before_writing(tmp_path, config_path, capsys):
    # T = 1000 at N = 14: the explicit update grows like (1 + dt^2 w^2)^(steps/2)
    # until the diagnostics overflow.  The run must refuse, naming the step,
    # instead of writing NaN and inf.
    mapping = json.loads(config_path.read_text())
    mapping.update(T=1000.0, N=14)
    config_path.write_text(json.dumps(mapping))
    out = tmp_path / "run.csv"
    report = tmp_path / "report.json"
    code = cli.main(
        ["simulate", "--config", str(config_path), "--out", str(out),
         "--report", str(report)]
    )
    assert code == 2
    assert re.search(r"step \d+ of 16384: \w+ is not finite", capsys.readouterr().err)
    assert not out.exists() and not report.exists()
