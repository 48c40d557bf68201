"""The vectorized %.17g formatter and the writers built on it, against ``%`` itself.

``floattext`` must give the bytes of ``"%.17g" % x`` for every float64; the
CSV writers must give the bytes of the per-row ``%`` writer they replaced,
kept here as the oracle.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infodyn import cli, floattext, matching, simulator


def _texts(values):
    """What :func:`floattext.cells` prints for each value, without its FILL bytes."""
    return [bytes(row[row != floattext.FILL]).decode() for row in floattext.cells(values)]


def _assert_exact(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [floattext.FORMAT % v for v in values.tolist()]
    assert _texts(values) == expected
    assert b"".join(floattext.lines([values])).decode() == "".join(e + "\n" for e in expected)


_TIES = np.arange(1049, 10486, 2) / 2.0**20
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _ulps(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def test_format_is_the_csv_format():
    assert floattext.FORMAT == simulator.CSV_FLOAT_FORMAT == "%.17g"


@settings(max_examples=400, deadline=None)
@given(_FINITE)
def test_every_float_prints_as_percent_formatting(x):
    _assert_exact([x, -x])


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(0, 300), elements=_FINITE))
def test_arrays_print_as_percent_formatting(values):
    _assert_exact(values)


def test_edge_values_print_as_percent_formatting():
    tiny = sys.float_info.min
    _assert_exact([0.0, -0.0, 5e-324, 2.0**-1074, 3 * 2.0**-1074, tiny, np.nextafter(tiny, 0),
                   1e-310, sys.float_info.max, -sys.float_info.max, 0.5, 2.0**60, 2.0**-60])
    # Where %g switches between fixed and exponent notation.
    _assert_exact(_ulps([1e-5, 1e-4, 1e16, 1e17, -1e-5, -1e17]))
    # Powers of ten, where floor(log10 |x|) is most easily off by one.
    _assert_exact(_ulps([10.0**e for e in range(-300, 301)]))
    # A float in [1e17, 1e18) is a multiple of 16, so its 18th digit, the
    # units, is even and never an exact tie; these straddle the nearest ones.
    _assert_exact(np.array([10**17 + 16 * i for i in range(200)], dtype=float))
    _assert_exact(np.array([2**57 + 32 * i for i in range(200)], dtype=float))
    # Exact ties of the 17th digit: for odd m from 1049 to 10485, m / 2^20
    # = m 5^20 / 10^20 has 18 significant digits, the last a 5.
    _assert_exact(_TIES)
    _assert_exact(np.arange(1, 4097) * (1.0 / 4096))
    _assert_exact(np.arange(-70000.0, 70000.0))


def test_ties_and_extreme_magnitudes_take_the_percent_fallback():
    # _decimal settles every other cell exactly; these go to "%.17g" % x.
    extreme = np.array([5e-324, 1e-300, 1e-281, 1e281, 1e300, sys.float_info.max])
    ordinary = np.array([1.0, 0.1, 3.14159, 1e-280 * 1.5, 1e279, 123456789.0])
    assert not floattext._decimal(_TIES)[2].any()
    assert not floattext._decimal(extreme)[2].any()
    assert floattext._decimal(ordinary)[2].all()
    _assert_exact(np.concatenate([_TIES, extreme, -extreme, ordinary]))


def _oracle_rows(result, path, header, fmt, columns):
    """The per-row writer the vectorized one replaced: ``fmt % (step, t, *cells)`` per step."""
    steps = np.arange(1, len(result.kl_step) + 1)
    rows = zip(steps.tolist(), (steps * result.config.dt).tolist(), *columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(fmt % row for row in rows)


def _oracle_csv(result, path):
    data_dim = result.config.model.data_dim
    header = "step,t,kl_step,kl_cumulative,exact_deviation,branch," + ",".join(
        f"data_{j}" for j in range(data_dim)
    )
    fmt = ",".join(["%d", *["%.17g"] * 4, "%s", *["%.17g"] * data_dim]) + "\n"
    columns = [
        result.kl_step.tolist(),
        result.kl_cumulative.tolist(),
        result.exact_deviation.tolist(),
        result.branch,
        *result.data.T.tolist(),
    ]
    _oracle_rows(result, path, header, fmt, columns)


def _oracle_deviation_csv(result, path):
    columns = [result.exact_deviation.tolist()]
    _oracle_rows(result, path, "step,t,deviation", "%d,%.17g,%.17g\n", columns)


def _run(n_modes, pixels, total_time, resolution, scheme="both"):
    return simulator.run_ifd(simulator.parse_config({
        "n_modes": n_modes, "Y": pixels, "mu": 1.0, "beta": 1.0, "sigma_n2": 0.01,
        "T": total_time, "N": resolution, "seed": 3, "initial_data": "generate",
        "scheme": scheme,
    }))


def _assert_writers_match_the_oracle(result, tmp_path):
    for write, oracle in (
        (simulator.write_csv, _oracle_csv),
        (simulator.write_deviation_csv, _oracle_deviation_csv),
    ):
        write(result, tmp_path / "new.csv")
        oracle(result, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize(
    "n_modes, pixels, total_time, resolution, scheme",
    [
        (4, 5, 1.0, 6, "both"),
        (16, 31, 0.05, 4, "iterated"),
        (64, 127, 0.001, 3, "both"),
        (4, 5, 1.0, 6, "direct"),
    ],
)
def test_writers_match_the_per_row_writer(n_modes, pixels, total_time, resolution, scheme, tmp_path):
    result = _run(n_modes, pixels, total_time, resolution, scheme)
    _assert_writers_match_the_oracle(result, tmp_path)


def test_writers_match_the_per_row_writer_on_signed_zeros_and_extremes(tmp_path):
    result = _run(4, 5, 1.0, 4)
    special = np.array([-0.0, 0.0, 5e-324, 1e-300, 1e300, -1e300, -5e-324, 1.0])
    steps = len(result.kl_step)
    _assert_writers_match_the_oracle(
        result._replace(
            data=np.resize(special, result.data.shape),
            kl_step=np.resize(special, steps),
            exact_deviation=np.resize(special[::-1], steps),
        ),
        tmp_path,
    )


def test_direct_line_is_the_joined_percent_text(tmp_path, capsys):
    config = {
        "n_modes": 16, "Y": 31, "mu": 1.0, "beta": 1.0, "sigma_n2": 0.01,
        "T": 0.05, "N": 16, "seed": 0, "initial_data": "generate", "scheme": "direct",
    }
    path = tmp_path / "direct.json"
    path.write_text(json.dumps(config))
    assert cli.main(["direct", "--config", str(path)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    final = simulator.run_ifd(simulator.load_config(path)).final_data
    assert line == "final data: " + " ".join(simulator.CSV_FLOAT_FORMAT % x for x in final)


def test_writing_a_wide_run_holds_little_beyond_the_result(tmp_path):
    # 4096 rows of 5 + 258 cells.  The per-row writer built Python lists of
    # every cell, a traced peak of 33 MB here; the vectorized one works in
    # blocks of BLOCK_CELLS cells and peaks near 0.47 MB.
    small = _run(64, 127, 0.001, 3)
    steps = 4096
    rng = np.random.default_rng(0)
    result = small._replace(
        config=small.config.replace(resolution=12, total_time=0.1),
        data=rng.standard_normal((steps, small.data.shape[1])),
        kl_step=rng.random(steps),
        kl_cumulative=np.cumsum(rng.random(steps)),
        exact_deviation=rng.random(steps),
        branch=(matching.BRANCH_PROJECTED,) * steps,
    )
    assert result.data.shape[1] + 5 == 263
    simulator.write_csv(result, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        simulator.write_csv(result, tmp_path / "run.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert len((tmp_path / "run.csv").read_bytes().splitlines()) == steps + 1


_LABELS = np.array([b"zero", b"regular", b"projected", b"projected", b"zero"] * 3, dtype="S")


def _oracle_lines(columns, labels, at):
    """``%`` per cell, joined by ',', with each row's label before column ``at``."""
    rows = []
    for i in range(len(columns[0])):
        cells = [[floattext.FORMAT % v for v in np.atleast_1d(c[i]).tolist()] for c in columns]
        cells.insert(at, [labels[i].decode()])
        rows.append(",".join(sum(cells, [])) + "\n")
    return "".join(rows)


@pytest.mark.parametrize("block_cells", [None, 16, 4], ids=["blocks", "blocks16", "blocks4"])
@pytest.mark.parametrize("at", [0, 2, 4])
@pytest.mark.parametrize(
    "labels", [_LABELS, np.array([b"x" * 40, b"y"] * 6 + [b""] * 3)], ids=["branches", "wide"]
)
def test_labelled_lines_print_as_percent_formatting(labels, at, block_cells, monkeypatch):
    # 15 rows of 1 + 1 + 3 + 1 float cells and a label of one or two cells:
    # with 16 cells a block holds 2 rows, so the last block holds 1; with 4
    # a row is wider than a block.  The label goes first, after a 1-d
    # column, or last; its lengths differ from row to row.
    if block_cells:
        monkeypatch.setattr(floattext, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(at)
    rows = len(labels)
    values = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-20, 20, (rows, 3))
    values[::4, 1] = -0.0
    values[1::5, 2] = _TIES[: len(values[1::5, 2])]
    columns = [np.arange(1, rows + 1), rng.random(rows), values, -np.arange(rows) / 7.0]
    text = b"".join(floattext.lines(columns, labels, at)).decode()
    assert text == _oracle_lines(columns, labels, at)


def test_writing_the_wide_run_holds_less_than_running_it(tmp_path):
    # The simulate-wide config: 32 rows of 5 + 258 float cells and a label.
    # The writer's temporaries stay below the run's own traced peak, so it
    # never sets the process peak; at BLOCK_CELLS 8192 they would not.
    config = simulator.parse_config({
        "n_modes": 64, "Y": 127, "mu": 1.0, "beta": 1.0, "sigma_n2": 0.01,
        "T": 0.005, "N": 5, "seed": 0, "initial_data": "generate", "scheme": "both",
    })
    simulator.write_csv(simulator.run_ifd(config), tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        result = simulator.run_ifd(config)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        simulator.write_csv(result, tmp_path / "run.csv")
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert write_peak <= run_peak
