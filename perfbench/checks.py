"""Output checks for the benchmark: invariants at any seed, pinned values at one.

Invariants (any seed): every printed or written number is finite, every
relative entropy is nonnegative, the CSV has one row per step (2^N), the
report's branch counts sum to 2^N, and the report agrees with the CSV's last
row.  ``direct`` prints 2(Y + 2) finite data values and a finite deviation.

Pins (``pins.json``): outputs of the program at commit 8549191 at the pinned
seed, compared at the relative tolerances stored next to them.  Vectors are
compared by norm, ||a - b|| <= rtol ||b||.
"""

import csv
import io
import json
import math

SIMULATE_FILES = ("stdout.txt", "run.csv", "report.json")
BRANCHES = ("regular", "zero", "projected")


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def read_outputs(command, rundir):
    """Bytes of every output file of one invocation.

    The stdout line ``wrote N steps to PATH`` is dropped, because only it
    depends on the output directory.
    """
    names = SIMULATE_FILES if command == "simulate" else ("stdout.txt",)
    raw = {}
    for name in names:
        path = rundir / name
        raw[name] = path.read_bytes() if path.is_file() else b""
    raw["stdout.txt"] = b"".join(
        line for line in raw["stdout.txt"].splitlines(keepends=True) if not line.startswith(b"wrote ")
    )
    return {"raw": raw}


def _finite(values):
    return all(math.isfinite(v) for v in values)


def _parse_stdout(text):
    """``label : value`` lines of the CLI's stdout, plus the ``final data:`` list."""
    parsed = {}
    for line in text.splitlines():
        if line.startswith("final data:"):
            parsed["final data"] = [float(v) for v in line[len("final data:"):].split()]
        elif ":" in line:
            label, value = line.split(":", 1)
            parsed[label.strip()] = float(value)
    return parsed


def check_invariants(command, config, outputs):
    """Problems found in one invocation's outputs; an empty list means it passed."""
    steps = 2 ** config["N"]
    data_dim = 2 * (config["Y"] + 2)
    try:
        stdout = _parse_stdout(outputs["raw"]["stdout.txt"].decode("utf-8"))
    except ValueError as exc:
        return [f"stdout does not parse: {exc}"]
    problems = []
    if not _finite(v for key, v in stdout.items() if key != "final data"):
        problems.append("stdout holds a non-finite number")
    if command == "direct":
        data = stdout.get("final data", [])
        if len(data) != data_dim or not _finite(data):
            problems.append(f"direct printed {len(data)} data values, expected {data_dim} finite")
        if "final deviation" not in stdout:
            problems.append("direct printed no final deviation")
        outputs["parsed"] = {"final_data": data, "final_deviation": stdout.get("final deviation")}
        return problems
    for key in ("kl_step (final)", "kl_cumulative"):
        if not stdout.get(key, -1.0) >= 0.0:
            problems.append(f"stdout {key!r} is missing or negative")

    try:
        report = json.loads(outputs["raw"]["report.json"], parse_constant=_reject_constant)
        rows = list(csv.reader(io.StringIO(outputs["raw"]["run.csv"].decode("utf-8"))))
        body = [[float(cell) for i, cell in enumerate(row) if i != 5] for row in rows[1:]]
    except (ValueError, IndexError) as exc:
        return problems + [f"report or CSV does not parse: {exc}"]
    if len(body) != steps:
        return problems + [f"CSV has {len(body)} rows, expected {steps}"]
    if any(len(row) != 5 + data_dim for row in body):
        problems.append("a CSV row has the wrong number of cells")
    if not all(_finite(row) for row in body):
        problems.append("CSV holds a non-finite number")
    if any(row[2] < 0.0 or row[3] < 0.0 for row in body):
        problems.append("CSV holds a negative kl_step or kl_cumulative")
    if any(row[5] not in BRANCHES for row in rows[1:]):
        problems.append("CSV holds an unknown matcher branch")

    for key in ("kl_total", "kl_step_final", "kl_evolution_total"):
        if not report.get(key, -1.0) >= 0.0:
            problems.append(f"report {key!r} is missing or negative")
    for key in ("final_data", "direct_data"):
        if len(report.get(key, [])) != data_dim or not _finite(report[key]):
            problems.append(f"report {key!r} is not {data_dim} finite numbers")
    for key in ("final_deviation", "direct_gap", "reference_energy_drift"):
        if not math.isfinite(report.get(key, math.nan)):
            problems.append(f"report {key!r} is missing or non-finite")
    counts = report.get("branch_counts", {})
    if sum(counts.values()) != steps or set(counts) - set(BRANCHES):
        problems.append(f"branch counts {counts} do not sum to {steps} steps")
    if not problems:
        last = body[-1]
        if report["final_data"] != last[5:] or report["kl_total"] != last[3]:
            problems.append("report final_data or kl_total differ from the CSV's last row")
    report["csv_rows"] = len(body)
    outputs["parsed"] = report
    return problems


def load_pins(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _close(actual, expected, rtol):
    if isinstance(expected, list):
        if len(actual) != len(expected):
            return False
        diff = math.sqrt(sum((a - b) ** 2 for a, b in zip(actual, expected)))
        return diff <= rtol * math.sqrt(sum(b * b for b in expected))
    return abs(actual - expected) <= rtol * abs(expected)


def check_pins(pins, workload, outputs):
    """Compare a passing invocation at the pinned seed against ``pins.json``.

    A pin with rtol 0 (counts) must match exactly.
    """
    problems = []
    for key, pin in pins["workloads"][workload].items():
        actual = outputs["parsed"].get(key)
        if actual is None:
            problems.append(f"pinned output {key!r} is missing")
        elif pin["rtol"] == 0:
            if actual != pin["value"]:
                problems.append(f"{key} = {actual}, pinned {pin['value']}")
        elif not _close(actual, pin["value"], pin["rtol"]):
            problems.append(f"{key} differs from its pin beyond rtol {pin['rtol']}")
    return problems
