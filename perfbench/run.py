"""End-to-end and traced benchmark of the ``infodyn`` command line simulator.

Run from the repository root::

    python3 perfbench/run.py --workload simulate-small --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each workload is one CLI command on one generated config; the workload seed
goes into the config's ``seed`` field and the program sees nothing else.

``--trace 0`` measures end to end.  Closed loop, one client: every iteration
starts one fresh interpreter that does only the set-up (``setup_s``), then
one full CLI invocation (``wall_s``; ``cpu_s`` and ``peak_rss_mb`` from that
child's own ``os.wait4`` rusage), then one reference child that measures the
host's current speed; times are scaled by it (see ``REFERENCE_CODE``).  A
warm-up invocation at the pinned seed comes first and is checked against
``pins.json``.

``--trace 1`` runs ``trace_child.py`` in one fresh interpreter, which
alternates untraced and traced in-process CLI calls and reports per-layer
metrics.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its sample count, ``failed_frac`` and the environment.  The exit
status is 0 whenever a result was printed, and 2 when the checkout holds no
``src/infodyn`` to measure.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

# One BLAS thread: on two shared cores a second OpenBLAS thread bought no
# wall time on these matrix sizes and doubled cpu_s with spin-wait noise.
BLAS_THREADS = 1
# Every child is killed at this point, so a run always ends within 180 s.
RUN_DEADLINE_S = 170.0
MIN_SAMPLES = 3

MODEL = {"mu": 1.0, "beta": 1.0, "sigma_n2": 0.01}

WORKLOADS = {
    "simulate-small": {
        "command": "simulate",
        "config": {"n_modes": 4, "Y": 5, "T": 1.0, "N": 12, "scheme": "both"},
    },
    "simulate-wide": {
        "command": "simulate",
        "config": {"n_modes": 64, "Y": 127, "T": 0.005, "N": 5, "scheme": "both"},
    },
    "direct-long": {
        "command": "direct",
        "config": {"n_modes": 16, "Y": 31, "T": 0.05, "N": 16, "scheme": "direct"},
    },
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# The speed of a shared host drifts, by up to 40% over minutes on the
# 2-vCPU host the bounds were set on, and the drift hits every process
# alike.  So a reference child, which uses no code of this repository, runs
# between the samples, and each time sample is rescaled by the reference
# children just before and after it: t * REFERENCE_S / (their mean time).
# The time metrics are thus seconds at the reference host's speed.  The
# reference does what the workloads do, on a fixed input: start an
# interpreter, import numpy and scipy.linalg, make Python-level calls on
# small arrays and factor a dense matrix.
REFERENCE_CODE = (
    "import numpy, scipy.linalg\n"
    "rng = numpy.random.default_rng(0)\n"
    "step = rng.standard_normal((66, 66)) / 10.0\n"
    "vec = rng.standard_normal(66)\n"
    "sym = rng.standard_normal((200, 200))\n"
    "sym = sym + sym.T\n"
    "for _ in range(20000):\n"
    "    vec = step @ vec\n"
    "    vec = vec / numpy.sqrt(vec @ vec)\n"
    "    float(numpy.sum(numpy.abs(vec[1:]) ** 2))\n"
    "for _ in range(8):\n"
    "    numpy.linalg.eigh(sym)\n"
)
# Wall and CPU time of one reference child on the reference host when it
# runs fast (2 vCPUs, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one
# OpenBLAS thread).  A fixed scale: it must not change between commits.
REFERENCE_S = {"wall": 0.70, "cpu": 0.65}

SETUP_CODE = (
    "import sys, infodyn.cli\n"
    "from infodyn import simulator\n"
    "simulator.resolve_initial_data(simulator.load_config(sys.argv[1]))\n"
)


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout()


def spawn(args, stdout_path, stderr_path, deadline):
    """Run ``python3 <args>`` to completion; return (exit code, wall s, rusage).

    The rusage is this child's own, from ``os.wait4``.  A child still running
    at ``deadline`` (a ``time.monotonic`` value) is killed and reported with
    exit code None.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None, 0.0, None
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(pid, 0)
        code = os.waitstatus_to_exitcode(status)
    except ChildTimeout:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        return None, time.perf_counter() - start, None
    except BaseException:
        # Interrupted or terminated: leave no child behind.
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, time.perf_counter() - start, usage


def write_config(workdir, workload, seed):
    config = dict(WORKLOADS[workload]["config"], **MODEL, seed=seed, initial_data="generate")
    path = workdir / f"config-seed{seed}.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path, config


def cli_args(workload, config_path, rundir):
    if WORKLOADS[workload]["command"] == "direct":
        return ["-m", "infodyn.cli", "direct", "--config", str(config_path)]
    return [
        "-m", "infodyn.cli", "simulate", "--config", str(config_path),
        "--out", str(rundir / "run.csv"), "--report", str(rundir / "report.json"),
    ]


def environment():
    """What the children run on; numpy is imported here only to name its BLAS."""
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


class Invocation:
    """One CLI child: run it, check its outputs, remember timings and a digest."""

    def __init__(self, workload, config_path, config, rundir, deadline):
        rundir.mkdir(parents=True, exist_ok=True)
        stdout_path = rundir / "stdout.txt"
        self.code, self.wall_s, usage = spawn(
            cli_args(workload, config_path, rundir), stdout_path, rundir / "stderr.txt", deadline
        )
        self.cpu_s = usage.ru_utime + usage.ru_stime if usage else None
        self.peak_rss_mb = usage.ru_maxrss / 1024.0 if usage else None  # ru_maxrss is KiB
        self.problems = []
        self.outputs = {}
        if self.code != 0:
            self.problems.append(f"exit status {self.code}")
            return
        self.outputs = checks.read_outputs(WORKLOADS[workload]["command"], rundir)
        self.problems = checks.check_invariants(WORKLOADS[workload]["command"], config, self.outputs)
        self.digest = hashlib.sha256(
            b"".join(self.outputs["raw"][k] for k in sorted(self.outputs["raw"]))
        ).hexdigest()


def median(values):
    # Empty only when every child was killed, and then the run is failed.
    return statistics.median(values) if values else 0.0


def run_end_to_end(workload, seed, seconds, workdir, deadline):
    pins = checks.load_pins(BENCH_DIR / "pins.json")
    pin_seed = pins["seed"]
    config_path, config = write_config(workdir, workload, seed)
    pin_path, pin_config = write_config(workdir, workload, pin_seed)

    failures = {}  # child label -> problems; one entry per failed child
    attempted = 1
    warm = Invocation(workload, pin_path, pin_config, workdir / "warmup", deadline)
    warm_problems = warm.problems or checks.check_pins(pins, workload, warm.outputs)
    if warm_problems:
        failures["warm-up at pinned seed"] = warm_problems

    def reference(label):
        nonlocal attempted
        attempted += 1
        code, wall, usage = spawn(
            ["-c", REFERENCE_CODE], workdir / "reference.out", workdir / "reference.err", deadline
        )
        if code != 0:
            failures[f"reference {label}"] = [f"exit status {code}"]
            return None
        references.append(wall)
        return wall, usage.ru_utime + usage.ru_stime

    walls, cpus, rsss, setups = [], [], [], []
    raw = {"wall_s": [], "cpu_s": [], "setup_s": []}
    references = []
    digests = set()
    start = time.monotonic()
    ref_before = reference("first")
    last_iteration = 0.0
    while ref_before and (
        len(walls) < MIN_SAMPLES or time.monotonic() - start + last_iteration <= seconds
    ):
        iteration_start = time.monotonic()
        index = len(walls)
        rundir = workdir / f"sample{index}"
        rundir.mkdir(parents=True, exist_ok=True)
        attempted += 2
        code, setup_s, _ = spawn(
            ["-c", SETUP_CODE, str(config_path)], rundir / "setup.out", rundir / "setup.err", deadline
        )
        if code != 0:
            failures[f"set-up probe {index}"] = [f"exit status {code}"]
        inv = Invocation(workload, config_path, config, rundir, deadline)
        ref_after = reference(index)
        problems = list(inv.problems)
        if not problems:
            if seed == pin_seed:
                problems += checks.check_pins(pins, workload, inv.outputs)
            digests.add(inv.digest)
            if len(digests) > 1:
                problems.append("outputs differ from an earlier invocation with the same seed")
        if problems:
            failures[f"invocation {index}"] = problems
        elif code == 0:
            shutil.rmtree(rundir)
        if inv.code is None or ref_after is None:
            break
        wall_scale = 2.0 * REFERENCE_S["wall"] / (ref_before[0] + ref_after[0])
        cpu_scale = 2.0 * REFERENCE_S["cpu"] / (ref_before[1] + ref_after[1])
        ref_before = ref_after
        walls.append(inv.wall_s * wall_scale)
        cpus.append(inv.cpu_s * cpu_scale)
        rsss.append(inv.peak_rss_mb)
        setups.append(setup_s * wall_scale)
        raw["wall_s"].append(inv.wall_s)
        raw["cpu_s"].append(inv.cpu_s)
        raw["setup_s"].append(setup_s)
        last_iteration = time.monotonic() - iteration_start

    samples = {"wall_s": walls, "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setups}
    metrics = {
        name: {"value": median(samples[name]), "unit": unit, "samples": samples[name]}
        for name, unit in E2E_UNITS.items()
    }
    for name, values in raw.items():
        metrics[name]["raw"] = values
    metrics["reference_s"] = {"value": median(references), "unit": "s", "samples": references}
    return attempted, failures, metrics


def run_traced(workload, seed, seconds, workdir, deadline):
    pins = checks.load_pins(BENCH_DIR / "pins.json")
    config_path, config = write_config(workdir, workload, seed)
    result_path = workdir / "trace.json"
    code, _, _ = spawn(
        [
            str(BENCH_DIR / "trace_child.py"),
            "--config", str(config_path),
            "--command", WORKLOADS[workload]["command"],
            "--seconds", str(seconds),
            "--outdir", str(workdir),
        ],
        workdir / "trace.out",
        workdir / "trace.err",
        deadline,
    )
    if code != 0 or not result_path.is_file():
        return 1, {"traced run": [f"exit status {code}; see {workdir / 'trace.err'}"]}, {}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    failures = result["failures"]
    for label in result["calls"]:
        outputs = checks.read_outputs(WORKLOADS[workload]["command"], workdir / label)
        problems = checks.check_invariants(WORKLOADS[workload]["command"], config, outputs)
        if not problems and seed == pins["seed"]:
            problems = checks.check_pins(pins, workload, outputs)
        if problems:
            failures.setdefault(label, []).extend(problems)
    return len(result["calls"]), failures, result["metrics"]


def run_workload(workload, seed, seconds, trace):
    workdir = OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    runner = run_traced if trace else run_end_to_end
    attempted, failures, metrics = runner(workload, seed, seconds, workdir, deadline)
    result = {"attempted": attempted, "failures": failures, "metrics": metrics}
    (workdir / "result.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def print_result(workload, result):
    """One line per metric: median, unit, sample count and quartiles."""
    print(f"[{workload}]")
    for name, metric in result["metrics"].items():
        samples = metric["samples"]
        line = f"  {name:38s} {metric['value']:12.6g} {metric['unit']:10s} n={len(samples)}"
        if len(samples) > 1 and metric["unit"] in ("s", "MB", "ratio"):
            q1, _, q3 = statistics.quantiles(samples, n=4)
            line += f"  quartiles {q1:.6g} .. {q3:.6g}"
        if "raw" in metric:
            line += f"  unscaled median {median(metric['raw']):.6g}"
        print(line)
    frac = len(result["failures"]) / result["attempted"]
    print(f"  {'failed_frac':38s} {frac:12.6g} {'ratio':10s} n={result['attempted']}")
    for label, problems in result["failures"].items():
        for problem in problems:
            print(f"  FAILED {label}: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "infodyn" / "cli.py").is_file():
        print(f"error: no infodyn sources under {SRC}", file=sys.stderr)
        return 2

    # Children inherit this environment.
    os.environ["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    print("env " + json.dumps(environment(), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        print_result(workload, result)
        attempted += result["attempted"]
        failed += len(result["failures"])
        prefix = "" if len(names) == 1 else f"{workload}."
        for name, metric in result["metrics"].items():
            if args.trace or name in E2E_UNITS:
                metrics[prefix + name] = {"value": metric["value"], "unit": metric["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
