"""Traced in-process run of one CLI command, with per-layer metrics.

Started by ``run.py --trace 1`` in a fresh interpreter with ``src`` on the
path.  It alternates untraced and traced calls of ``infodyn.cli.main`` (each
in its own directory, with the same relative output names) for about
``--seconds``, and writes ``trace.json`` and ``spans.csv.gz`` to ``--outdir``.

Tracing wraps, from outside the package, every public function and every
dataclass ``__post_init__`` of the six library modules, and rebinds every
module attribute that names a wrapped function, so by-name imports such as
``matching.wiener_filter`` are traced too.  Each call becomes one span
(name, start, end, parent, run id); a span's self time is its duration minus
the durations of its direct children.  Spans stay in memory during a call
and are written out after it, outside the timed region.
"""

import argparse
import contextlib
import dataclasses
import functools
import gzip
import importlib
import io
import json
import os
import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

import checks

LAYERS = ("matfun", "gaussian", "dynamics", "matching", "kleingordon", "simulator")
# Model assembly: the functions that build the response, prior, generator and update matrix.
ASSEMBLY = (
    "build_prior_cov", "build_response", "lift_response", "build_generator", "exact_step",
    "rphi_rt_diag", "update_generator", "build_update_matrix", "prior_density", "measurement",
)


class Tracer:
    """Installs span-recording wrappers into the library modules and removes them."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.n3_sum = 0
        self.branches = Counter()
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        if name == "matfun.spectral_decompose":
            def note(args, result):
                self.n3_sum += len(result[0]) ** 3
        elif name == "matching.match":
            def note(args, result):
                self.branches[result.branch] += 1
        else:
            note = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if note is not None:
                note(args, result)
            return result

        return traced

    def install(self):
        wrapped = {}
        for layer, module in self.modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if dataclasses.is_dataclass(value) and isinstance(value, type):
                    if value.__module__ == module.__name__ and "__post_init__" in vars(value):
                        hook = vars(value)["__post_init__"]
                        self._saved.append((value, "__post_init__", hook))
                        setattr(value, "__post_init__",
                                self._wrap(f"{layer}.{value.__name__}.__post_init__", hook))
                elif isinstance(value, types.FunctionType) and value.__module__ == module.__name__:
                    wrapped[value] = self._wrap(f"{layer}.{attr}", value)
        # Rebind every name that refers to a wrapped function, in every module
        # of the package, so imports by name see the traced version.
        for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "infodyn"]:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self):
        """Spans and counters of the last traced call; resets them."""
        spans, n3, branches = list(self.spans), self.n3_sum, dict(self.branches)
        self.spans.clear()
        self.n3_sum = 0
        self.branches.clear()
        return spans, n3, branches


def layer_metrics(spans, n3_sum, branches, steps, wall):
    """Per-layer metrics of one traced call."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    calls = Counter()
    for (name, start, end, _, _), covered in zip(spans, child):
        self_s[name.split(".")[0]] += end - start - covered
        inclusive[name] += end - start
        calls[name] += 1
    metrics = {
        "trace.wall_s": (wall, "s"),
        "matfun.self_s": (self_s["matfun"], "s"),
        "matfun.spectral_decompose.calls": (calls["matfun.spectral_decompose"], "count"),
        "matfun.spectral_decompose.s": (inclusive["matfun.spectral_decompose"], "s"),
        "matfun.spectral_decompose.n3_sum": (n3_sum, "count"),
        "matfun.symmetrize.calls": (calls["matfun.symmetrize"], "count"),
        "matfun.expm_general.s": (inclusive["matfun.expm_general"], "s"),
        "gaussian.self_s": (self_s["gaussian"], "s"),
        "gaussian.density.calls": (calls["gaussian.GaussianDensity.__post_init__"], "count"),
        "gaussian.kl_divergence.calls": (calls["gaussian.kl_divergence"], "count"),
        "gaussian.wiener_filter.calls": (calls["gaussian.wiener_filter"], "count"),
        "gaussian.posterior.calls": (calls["gaussian.posterior"], "count"),
        "dynamics.self_s": (self_s["dynamics"], "s"),
        "dynamics.affine.calls": (calls["dynamics.AffineDynamics.__post_init__"], "count"),
        "matching.self_s": (self_s["matching"], "s"),
        "matching.problem.calls": (calls["matching.MatchProblem.__post_init__"], "count"),
        "matching.match.calls": (calls["matching.match"], "count"),
        "kleingordon.self_s": (self_s["kleingordon"], "s"),
        "kleingordon.assembly.calls": (sum(calls[f"kleingordon.{n}"] for n in ASSEMBLY), "count"),
        "kleingordon.data_gram_condition.calls": (calls["kleingordon.data_gram_condition"], "count"),
        "kleingordon.field_energy.calls": (calls["kleingordon.field_energy"], "count"),
        "kleingordon.field_energy.s": (inclusive["kleingordon.field_energy"], "s"),
        "simulator.self_s": (self_s["simulator"], "s"),
        "simulator.exact_reference.s": (inclusive["simulator.run_exact_reference"], "s"),
        "simulator.resolve_initial_data.s": (inclusive["simulator.resolve_initial_data"], "s"),
        "simulator.write_csv.s": (inclusive["simulator.write_csv"], "s"),
        "simulator.write_report.s": (inclusive["simulator.write_report"], "s"),
        "per_step.eigh": (calls["matfun.spectral_decompose"] / steps, "count/step"),
        "per_step.density": (calls["gaussian.GaussianDensity.__post_init__"] / steps, "count/step"),
    }
    for branch in ("regular", "zero", "projected"):
        metrics[f"matching.branch.{branch}"] = (branches.get(branch, 0), "count")
    return metrics


def call_cli(cli, argv, rundir):
    """Run ``cli.main(argv)`` inside ``rundir``; return (exit code, wall s)."""
    rundir.mkdir(parents=True, exist_ok=True)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(rundir)
    try:
        with contextlib.redirect_stdout(stdout):
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    (rundir / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return code, wall


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--command", required=True, choices=("simulate", "direct"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args()

    from infodyn import cli

    modules = {name: importlib.import_module(f"infodyn.{name}") for name in LAYERS}
    outdir = Path(args.outdir)
    steps = 2 ** json.loads(Path(args.config).read_text(encoding="utf-8"))["N"]
    argv = [args.command, "--config", str(Path(args.config).resolve())]
    if args.command == "simulate":
        argv += ["--out", "run.csv", "--report", "report.json"]

    tracer = Tracer(modules)
    plain_walls, traced_walls, per_call, calls = [], [], [], []
    failures = {}  # call label -> problems; one entry per failed call
    start = time.monotonic()
    pair = 0
    with gzip.open(outdir / "spans.csv.gz", "wt", compresslevel=1, encoding="utf-8") as span_file:
        span_file.write("name,start,end,parent,run_id\n")
        # Go on while one more pair of the mean length fits in the budget.
        while pair == 0 or (time.monotonic() - start) * (pair + 1) / pair <= args.seconds:
            plain, traced = f"pair{pair}-untraced", f"pair{pair}-traced"
            calls += [plain, traced]
            # Alternate which side runs first so warm-up favours neither.
            for label in (plain, traced) if pair % 2 == 0 else (traced, plain):
                if label == traced:
                    tracer.run_id = pair
                    tracer.install()
                    try:
                        code, wall = call_cli(cli, argv, outdir / label)
                    finally:
                        tracer.uninstall()
                    spans, n3_sum, branches = tracer.take()
                    span_file.writelines(f"{n},{s!r},{e!r},{p},{r}\n" for n, s, e, p, r in spans)
                    per_call.append(layer_metrics(spans, n3_sum, branches, steps, wall))
                    traced_walls.append(wall)
                else:
                    code, wall = call_cli(cli, argv, outdir / label)
                    plain_walls.append(wall)
                if code != 0:
                    failures.setdefault(label, []).append(f"exit status {code}")
            for name in checks.SIMULATE_FILES:
                a, b = outdir / plain / name, outdir / traced / name
                if a.is_file() != b.is_file() or (a.is_file() and a.read_bytes() != b.read_bytes()):
                    failures.setdefault(traced, []).append(f"{name} differs from the untraced call's")
            pair += 1

    # Times are medians over the traced calls; counts must repeat exactly.
    metrics = {}
    for name, (_, unit) in per_call[0].items():
        values = [m[name][0] for m in per_call]
        if unit != "s":
            for index, value in enumerate(values):
                if value != values[0]:
                    failures.setdefault(f"pair{index}-traced", []).append(
                        f"{name} = {value}, but {values[0]} in the first traced call"
                    )
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[name] = {"value": value, "unit": unit, "samples": values}
    overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    overheads = [t / p - 1.0 for t, p in zip(traced_walls, plain_walls)]
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio", "samples": overheads}
    result = {"calls": calls, "failures": failures, "metrics": metrics}
    (outdir / "trace.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
