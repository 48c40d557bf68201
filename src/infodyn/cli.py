"""Command line front end: simulate, sweep, compare-exact and direct.

All subcommands read the same flat JSON config (see
:func:`infodyn.simulator.parse_config`).  Exit status is 0 on success, 1 for
configuration and I/O problems (a step outside its validity region among
them, refused at load time), and 2 when the numerics refuse the request
(loss of positive definiteness, non-finite output).

A process enters through :func:`entry`, which ``python3 -m infodyn.cli`` and
the ``infodyn`` console script both call, and runs the command as the
short-lived process it is.  Before the run path (numpy and
:mod:`infodyn.simulator`) loads, it raises the collector's young-generation
threshold to :data:`YOUNG_THRESHOLD`, because a run makes no reference
cycles: a cold ``direct`` then makes 6 collections, not 36 (29 of them
inside ``import numpy``), and spends 3.9 ms in them, not 6.0 ms.  So this
module imports the run path only inside the commands.  Once :func:`main`
has returned, the entry shuts logging down, flushes the standard streams
and ends the process with ``os._exit``: the interpreter's teardown of
modules and objects, whose memory the operating system reclaims anyway,
took 6.7 ms of that command even with the collector frozen, and the exit
now takes 1.8 ms (Python 3.11, numpy 2.4, 2 shared vCPUs).  :func:`main`
alone, as tests and library callers run it in process, leaves the
collector and the interpreter as they were; tools that report at
interpreter exit (coverage, ``python -m cProfile``) must drive it, not the
process entry.
"""

import argparse
import gc
import logging
import os
import sys

from .errors import ConfigError, InfodynError, NonFiniteOutput, NotPositiveDefinite

NUMERIC_ERRORS = (NotPositiveDefinite, NonFiniteOutput)

# Allocations, net of deallocations, between young collections in a process
# run through entry(); CPython's default is 700.
YOUNG_THRESHOLD = 10_000


def _add_config_arg(parser):
    parser.add_argument("--config", required=True, help="path to a JSON config file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="infodyn",
        description=(
            "Iterated data-space updates of a measured Klein-Gordon field, "
            "with exact-solution comparison and convergence sweeps."
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="log per-run details (Gram conditioning, branch counts)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate", help="run the iterated update and write a per-step CSV"
    )
    _add_config_arg(p_sim)
    p_sim.add_argument("--out", default="ifd_run.csv", help="CSV output path")
    p_sim.add_argument("--report", default=None, help="optional JSON summary path")

    p_sweep = sub.add_parser(
        "sweep", help="re-run at several resolutions and fit convergence slopes"
    )
    _add_config_arg(p_sweep)
    p_sweep.add_argument(
        "--n-list",
        required=True,
        help="comma-separated resolutions, e.g. 4,5,6,7,8,9",
    )
    p_sweep.add_argument("--out", default=None, help="optional JSON output path")

    p_cmp = sub.add_parser(
        "compare-exact", help="report per-step deviation from the exact reference"
    )
    _add_config_arg(p_cmp)
    p_cmp.add_argument(
        "--out", default=None, help="optional CSV of step,t,deviation rows"
    )

    p_dir = sub.add_parser(
        "direct", help="evaluate the continuous-limit endpoint exp(T M') d(0)"
    )
    _add_config_arg(p_dir)
    return parser


def _cmd_simulate(args):
    from . import simulator
    config = simulator.load_config(args.config)
    result = simulator.run_ifd(config)
    simulator.write_csv(result, args.out)
    if args.report is not None:
        simulator.write_report(result, args.report)
    print(f"wrote {len(result.kl_step)} steps to {args.out}")
    if result.kl_step.size:
        print(f"kl_step (final)     : {result.kl_step[-1]:.6e}")
        print(f"kl_cumulative       : {result.kl_cumulative[-1]:.6e}")
    print(f"final deviation      : {result.final_deviation:.6e}")
    if result.direct_gap is not None:
        print(f"iterated-direct gap  : {result.direct_gap:.6e}")
    return 0


def _parse_n_list(text):
    try:
        values = [int(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-list must be comma-separated integers, got {text!r}") from exc
    if not values:
        raise ConfigError(f"--n-list must not be empty, got {text!r}")
    return values


def _cmd_sweep(args):
    from . import simulator
    config = simulator.load_config(args.config)
    sweep = simulator.convergence_sweep(config, _parse_n_list(args.n_list))
    payload = simulator.sweep_dict(sweep)
    if args.out is not None:
        simulator.write_json(payload, args.out)
        print(f"wrote sweep report to {args.out}")
    for name, slope in payload["slopes"].items():
        print(f"slope {name:18s}: {slope:+.4f}")
    return 0


def _cmd_compare_exact(args):
    from . import simulator
    config = simulator.load_config(args.config)
    result = simulator.run_ifd(config)
    if args.out is not None:
        simulator.write_deviation_csv(result, args.out)
        print(f"wrote deviations to {args.out}")
    if result.exact_deviation.size:
        print(f"max deviation        : {result.exact_deviation.max():.6e}")
    print(f"final deviation      : {result.final_deviation:.6e}")
    print(f"reference energy drift: {result.reference_energy_drift:.6e}")
    return 0


def _cmd_direct(args):
    from . import simulator
    config = simulator.load_config(args.config, scheme=simulator.SCHEME_DIRECT)
    result = simulator.run_ifd(config)
    final_data = result.final_data.tolist()
    print("final data:", " ".join(simulator.CSV_FLOAT_FORMAT % x for x in final_data))
    print(f"final deviation      : {result.final_deviation:.6e}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare-exact": _cmd_compare_exact,
    "direct": _cmd_direct,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfodynError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    """Run :func:`main` on ``sys.argv`` and end the process with its status.

    Every output file is closed when :func:`main` returns, so after logging's
    shutdown and the flush of stdout and stderr nothing is left to write.
    If a flush fails, the interpreter's own exit runs and reports it.  A
    ``SystemExit`` from argument parsing, or any exception, leaves through
    the ordinary exit too.
    """
    gc.set_threshold(YOUNG_THRESHOLD)
    status = main()
    logging.shutdown()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    entry()
