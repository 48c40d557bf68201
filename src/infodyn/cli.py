"""Command line front end: simulate, sweep, compare-exact and direct.

All subcommands read the same flat JSON config (see
:func:`infodyn.simulator.parse_config`).  Exit status is 0 on success, 1 for
configuration and I/O problems (a step outside its validity region among
them, refused at load time), and 2 when the numerics refuse the request
(loss of positive definiteness, non-finite output).
"""

import argparse
import logging
import sys

from . import simulator
from .errors import ConfigError, InfodynError, NonFiniteOutput, NotPositiveDefinite

NUMERIC_ERRORS = (NotPositiveDefinite, NonFiniteOutput)


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


if __name__ == "__main__":
    sys.exit(main())
