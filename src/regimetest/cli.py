"""Command-line front end.

Subcommands:

* ``test``      LMC/MMC linearity tests on a series file
* ``chp``       benchmark information-matrix tests on a series file
* ``study``     the size/power simulation grid
* ``fit-table`` regenerate the logistic coefficient table
* ``simulate``  emit a switching-autoregression path

Before any work, every run echoes each option it parsed except ``--out``
as ``key=value`` lines, then ``config_sha``, their hash; together with the
seed they fully determine its outputs.  ``--series`` is echoed as a path
but hashed as the sha256 of the ingested float64 values, so the same series
read from another place gives the same hash.  The echo goes to stdout,
except for ``simulate`` writing its path to stdout, where it goes to stderr.
``--out -`` means stdout for ``simulate`` and is a usage error elsewhere.  A
list value may start with a minus sign: ``--mu -1,2`` parses as
``--mu=-1,2``.
Files are written by ``harness.write_csv`` (the table by ``to_csv``), and
``main`` then prints ``# wrote PATH``.

Like an option argparse rejects, an input the library rejects with
``ValueError`` (a value out of range, an unknown method) is a usage error:
``main`` prints ``regimetest: error: <message>`` to stderr and returns 2.
"""

from __future__ import annotations

import argparse
import hashlib
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from ._seeding import DOMAIN_SIMULATE, substream
from .chp import chp_bootstrap_test
from .linearity import linearity_tests
from .harness import (
    LINEARITY_METHODS,
    PROFILES,
    STUDY_METHODS,
    SeriesDataset,
    config_digest,
    default_study_grid,
    ingest_series,
    regenerate_coeff_table,
    run_size_power_study,
    write_csv,
    write_empirical_csv,
    write_study_csv,
)
from .msar import MSARSpec, RegimeParams, TransitionMatrix, simulate_msar


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regimetest",
        description="Monte Carlo linearity tests against Markov-switching means and variances",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="LMC/MMC linearity tests on a series")
    _series_args(test)
    test.add_argument("--lags", type=int, default=4, metavar="R", help="AR lag order")
    test.add_argument("--mc", type=int, default=100, metavar="N", help="MC replicate count")
    _methods_arg(test, LINEARITY_METHODS)
    test.add_argument("--grid-points", type=int, default=None, metavar="K",
                      help="grid points per dimension for MMC (odd; default 41 for one lag, 9 otherwise)")
    test.add_argument("--seed", type=int, default=0)
    test.add_argument("--out", default=None, metavar="PATH")

    chp = sub.add_parser("chp", help="benchmark bootstrap tests on a series")
    _series_args(chp)
    chp.add_argument("--reps", type=int, default=200, metavar="B", help="bootstrap replications")
    chp.add_argument("--draws", type=int, default=200, help="nuisance draws")
    chp.add_argument("--seed", type=int, default=0)
    chp.add_argument("--out", default=None, metavar="PATH")

    study = sub.add_parser("study", help="size/power simulation grid")
    study.add_argument("--profile", choices=sorted(PROFILES), default="desk")
    study.add_argument("--reps", type=int, default=None, metavar="N",
                       help="override the profile's replication count")
    study.add_argument("--mc", type=int, default=None, metavar="N",
                       help="override the profile's MC replicate count")
    study.add_argument("--alpha", type=float, default=0.05, metavar="A")
    _methods_arg(study, STUDY_METHODS)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--workers", type=int, default=1, metavar="W")
    study.add_argument("--out", default="study_results.csv", metavar="PATH")

    fit = sub.add_parser("fit-table", help="regenerate the logistic coefficient table")
    fit.add_argument("--sizes", default="50,100,150,200,250", type=_list_of(int),
                     help="comma-separated sample sizes")
    fit.add_argument("--draws", type=int, default=1_000_000)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out", default="logistic_coeffs.csv", metavar="PATH")

    sim = sub.add_parser("simulate", help="emit a switching-autoregression path")
    sim.add_argument("--T", type=int, default=200)
    sim.add_argument("--mu", default="0,0", type=_list_of(float, 2), help="mu1,mu2")
    sim.add_argument("--sigma", default="1,1", type=_list_of(float, 2), help="sigma1,sigma2")
    sim.add_argument("--p", default="0.9,0.9", type=_list_of(float, 2), help="p11,p22")
    sim.add_argument("--phi", default="", type=_list_of(float),
                     help="comma-separated AR coefficients")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, metavar="PATH")
    return parser


def _series_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--series", required=True, metavar="PATH", help="CSV series file")
    p.add_argument("--transform", choices=("none", "logdiff100"), default="none")


def _methods_arg(p: argparse.ArgumentParser, methods: tuple[str, ...]) -> None:
    p.add_argument("--methods", default=",".join(methods), type=_list_of(str),
                   help=f"comma-separated subset of {','.join(methods)}")


def _list_of(item: type, count: int | None = None):
    """The argparse ``type=`` of a comma-separated option: its items without
    blanks, joined back with commas (the text that is echoed and hashed), once
    ``_items`` parses them to ``item`` values, ``count`` of them if given."""

    def parse(text: str) -> str:
        joined = ",".join(part.strip() for part in text.split(",") if part.strip())
        try:
            if count in (None, len(_items(joined, item))):
                return joined
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected {f'{count} ' if count else ''}comma-separated {item.__name__} values, got {text!r}"
        )

    return parse


def _items(text: str, item: type = str) -> tuple:
    """The values of a comma-separated option that ``_list_of`` parsed."""
    return tuple(item(part) for part in text.split(",")) if text else ()


def _cmd_test(args: argparse.Namespace, meta: str, dataset: SeriesDataset) -> None:
    rows = linearity_tests(dataset.values, args.lags, _items(args.methods), N=args.mc,
                           master_seed=args.seed, points_per_dim=args.grid_points)
    r = args.lags
    header = f"{'method':<10} {'p-value':>8} " + " ".join(f"{f'phi_{k+1}':>7}" for k in range(r)) + "    |z|"
    print(header)
    for row in rows:
        phis = " ".join(f"{p:7.2f}" for p in row.phi_at_report)
        print(f"{row.method:<10} {row.p_value:8.2f} {phis} {row.min_root_modulus:6.2f}")
    if args.out:
        write_empirical_csv(rows, args.out, header_meta=meta)


def _cmd_chp(args: argparse.Namespace, meta: str, dataset: SeriesDataset) -> None:
    report = chp_bootstrap_test(dataset.values, B=args.reps, draws=args.draws,
                                master_seed=args.seed)
    print(f"{'method':<8} {'statistic':>12} {'p-value':>8}")
    print(f"{'supTS':<8} {report.supTS:12.5f} {report.bootstrap_p_sup:8.3f}")
    print(f"{'expTS':<8} {report.expTS:12.5f} {report.bootstrap_p_exp:8.3f}")
    if args.out:
        write_csv(args.out, ["method", "statistic", "p_value", "B", "draws", "seed"], [
            ["supTS", repr(report.supTS), repr(report.bootstrap_p_sup), report.B, report.draws, report.seed],
            ["expTS", repr(report.expTS), repr(report.bootstrap_p_exp), report.B, report.draws, report.seed],
        ], meta)


def _cmd_study(args: argparse.Namespace, meta: str, dataset: None) -> None:
    overrides = {"replications": args.reps, "N": args.mc, "alpha": args.alpha}
    overrides = {field: value for field, value in overrides.items() if value is not None}
    grid = default_study_grid(args.profile, master_seed=args.seed, methods=_items(args.methods))
    rows = run_size_power_study([replace(cfg, **overrides) for cfg in grid], workers=args.workers)
    write_study_csv(rows, args.out, header_meta=meta)
    print(f"{'cell':<42} {'method':<9} {'reject%':>8} {'se%':>6}")
    for row in rows:
        status = "FAILED" if row.failed else f"{100 * row.reject_rate:8.1f} {100 * row.mc_se:6.1f}"
        print(f"{row.label:<42} {row.method:<9} {status}")


def _cmd_fit_table(args: argparse.Namespace, meta: str, dataset: None) -> None:
    table = regenerate_coeff_table(_items(args.sizes, int), draws=args.draws, master_seed=args.seed)
    table.to_csv(args.out)


def _cmd_simulate(args: argparse.Namespace, meta: str, dataset: None) -> None:
    mu, sigma, p = (_items(text, float) for text in (args.mu, args.sigma, args.p))
    spec = MSARSpec(RegimeParams(*mu, *sigma), TransitionMatrix(*p), _items(args.phi, float))
    y = simulate_msar(spec, args.T, substream(args.seed, DOMAIN_SIMULATE))
    if _path_to_stdout(args):
        for v in y:
            print(repr(float(v)))
    else:
        write_csv(args.out, ["value"], ([repr(float(v))] for v in y))


def _path_to_stdout(args: argparse.Namespace) -> bool:
    return args.command == "simulate" and (args.out or "-") == "-"


_HANDLERS = {
    "test": _cmd_test,
    "chp": _cmd_chp,
    "study": _cmd_study,
    "fit-table": _cmd_fit_table,
    "simulate": _cmd_simulate,
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """``OPT VALUE`` as ``OPT=VALUE`` where VALUE starts with ``-`` and a digit
    or ``.``: argparse takes a list such as ``-1,2`` for an option string."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1].startswith("--") and re.match(r"-[\d.]", arg):
            arg = f"{joined.pop()}={arg}"
        joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    if getattr(args, "series", None) is not None and not Path(args.series).is_file():
        parser.error(f"argument --series: no such file: {args.series!r}")
    if args.out == "-" and args.command != "simulate":
        parser.error(f"argument --out: only simulate writes to stdout ('-'); "
                     f"give {args.command} a file path")
    settings = {key: value for key, value in vars(args).items() if key != "out"}
    try:
        dataset = ingest_series(args.series, args.transform) if "series" in settings else None
        # the series is hashed by its values, so a copy of it anywhere is the same run
        hashed = settings if dataset is None else {
            **settings, "series": hashlib.sha256(dataset.values.astype("<f8").tobytes()).hexdigest()
        }
        digest = config_digest(hashed.items())
        # a path written to stdout must stay a clean series, so the echo goes to stderr
        echo = sys.stderr if _path_to_stdout(args) else sys.stdout
        for key in sorted(settings):
            print(f"# {key}={settings[key]}", file=echo)
        print(f"# config_sha={digest}", file=echo)
        _HANDLERS[args.command](args, f"regimetest={__version__} seed={args.seed} config_sha={digest}", dataset)
    except ValueError as exc:  # an input the library rejects is a usage error
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    if args.out and not _path_to_stdout(args):
        print(f"# wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
