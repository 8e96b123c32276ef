"""Command-line driver: sweeps, power-law fits, impulse-interval scans.

    aia <lz|tfi|open> --config FILE [--out FILE.csv] [--threads N]
    aia fit --csv FILE --column NAME --tmin V --tmax V
    aia dtau-scan --config FILE --tf V [--out FILE.csv]

``--threads N`` computes at most N sweep rows at once, on threads of this
process; the CSV is the same byte for byte at any N. An output in a missing
directory, or a directory itself, is refused before any row or scan runs.

Exit codes: 0 success, 1 config error or an output that cannot be written, 2
numerical failure (in every row of a sweep, or in the scan's exact evolution).
"""

import argparse
import sys

from .numkit import IntegrationError
from .sweeps import (MODELS, ConfigError, fit_line, load_config, run_dtau_scan,
                     run_fit, run_sweep)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="aia",
                                     description="adiabatic-impulse sweep driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for model in MODELS:
        sweep_p = sub.add_parser(model, help=f"run a {model} sweep over t_f")
        sweep_p.add_argument("--config", required=True, help="key = value config file")
        sweep_p.add_argument("--out", default=None, help="output CSV path")
        sweep_p.add_argument("--threads", type=int, default=1,
                             help="rows computed at once, on threads (default 1)")

    fit_p = sub.add_parser("fit", help="power-law fit of a CSV column")
    fit_p.add_argument("--csv", required=True)
    fit_p.add_argument("--column", required=True)
    fit_p.add_argument("--tmin", type=float, required=True)
    fit_p.add_argument("--tmax", type=float, required=True)

    scan_p = sub.add_parser("dtau-scan", help="distance vs impulse interval at one t_f")
    scan_p.add_argument("--config", required=True)
    scan_p.add_argument("--tf", type=float, required=True)
    scan_p.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "fit":
        try:
            fr = run_fit(args.csv, args.column, args.tmin, args.tmax)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"amplitude = {fr.amplitude:.6g}")
        print(f"exponent  = {fr.exponent:.6g}")
        print(f"residual  = {fr.residual:.6g}")
        print(fit_line(args.column, fr))
        return 0

    # a sweep or a scan: one map from what can fail (the config, the rows, the
    # output file) to the exit codes
    try:
        if args.command == "dtau-scan":
            path, _, _ = run_dtau_scan(load_config(args.config), args.tf, out=args.out)
        else:
            if args.threads < 1:
                raise ConfigError(f"--threads must be >= 1, got {args.threads}")
            cfg = load_config(args.config)
            if cfg.model != args.command:
                raise ConfigError(f"config is for model {cfg.model!r}, "
                                  f"command was {args.command!r}")
            path, rows, n_failed = run_sweep(cfg, out=args.out, threads=args.threads)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.command == "dtau-scan":
        print(f"wrote impulse-interval scan to {path}")
        return 0
    print(f"wrote {len(rows)} rows to {path}" + (f" ({n_failed} failed)" if n_failed else ""))
    return 2 if n_failed == len(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
