"""Command-line front end.

Exit codes: 0 success, 1 validation, configuration or usage failure, 2 a
hypothesis gate refused (atomic fibers, entropy indistinguishable from
zero, unresolvable stable line).  Refusals and failures are also written
as a machine-readable record to <out>/error.csv (out/error.csv for a
usage error, whose --out may be unreadable).  A run that stops before
writing its outputs leaves error.csv alone in <out>: an earlier run's
outputs there are removed, except in a usage error's fallback out/.
"""

import argparse
import csv
import os
import sys

from . import harness
from .errors import ConfigError, FlagdimError
from .harness import GATE_ERRORS, emit_outputs, load_config
from .version import __version__


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ConfigError, not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _thread_count(text):
    """A --threads value: a whole number of threads, at least one."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _parser():
    p = _Parser(
        prog="flagdim",
        description="stationary measures of random matrix products on "
                    "flag manifolds: spectrum, fiber entropy, dimension",
        epilog="every config key can also be set via environment "
               "variables with the FLAGDIM_ prefix (e.g. FLAGDIM_SEED); "
               "command-line flags win over both")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, doc in (
            ("validate", "check the configured ensemble"),
            ("spectrum", "Lyapunov spectrum and gaps"),
            ("entropy", "fiber entropy by both estimators, each held "
                        "against its gap"),
            ("dimension", "runs verify's density legs and its dimension "
                          "reports"),
            ("verify", "spectrum, entropy and dimension end to end, "
                       "gates allowed")):
        s = sub.add_parser(name, help=doc)
        s.add_argument("--config", metavar="PATH", default=None)
        s.add_argument("--seed", metavar="U64", type=int, default=None)
        s.add_argument("--out", metavar="DIR", default=None)
        s.add_argument("--threads", metavar="N", type=_thread_count,
                       default=1)
        s.add_argument("--no-figures", action="store_true")
        s.add_argument("--ensemble", metavar="NAME", default=None)
        s.add_argument("--fiber", metavar="I", default=None)
    return p


def _config(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = int(args.seed)
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.no_figures:
        overrides["emit_figures"] = False
    if args.ensemble is not None:
        overrides["ensemble"] = args.ensemble
    if args.fiber is not None:
        overrides["fiber_index"] = args.fiber
    return load_config(args.config, overrides)


def _record_error(out_dir, code, err, keep=()):
    """Write error.csv into out_dir, first removing every other flagdim
    output there but the paths in ``keep`` (what this run wrote), so no
    earlier run's file reads as this run's.  With no out dir named yet (a
    usage error), write into out/ and remove nothing."""
    try:
        if out_dir is None:
            out_dir = "out"
        else:
            harness.remove_outputs(out_dir, keep)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "error.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["exit_code", "error_type", "message"])
            writer.writerow([code, type(err).__name__, str(err)])
    except OSError:
        pass


def main(argv=None):
    # None until --out or the config names the out dir: a usage error's
    # record goes to the fallback out/, whose other files stay
    out_dir = None
    try:
        args = _parser().parse_args(argv)
        out_dir = args.out
        cfg = _config(args)
        out_dir = cfg.out_dir
        if args.command == "validate":
            for line in harness.ensemble_report(cfg).lines():
                print(line)
            return 0
        bundle = harness.run(cfg, args.command, threads=args.threads)
        paths = emit_outputs(bundle, cfg.out_dir)
        for line in bundle.summary_lines():
            print(line)
        _, output = harness.COMMANDS[args.command]
        if not getattr(bundle, output):
            # every leg that writes the command's output was refused;
            # record the gate error of the first refused leg, as a direct
            # raise would record it
            err = bundle.first_refusal()
            _record_error(cfg.out_dir, 2,
                          FlagdimError("refused") if err is None else err,
                          keep=paths)
            return 2
        return 0
    except GATE_ERRORS as err:
        print(f"refused: {err}", file=sys.stderr)
        _record_error(out_dir, 2, err)
        return 2
    except FlagdimError as err:
        print(f"error: {err}", file=sys.stderr)
        _record_error(out_dir, 1, err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
