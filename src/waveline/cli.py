"""Command-line interface.

Exit codes: 0 when every check passed, 1 when any check failed, and 2 for
configuration or output problems (an unwritable --out, a closed or broken
stdout).  Every command prints one line per check and writes
run_report.json (plus suite artifacts) to --out.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# report imports no numpy; the modules that do are imported inside main(),
# so that entry() can set the BLAS thread count before numpy loads
from .report import RunReport, format_check_line, write_json

COMMANDS = {
    "flow": "integrate the coefficient flow and compare against the exact solution",
    "lambda": "evaluate the eigenvalue three ways and test world-line independence",
    "stationary": "search for the stationary point and check the classical limit",
    "phase": "check the two-clock phase identity and its trajectory independence",
    "verify": "run every check family plus the negative-control meta-check",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="waveline",
        description="Variational checks for the free-particle action eigenvalue "
        "on discretized world lines.",
    )
    # the options every command takes, declared once and copied into each
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None, metavar="PATH",
                        help="JSON configuration file")
    shared.add_argument("--out", default="out", metavar="DIR",
                        help="directory for run_report.json and artifacts")
    shared.add_argument("--seed", type=int, default=None,
                        help="override the random seed")
    shared.add_argument("--N", type=int, default=None,
                        help="override the number of lattice intervals")
    shared.add_argument("--sigma2", default=None, metavar="V[,V...]",
                        help="override the initial curvature(s), comma-separated")
    shared.add_argument("--branch", default=None, choices=("+", "-", "+1", "-1"),
                        help="sign branch for the stationary point")
    shared.add_argument("--list", action="store_true", dest="list_checks",
                        help="print the check names this command runs and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[shared])
    return parser


def _overrides_from(args):
    overrides = {"seed": args.seed, "N": args.N, "branch": args.branch}
    if args.sigma2 is not None:
        try:
            overrides["sigma2_values"] = tuple(
                float(tok) for tok in args.sigma2.split(",") if tok.strip()
            )
        except ValueError as exc:
            from .errors import ConfigError

            raise ConfigError(f"--sigma2 expects comma-separated numbers: {exc}") from exc
    return overrides


def _print_lines(lines):
    """Print ``lines`` to stdout; return the OSError that cut them short, else None.

    Unbuffered stdout into a broken pipe raises on the first ``print``.
    """
    try:
        for line in lines:
            print(line)
    except OSError as exc:
        return exc
    return None


def main(argv=None):
    """Run one command in this process and return its exit code."""
    args = build_parser().parse_args(argv)
    from .checks import CHECK_NAMES, SUITES
    from .config import load_config
    from .errors import ConfigError

    if args.list_checks:
        error = _print_lines(CHECK_NAMES[args.command])
        if error is None:
            return 0
        print(f"output error: {error}", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config, _overrides_from(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    suite = SUITES[args.command](cfg)
    wall = time.perf_counter() - started
    report = RunReport(
        command=args.command,
        config=cfg.as_dict(),
        checks=tuple(suite.checks),
        wall_clock_s=wall,
    )

    n_pass = sum(c.passed for c in report.checks)
    # the reports are written even when stdout is gone
    error = _print_lines(
        [format_check_line(check) for check in report.checks]
        + [
            f"{args.command}: {report.overall.upper()} "
            f"({n_pass}/{len(report.checks)} checks, {wall:.2f}s)"
        ]
    )

    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "run_report.json", report.as_json_dict())
        suite.write_artifacts(out)
    except OSError as exc:
        error = exc
    if error is not None:
        print(f"output error: {error}", file=sys.stderr)
        return 2

    return 0 if report.overall == "pass" else 1


def _keep_freed_memory_mapped():
    """Stop glibc handing freed lattice memory back to the OS between sets.

    Each parameter set allocates fresh (N+1, 4) temporaries; with glibc's
    default thresholds their pages are unmapped when freed and faulted back
    in by the next set.  Elsewhere (no ``mallopt`` symbol) this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: keep 256 MiB of freed heap top
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: blocks below 32 MiB come from the heap


def entry():
    """The ``waveline`` process: ``main()`` plus three process-wide policies.

    OpenBLAS starts on one thread: the variable is set before ``main()``
    imports numpy, unless the caller's environment already sets it, because
    a second BLAS thread busy-waits for about 0.1 s of CPU after numpy loads
    and the suites' matrix products are too small to share.  Freed memory
    stays mapped while the suites run, and once ``main()`` has returned
    (every report and artifact already closed) the process flushes stdout
    and stderr and leaves with ``os._exit``, skipping interpreter teardown.
    A ``SystemExit`` from argparse or an exception escaping ``main()`` takes
    the normal interpreter exit.  Every suite, ``verify``'s five included,
    runs in this one process.  Library callers of ``main()`` get none of
    the three policies.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    _keep_freed_memory_mapped()
    code = main()
    try:
        for name in ("stdout", "stderr"):
            stream = getattr(sys, name)
            if stream is None:  # the process started with that fd closed
                raise OSError(f"{name} is closed")
            stream.flush()
    except (OSError, ValueError) as exc:  # a closed fd or file, a broken pipe
        try:
            os.write(2, f"output error: {exc}\n".encode())
        except OSError:
            pass
        os._exit(2)
    os._exit(code)


if __name__ == "__main__":
    entry()
