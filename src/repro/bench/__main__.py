"""CLI: regenerate any paper figure.

Usage::

    python -m repro.bench fig6 fig8
    python -m repro.bench all --ops 5000
    python -m repro.bench --parallel fig6 fig9

``--parallel`` fans the grid cells of a figure out over worker
processes (one simulation per cell); results are merged in declared
grid order, so the output is byte-identical to a serial run.
"""

import argparse
import sys
import time

from repro.bench import parallel
from repro.bench.figures import FIGURES


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation figures "
                    "(simulated-time results).",
    )
    parser.add_argument(
        "figures", nargs="+",
        help="figure names (%s) or 'all'" % ", ".join(sorted(FIGURES)),
    )
    parser.add_argument("--ops", type=int, default=None,
                        help="operations per data point (default: "
                             "REPRO_BENCH_OPS or 1500)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write <DIR>/<figure>.txt and .csv")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--parallel", action="store_true",
                      help="run each grid cell in its own worker process "
                           "(output is byte-identical to --serial)")
    mode.add_argument("--serial", action="store_true",
                      help="run grid cells in-process (the default)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for --parallel "
                             "(default: all CPUs)")
    args = parser.parse_args(argv)
    parallel.configure(
        parallel=True if args.parallel else (False if args.serial else None),
        jobs=args.jobs,
    )
    names = sorted(FIGURES) if "all" in args.figures else args.figures
    for name in names:
        generator = FIGURES.get(name)
        if generator is None:
            parser.error("unknown figure %r" % name)
        started = time.time()
        result = generator(args.ops) if _takes_ops(name) else generator()
        print(result["table"])
        print("[%s generated in %.1fs wall time]" % (name, time.time() - started))
        print()
        if args.out:
            import pathlib

            from repro.bench.report import table_to_csv

            directory = pathlib.Path(args.out)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / ("%s.txt" % name)).write_text(result["table"] + "\n")
            (directory / ("%s.csv" % name)).write_text(
                table_to_csv(result["table"])
            )
    return 0


def _takes_ops(name):
    """False for the fixed-size tables: the atomicity ablation and the
    renders of the contention grid."""
    return name not in ("ablation_atomicity", "fig13", "fig14", "fig15")


if __name__ == "__main__":
    sys.exit(main())
