"""CLI: regenerate any paper figure, named by its ``results/`` stem.

Usage::

    python -m repro.bench fig06 fig08
    python -m repro.bench all --ops 5000
    python -m repro.bench all --parallel --out results

Without ``--ops`` every table is made at its committed size, so
``all --out results`` rewrites ``results/`` byte for byte.
``--parallel`` fans the grid cells of a figure out over worker
processes (one simulation per cell); results are merged in declared
grid order, so the output is byte-identical to a serial run.
"""

import argparse
import inspect
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
                        help="operations per data point (default: the "
                             "committed table's size)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="also write <DIR>/<figure>.txt and .csv")
    parser.add_argument("--parallel", action="store_true",
                        help="run each grid cell in its own worker process "
                             "(output is byte-identical to a serial run)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for --parallel "
                             "(default: all CPUs)")
    args = parser.parse_args(argv)
    parallel.configure(parallel=args.parallel, jobs=args.jobs)
    names = sorted(FIGURES) if "all" in args.figures else args.figures
    for name in names:
        generator = FIGURES.get(name)
        if generator is None:
            parser.error("unknown figure %r" % name)
        started = time.time()
        # The atomicity ablation and the contention-grid renders are
        # fixed-size: they take no op count.
        sized = (args.ops is not None
                 and "ops" in inspect.signature(generator).parameters)
        result = generator(ops=args.ops) if sized else generator()
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


if __name__ == "__main__":
    sys.exit(main())
