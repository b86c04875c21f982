#!/usr/bin/env python3
"""Interleaved host-clock pairs: two checkouts, one ledger workload.

    python3 benchmarks/host_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD N
    python3 benchmarks/host_pairs.py ../parent . mixed_8c_2pl 20 --quick

Starts one long-lived worker per checkout.  Each imports that
checkout's own ``repro`` and ``benchmarks/ledger`` and replays the
ledger's ``run_rep`` on the ledger's seeded input streams.  Pair ``i``
runs stream ``i % 8`` on both workers, the parent first on even pairs
and the change first on odd ones, so slow drift of the host falls on
both sides alike.  After one untimed warm-up repetition each, it prints
every pair's ``host_txn_per_s``, then each side's median, the median
of the per-pair ratios (change / parent) with their quartiles, and how
many pairs the change was ahead in.  It also reports whether both
sides produced the same simulated results (the ledger's
``simulated_signature``) on every pair.

On a host whose timing swings 2x between runs, a one-shot comparison
of two ledger runs says little; paired, alternating repetitions in two
warm processes do.  This is a measuring tool, not a gate: the exit
code is 0 unless a worker fails.
"""

import argparse
import gc
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys


def worker(checkout, workload, seed, quick):
    """Serve ``rep STREAM`` lines on stdin: one repetition each,
    answered with one JSON line on stdout."""
    root = pathlib.Path(checkout).resolve()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(root / "benchmarks" / "ledger"))
    import measure
    import metrics
    from workloads import STREAMS, cells_of, stream_seed

    cells = cells_of(workload, quick)
    streams = [
        [measure.Inputs.make(cell, stream_seed(seed, stream)) for cell in cells]
        for stream in range(STREAMS)
    ]
    gc.freeze()  # as the ledger does: the inputs live as long as we do
    print(json.dumps({"streams": STREAMS}), flush=True)
    for line in sys.stdin:
        stream = int(line.split()[1])
        gc.collect()
        rep = measure.run_rep(cells, streams[stream])
        signature = json.dumps(measure.simulated_signature(rep),
                               sort_keys=True, default=repr)
        print(json.dumps({
            "rate": metrics.host_txn_per_s(rep),
            "signature": hashlib.sha256(signature.encode()).hexdigest(),
        }), flush=True)


class _Worker:
    def __init__(self, checkout, args):
        command = [sys.executable, __file__, "--worker", str(checkout),
                   args.workload, "--seed", str(args.seed)]
        if args.quick:
            command.append("--quick")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.streams = self._answer()["streams"]

    def _answer(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("worker exited (code %s)" % self.process.wait())
        return json.loads(line)

    def rep(self, stream):
        self.process.stdin.write("rep %d\n" % stream)
        self.process.stdin.flush()
        return self._answer()

    def close(self):
        self.process.stdin.close()
        self.process.wait()


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout measured as the baseline")
    parser.add_argument("change", help="checkout measured against it")
    parser.add_argument("workload", help="a ledger workload name")
    parser.add_argument("pairs", type=int, help="number of pairs")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="the ledger's --quick cell sizes")
    args = parser.parse_args(argv)

    sides = {"parent": _Worker(args.parent, args),
             "change": _Worker(args.change, args)}
    try:
        for side in sides.values():  # warm-up, untimed
            side.rep(side.streams - 1)
        rates = {"parent": [], "change": []}
        same = True
        for pair in range(args.pairs):
            stream = pair % sides["parent"].streams
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            answers = {name: sides[name].rep(stream) for name in order}
            for name in rates:
                rates[name].append(answers[name]["rate"])
            same = same and (answers["parent"]["signature"]
                             == answers["change"]["signature"])
            print("pair %2d stream %d  parent %10.1f  change %10.1f  x%.3f" % (
                pair, stream, rates["parent"][-1], rates["change"][-1],
                rates["change"][-1] / rates["parent"][-1]), flush=True)
    finally:
        for side in sides.values():
            side.close()

    ratios = [c / p for p, c in zip(rates["parent"], rates["change"])]
    ahead = sum(r > 1.0 for r in ratios)
    print("%s: host_txn_per_s median parent %.1f, change %.1f" % (
        args.workload, statistics.median(rates["parent"]),
        statistics.median(rates["change"])))
    print("ratio change/parent: median x%.3f (q1 %.3f, q3 %.3f); "
          "change ahead in %d of %d pairs" % (
              statistics.median(ratios), *quartiles(ratios), ahead,
              len(ratios)))
    print("simulated results: %s" % (
        "identical on every pair" if same else "DIFFER between the sides"))
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        parser = argparse.ArgumentParser()
        parser.add_argument("checkout")
        parser.add_argument("workload")
        parser.add_argument("--seed", type=int, default=7)
        parser.add_argument("--quick", action="store_true")
        ns = parser.parse_args(sys.argv[2:])
        worker(ns.checkout, ns.workload, ns.seed, ns.quick)
    else:
        sys.exit(main())
