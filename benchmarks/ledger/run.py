#!/usr/bin/env python3
"""Two-clock performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py                  # all workloads
    python3 benchmarks/ledger/run.py --workload occ_8c --trace 1
    python3 benchmarks/ledger/run.py --check-repeat   # two sets, compared
    python3 benchmarks/ledger/run.py --workload primitives

With ``--workload`` the process measures that workload for
``--seconds`` and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without it, every workload runs in its own fresh
subprocess, one after the other, in both modes.  See README.md.
"""

import argparse
import gc
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
DECLARATION = ROOT / "BENCHMARK.json"

#: Traced repetitions made even when ``--seconds`` is too short.
MIN_TRACED_REPS = 3


def _import_program():
    """Import the checkout's own ``repro`` (never an installed copy)
    and the ledger's modules; returns the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro.core  # noqa: F401
    import repro.storage.sharding  # noqa: F401
    import measure  # noqa: F401
    import metrics  # noqa: F401
    import primitives  # noqa: F401
    return time.perf_counter() - start


def _declared():
    with open(DECLARATION) as fh:
        return json.load(fh)


def _units(declared, kind):
    return {m["name"]: m["unit"] for m in declared[kind]}


# ----------------------------------------------------------------------
# One workload, one mode, this process
# ----------------------------------------------------------------------

class Run:
    """The repetitions of one workload in this process.  Repetition
    ``i`` replays input stream ``i % STREAMS``; the simulated metrics
    pool one repetition of every stream."""

    def __init__(self, workload, seed, quick):
        import measure
        from workloads import STREAMS, cells_of, stream_seed

        self.cells = cells_of(workload, quick)
        self.streams = [
            [measure.Inputs.make(cell, stream_seed(seed, stream))
             for cell in self.cells]
            for stream in range(STREAMS)
        ]
        # The inputs live as long as the process: keep the collector
        # from re-walking them whenever the program's allocations
        # trigger a collection inside a timed window.
        gc.freeze()
        self.references = {}
        self.deterministic = True
        self.attempted = self.failed = 0

    def rep(self, stream, **kwargs):
        """One repetition of ``stream``; it must reproduce the stream's
        first repetition exactly in everything simulated, whatever was
        traced or profiled."""
        import measure

        gc.collect()  # the previous repetition's engine, outside any timer
        rep = measure.run_rep(self.cells, self.streams[stream], **kwargs)
        signature = measure.simulated_signature(rep)
        if self.references.setdefault(stream, signature) != signature:
            self.deterministic = False
            print("ledger: a repetition of stream %d differs from the first "
                  "one in its simulated results (%s)" % (stream, kwargs),
                  file=sys.stderr)
        self.attempted += sum(c["attempted"] for c in rep)
        self.failed += sum(c["failed"] for c in rep)
        return rep

    def every_stream(self, deadline=None):
        """A warm-up, then one repetition per stream in turn: at least
        one of each, and with a ``deadline`` further rounds until the
        next repetition would cross it."""
        streams = len(self.streams)
        self.rep(streams - 1)
        reps = []
        longest = 0.0
        while len(reps) < streams or (
            deadline is not None
            and time.perf_counter() + longest < deadline
        ):
            start = time.perf_counter()
            reps.append(self.rep(len(reps) % streams))
            longest = max(longest, time.perf_counter() - start)
        return reps


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pooled(reps, streams):
    """The cells of the first repetition of every stream."""
    return [cell for rep in reps[:streams] for cell in rep]


def measure_end_to_end(run, seconds):
    """``--trace 0``: tracing off; simulated metrics pooled over one
    repetition of every stream, host metrics as medians over all."""
    import metrics

    reps = run.every_stream(time.perf_counter() + seconds)
    values, samples = metrics.end_to_end_simulated(
        _pooled(reps, len(run.streams)))
    rates = [metrics.host_txn_per_s(rep) for rep in reps]
    setups = [sum(c["setup_s"] for c in rep) for rep in reps]
    values["host_txn_per_s"] = statistics.median(rates)
    values["setup_s"] = statistics.median(setups)
    values["host_peak_rss_mb"] = _peak_rss_mb()
    notes = {
        "host_txn_per_s": "q1 %.1f q3 %.1f over %d reps" % (
            *metrics.quartiles(rates), len(rates)),
        "setup_s": "q1 %.4f q3 %.4f over %d reps" % (
            *metrics.quartiles(setups), len(setups)),
        "sim_txn_slowest10_us": "%d latency samples" % samples,
    }
    return values, notes


def measure_per_layer(run, seconds, import_s, trace_out, quick):
    """``--trace 1``: exact counts pooled over one plain repetition of
    every stream; traced repetitions of the same streams beside them
    for the tracing overhead; one profiled repetition for the host
    split; then the primitives."""
    import cProfile

    import metrics
    import primitives
    from workloads import SCHEMES

    deadline = time.perf_counter() + seconds
    plain = run.every_stream()
    values = metrics.simulated_per_layer(_pooled(plain, len(run.streams)))

    def window(rep):
        return sum(c["host_s"] for c in rep)

    spans = []
    traced = []
    longest = 0.0
    # Stop early enough for the profiled repetition, which runs about
    # three times as long as a traced one.
    while len(traced) < MIN_TRACED_REPS or (
        len(traced) < len(plain)
        and time.perf_counter() + 4 * longest < deadline
    ):
        start = time.perf_counter()
        traced.append(run.rep(len(traced), traced=True, spans=spans,
                              rep=len(traced)))
        spans.append({"name": "rep", "parent": None, "rep": len(traced) - 1,
                      "host_start": start, "host_end": time.perf_counter()})
        longest = max(longest, time.perf_counter() - start)

    for scheme in SCHEMES:
        values["engine.host_txn_per_s." + scheme] = statistics.median(
            metrics.host_txn_per_s(rep, [c for c in rep if c["cell"] == scheme])
            for rep in plain)
    values["recovery.host_ms"] = 1000.0 * statistics.median(
        sum(c["recovery_host_s"] for c in rep) / len(rep) for rep in plain)
    values["driver.verify_host_ms"] = 1000.0 * statistics.median(
        sum(c["verify_host_s"] for c in rep) for rep in plain)
    values["driver.import_s"] = import_s
    values["obs.trace_overhead_ratio"] = statistics.median(
        window(with_ring) / window(without)
        for with_ring, without in zip(traced, plain))
    # Of stream 0 only: how many streams get traced depends on the host.
    values["obs.ring_dropped"] = sum(c["ring_dropped"] for c in traced[0])

    profiler = cProfile.Profile()
    run.rep(0, profiler=profiler)
    values.update(metrics.host_self_share(profiler, SRC / "repro"))
    values.update(primitives.run(quick))

    if trace_out:
        with open(trace_out, "w") as fh:
            json.dump(spans, fh)
            fh.write("\n")
    notes = {
        "obs.trace_overhead_ratio": "%d traced reps beside their plain twins"
                                    % len(traced),
    }
    return values, notes


def run_workload(args, import_s):
    """Measure one workload in this process; returns the exit code."""
    import primitives
    from workloads import WORKLOADS

    declared = _declared()
    if args.workload == "primitives":
        values = primitives.run(args.quick)
        units = {name: unit
                 for name, unit in _units(declared, "per_layer").items()
                 if name.startswith("prim.")}
        return _report(args, values, {}, units, True, len(values), 0)
    if args.workload not in WORKLOADS:
        print("ledger: unknown workload %r (choose from %s, primitives)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.quick)
    if args.trace:
        units = _units(declared, "per_layer")
        values, notes = measure_per_layer(
            run, args.seconds, import_s, args.trace_out, args.quick)
    else:
        units = _units(declared, "end_to_end")
        values, notes = measure_end_to_end(run, args.seconds)
    correct = run.deterministic and run.failed == 0
    return _report(args, values, notes, units, correct,
                   run.attempted, run.failed)


def _report(args, values, notes, units, correct, attempted, failed):
    if set(values) != set(units):
        print("ledger: emitted metrics differ from BENCHMARK.json: "
              "missing %s, undeclared %s" % (
                  sorted(set(units) - set(values)),
                  sorted(set(values) - set(units))), file=sys.stderr)
        return 2
    print("# %s seed %d trace %d: %d items attempted, %d failed "
          "(failed_txn_share %.6f)" % (
              args.workload, args.seed, args.trace, attempted, failed,
              failed / attempted))
    for name in sorted(values):
        print("%-44s %16.6f %-10s %s" % (
            name, values[name], units[name], notes.get(name, "")))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in sorted(values)
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Every workload, each in a fresh subprocess
# ----------------------------------------------------------------------

def run_set(args):
    """``{workload: {metric: value}}`` over both modes, plus whether
    every run was correct.  Children's reports stream through."""
    from workloads import WORKLOADS

    results = {}
    all_correct = True
    for workload in WORKLOADS:
        merged = {}
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.quick:
                command.append("--quick")
            if args.trace_out and trace:
                path = pathlib.Path(args.trace_out)
                command += ["--trace-out", str(path.with_name(
                    "%s.%s%s" % (path.stem, workload, path.suffix)))]
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode not in (0, 1) or not lines:
                print("ledger: %s --trace %d exited %d without a result"
                      % (workload, trace, child.returncode), file=sys.stderr)
                all_correct = False
                continue
            result = json.loads(lines[-1])
            all_correct = all_correct and result["correct"]
            merged.update(
                {name: m["value"] for name, m in result["metrics"].items()})
        results[workload] = merged
    return results, all_correct


def compare_sets(first, second, declared):
    """The offending ``(metric, workload, first, second)`` rows: a
    simulated metric or count that differs at all, or a bounded host
    metric whose second reading is worse by more than its bound."""
    import metrics

    bounds = {m["name"]: m for m in declared["end_to_end"]}
    offending = []
    for workload, before in first.items():
        after = second.get(workload, {})
        for name, a in before.items():
            b = after.get(name)
            if not metrics.is_host_clock(name):
                if a != b:
                    offending.append((name, workload, a, b))
            elif name in bounds and b is not None:
                sign = 1 if bounds[name]["better"] == "lower" else -1
                if sign * (b - a) > bounds[name]["bound"] * abs(a):
                    offending.append((name, workload, a, b))
    return offending


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure only this workload, in "
                        "this process (a workload name, or 'primitives')")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                        "BENCHMARK.json run_seconds; 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the work per cell (tests)")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two full sets and compare them")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the traced run's spans here as JSON")
    args = parser.parse_args(argv)

    try:
        import_s = _import_program()
        declared = _declared()
    except (ImportError, OSError) as exc:
        print("ledger: cannot load the program under test: %r" % exc,
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 2 if args.quick else declared["run_seconds"]

    if args.workload:
        return run_workload(args, import_s)
    first, correct = run_set(args)
    if not args.check_repeat:
        return 0 if correct else 1
    second, correct_again = run_set(args)
    offending = compare_sets(first, second, declared)
    for name, workload, a, b in offending:
        print("check-repeat: %s on %s: %r then %r" % (name, workload, a, b))
    print("check-repeat: %s" % ("FAILED" if offending else "ok"))
    return 0 if correct and correct_again and not offending else 1


if __name__ == "__main__":
    sys.exit(main())
