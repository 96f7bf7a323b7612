"""Benchmark of bilayer1d: one workload per run, one process, no threads.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its src/
folder.  A run sets up (import, inputs from the seed, warm-up), then
repeats whole rounds of the workload's operation list for --seconds,
then checks every output against the independent references in
refs.py.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the rounds alternate
untraced and traced, and the metrics are per layer (see README.md).

The host's speed drifts by up to 1.7x within minutes, so every
end-to-end time is given at a reference speed: each operation is timed
right after one call of calibrate(), and its time is scaled by
REF_CALIBRATION_S over the median calibration time of its round.
"""

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
# Time one calibrate() call takes at the reference speed; the 2-vCPU VM
# of README.md takes 100-300 us, depending on its state and workload.
REF_CALIBRATION_S = 1e-4
SETUP_CALIBRATIONS = 51


def calibrate():
    """Fixed work that shares no code with bilayer1d: scalar math in the
    interpreter with a few small numpy calls, the mix of the library's
    scalar path, so that its time tracks the machine's speed."""
    import numpy as np

    arr = np.linspace(0.1, 1.0, 256)
    total = 0.0
    for i in range(200):
        x = math.sqrt(i + 1.0) * 1.0001
        total += math.sin(x) if i & 1 else math.cos(x)
        if i % 50 == 0:
            total += float(np.sum(np.sinh(arr * x) * np.cos(arr)))
    return total


def calibration_s(repeats):
    """Median time of `repeats` calibrate() calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibrate()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_library():
    """Import bilayer1d from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bilayer1d", "__init__.py")):
        sys.exit(f"perfbench: no library source at {src}/bilayer1d")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    package = importlib.import_module("bilayer1d")
    lib = types.SimpleNamespace(package=package)
    for name in ("core", "kernels", "xfer", "bound", "oracle", "squeeze",
                 "limits", "probes", "cli"):
        setattr(lib, name, importlib.import_module(f"bilayer1d.{name}"))
    import scipy.integrate  # noqa: F401  (imported lazily by the library)
    import scipy.interpolate  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: bilayer1d was imported from {package.__file__}")
    return lib, elapsed


class Raised(str):
    """Output of an operation that raised: the exception's text."""


class Bench:
    def __init__(self, args, lib, workloads):
        self.args = args
        self.lib = lib
        self.W = workloads
        self.workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")

    # -- set-up ---------------------------------------------------------------

    def build(self):
        import numpy as np

        rng = np.random.default_rng(self.args.seed)
        if self.args.workload == "spectra":
            return self.W.spectra(self.lib, rng)
        if self.args.workload == "ladders":
            return self.W.ladders(self.lib, rng)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return self.W.cli(self.lib, rng, self.workdir)

    def setup(self):
        """Inputs and warm-up (one operation of each kind), repeated; the
        median repeat is the set-up time beside the one-off import."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = self.build()
            seen = set()
            for op in ops:
                if op.kind not in seen:
                    seen.add(op.kind)
                    self.call(op)
            times.append(time.perf_counter() - t0)
        return ops, statistics.median(times)

    # -- rounds ---------------------------------------------------------------

    @staticmethod
    def call(op):
        try:
            return op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            return Raised(f"raised {type(exc).__name__}: {exc}")

    def round(self, ops):
        """Operation times at the reference speed, raw round time, outputs."""
        clock = time.perf_counter
        times, calibrations, outs = [], [], []
        for op in ops:
            s = clock()
            calibrate()
            calibrations.append(clock() - s)
            s = clock()
            outs.append(self.call(op))
            times.append(clock() - s)
        scale = REF_CALIBRATION_S / statistics.median(calibrations)
        return [t * scale for t in times], sum(times), outs

    def digests(self, ops, outs):
        if self.args.workload == "cli":
            return [self.W.cli_digest(op, out) for op, out in zip(ops, outs)]
        return [self.W.digest_output(out) for out in outs]

    def measure(self, ops, tracer=None):
        """Rounds until --seconds have passed; with a tracer every other
        round is traced.  Round and operation times are at the reference
        speed."""
        deadline = time.perf_counter() + self.args.seconds
        rec = dict(walls=[], raw_walls=[], traced_walls=[], samples=[], kinds=[],
                   layers=[], rounds=0, unstable=set(), first=None, reference=None)
        traced = False
        while True:
            if tracer is not None and traced:
                tracer.reset()
                tracer.keep_spans = not rec["layers"]
                tracer.install()
                try:
                    times, _, outs = self.round(ops)
                finally:
                    tracer.uninstall()
                rec["traced_walls"].append(sum(times))
                rec["layers"].append(tracer.metrics())
            else:
                times, raw_wall, outs = self.round(ops)
                rec["walls"].append(sum(times))
                rec["raw_walls"].append(raw_wall)
                rec["samples"].extend(times)
                per_kind = {}
                for op, t in zip(ops, times):
                    per_kind[op.kind] = per_kind.get(op.kind, 0.0) + t
                rec["kinds"].append(per_kind)
            rec["rounds"] += 1
            digests = self.digests(ops, outs)
            if rec["first"] is None:
                rec["first"], rec["reference"] = outs, digests
            else:
                rec["unstable"].update(
                    op.name for op, d, ref in zip(ops, digests, rec["reference"]) if d != ref)
            traced = not traced
            if time.perf_counter() >= deadline and (tracer is None or rec["layers"]):
                return rec

    # -- checks ---------------------------------------------------------------

    def check(self, ops, outs, unstable):
        """Name -> problem for every operation whose output is wrong."""
        import refs

        refs.self_test()
        problems = {}
        check = {"spectra": self.W.check_spectrum, "ladders": self.W.check_ladder,
                 "cli": self.W.check_cli}[self.args.workload]
        for op, out in zip(ops, outs):
            if isinstance(out, Raised):
                problem = str(out)
            else:
                try:
                    problem = check(self.lib, op, out)
                except Exception as exc:  # an output the checks cannot read
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if op.name in unstable:
                problem = "output differs between rounds" + (f"; {problem}" if problem else "")
            if problem:
                problems[op.name] = problem
        return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("spectra", "ladders", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib, import_s = _import_library()
    sys.path.insert(0, HERE)
    import workloads

    bench = Bench(args, lib, workloads)
    try:
        ops, build_s = bench.setup()
        setup_scale = REF_CALIBRATION_S / calibration_s(SETUP_CALIBRATIONS)
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(lib)
        rec = bench.measure(ops, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            problems = bench.check(ops, rec["first"], rec["unstable"])
            self_test_ok = True
        except AssertionError as exc:
            problems, self_test_ok = {}, False
            print(f"reference self-test failed: {exc}")
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        parent = os.path.dirname(bench.workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    faults = {op.name: op.fault for op in ops}
    unexpected = sorted(n for n in problems if not faults[n])
    for name, problem in problems.items():
        label = f"known fault {faults[name]}" if faults[name] else "UNEXPECTED"
        print(f"failed: {name} [{label}]: {problem}")
    for name in sorted(n for n, f in faults.items() if f and n not in problems):
        print(f"known fault no longer reproduces: {name} [{faults[name]}]")

    rounds = rec["rounds"]
    samples = rec["samples"]
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations, "
          f"{len(samples)} timed operations, import {import_s:.3f} s, "
          f"inputs and warm-up {build_s:.3f} s, as measured")
    if rec["raw_walls"]:
        raw, ref = statistics.median(rec["raw_walls"]), statistics.median(rec["walls"])
        print(f"untraced round: {raw:.4f} s as measured, {ref:.4f} s at the reference "
              f"speed (this machine ran at {ref / raw:.2f} times the reference speed)")
    if args.workload == "cli":
        kinds = {k: statistics.median(r[k] for r in rec["kinds"]) for k in rec["kinds"][0]}
        print("per-kind time per round at the reference speed: " + ", ".join(
            f"{k}_s {v:.4f} s" for k, v in kinds.items()))

    units = _declared_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        layers = rec["layers"]
        metrics = {}
        for key, first in layers[0].items():
            timed = units.get(key) == "s"
            metrics[key] = statistics.median(r[key] for r in layers) if timed else first
        overhead = statistics.median(rec["traced_walls"]) / statistics.median(rec["walls"])
        metrics["trace.overhead_pct"] = (overhead - 1.0) * 100.0
        print(f"tracing: {len(layers)} traced rounds, overhead "
              f"{metrics['trace.overhead_pct']:.1f}% of an untraced round, "
              f"{layers[0]['trace.spans']} spans per round")
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        with open(span_file, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans of the first traced round: {span_file}")
    else:
        metrics = {
            "setup_s": (import_s + build_s) * setup_scale,
            "round_s": statistics.median(rec["walls"]),
            "peak_rss_mib": peak_rss_mib,
            "op_p50_ms": 1e3 * statistics.median(samples),
            "op_p90_ms": 1e3 * statistics.quantiles(samples, n=10)[-1],
        }
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are printed "
                 "or declared in BENCHMARK.json, not both")
    per_round_failed = len(problems)
    print(json.dumps({
        "correct": self_test_ok and not unexpected,
        "attempted": rounds * len(ops),
        "failed": rounds * per_round_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _declared_units(kind):
    """Metric name -> unit of the BENCHMARK.json entries of one kind."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
