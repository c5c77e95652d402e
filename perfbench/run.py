"""Benchmark of the butterflyseq command line, end to end and layer by layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``.  The
seeded request list (workloads.py) is served in whole passes until
``--seconds`` have been spent.  Each pass is a fresh interpreter (serve.py):
a closed loop with a single client that calls ``butterflyseq.cli.main(argv)``
in-process, one request after the other, with stdout captured.  No state
carries over from one pass to the next, as none carries over from one
command-line call to the next.  Every request's exit code and stdout digest
is checked against its reference (reference.py).  The last line of stdout is
one JSON object; a table of every metric with its unit and sample count goes
to stderr, with fail_ratio (failed requests over attempted).

``--trace 0`` reports the end-to-end metrics:

  setup_s      median of 25 fresh interpreters timed to `import butterflyseq.cli`
               done, spread over the run
  wall_s       median over the passes of the time to serve the whole list
  req_p50_ms   median latency (cli.main call + stdout capture) over the
               requests of every pass
  req_p90_ms   their 90th percentile (nearest rank)
  peak_rss_mb  median over the passes of the serving process's peak resident set

The speed of a shared host drifts by a fifth and more over minutes, and
moves every timing of a run with it.  So the end-to-end times are given at a
reference speed.  This process and every interpreter it starts are pinned
to one CPU.  A fixed block of pure-Python work (``calibration_block``) is
timed here before and after every chunk of about CHUNK_S seconds of
requests, while the serving interpreter waits, and each latency in the
chunk is multiplied by CAL_REF_S over the mean of those two calibrations.
Set-up samples are scaled the same way by bare interpreter starts
(``python3 -c pass``, START_REF_S) timed before and after every few of
them.  Neither reference depends on anything in ``src``, so a change to the
package moves the scaled times as it moves the raw ones.  stderr also shows
the unscaled medians.

``--trace 1`` serves the same untraced passes, then one traced pass and the
probes, each in a fresh interpreter of its own.  The traced pass ends with
one small request per verb (workloads.COVERAGE).  It reports the per-layer
metrics of the workload's requests, a metric they leave empty being read from
the coverage requests (tracing.py), the probes (single library calls no
command reaches) and trace.overhead_ratio (the traced pass over the median
untraced one, both scaled), and writes the spans to perfbench/out/.  The
per-layer times are not scaled.
"""

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

from reference import Reference, judge
from serve import HERE, SRC
import workloads

ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 25
SETUP_PER_PASS = 3
CHILD_TIMEOUT = 150     # seconds; a run must end within 180
# the reference speed: calibration_block takes this long (about its median
# on a shared 2-vCPU virtual machine with Python 3.11.7)
CAL_REF_S = 0.09
START_REF_S = 0.08      # likewise, `python3 -c pass` takes this long

perf = time.perf_counter


def _strict_partitions(n, top):
    if n == 0:
        yield ()
        return
    for k in range(min(n, top), 0, -1):
        for rest in _strict_partitions(n - k, k - 1):
            yield (k,) + rest


def calibration_block():
    """Fixed pure-Python work like the package's and its command line's: a
    recursive generator of tuples, a big-integer table, text formatting and
    argument parsers."""
    odd = sum(1 for p in _strict_partitions(48, 48) if len(p) % 2)
    table = [1] + [0] * 700
    for k in range(1, 701):
        for n in range(700, k - 1, -1):
            table[n] += table[n - k]
    text = "\n".join("%d %d" % (n, v) for n, v in enumerate(table[::3]))
    parsed = 0
    for i in range(12):
        parser = argparse.ArgumentParser(prog="calibration")
        verbs = parser.add_subparsers(dest="verb")
        for v in range(12):
            verb = verbs.add_parser("verb%d" % v, help="verb %d" % v)
            verb.add_argument("n", type=int)
            verb.add_argument("--to", type=int, default=10)
            verb.add_argument("--json", action="store_true")
        parsed += parser.parse_args(["verb%d" % i, str(i), "--to", "5"]).n
    return odd, len(text), parsed


class Clock:
    """Calibrations of this CPU's speed (seconds per calibration_block)."""

    def __init__(self):
        self.samples = []

    def calibrate(self):
        t0 = perf()
        calibration_block()
        self.samples.append(perf() - t0)
        return self.samples[-1]

    @staticmethod
    def scale(before, after):
        """The factor that takes a time measured between two calibrations
        to the reference speed."""
        return CAL_REF_S / ((before + after) / 2)


def pin_to_one_cpu():
    """Pin this process, and so every interpreter it starts, to one CPU, so
    the calibrations run where the requests run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


class Setup:
    """Fresh interpreters timed to `import butterflyseq.cli` done, each few
    between two bare interpreter starts that give the host's speed at
    starting one."""

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.run("import butterflyseq.cli")     # writes the bytecode cache
        self.raw, self.samples, self.bare = [], [], []

    def sample(self, count):
        """Up to ``count`` more samples."""
        count = min(count, SETUP_SAMPLES - len(self.samples))
        if count <= 0:
            return
        before = self.run("pass")
        raw = [self.run("import butterflyseq.cli") for _ in range(count)]
        after = self.run("pass")
        self.bare += [before, after]
        self.raw += raw
        self.samples += [t * START_REF_S / ((before + after) / 2) for t in raw]

    def run(self, code):
        # no timeout: with one, waiting for the child polls in sleeps of up to 50 ms
        t0 = perf()
        subprocess.run([sys.executable, "-c", code], env=self.env, check=True)
        return perf() - t0


def child(mode, job, clock):
    """Run serve.py in a fresh interpreter, calibrating whenever it waits
    between chunks; its JSON result, with ``factors``: the speed factor of
    each request (serve and trace modes)."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "serve.py"), mode],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    deadline = perf() + CHILD_TIMEOUT

    def read(whole=False):
        if not select.select([proc.stdout], [], [], max(0.0, deadline - perf()))[0]:
            raise RuntimeError("serve.py %s took more than %d s" % (mode, CHILD_TIMEOUT))
        return proc.stdout.read() if whole else proc.stdout.readline()

    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        cals = []
        line = read()
        while line == "ready\n":
            cals.append(clock.calibrate())
            proc.stdin.write("go\n")
            proc.stdin.flush()
            line = read()
        out = line + read(whole=True)
        code = proc.wait(timeout=max(1.0, deadline - perf()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if code != 0:
        raise RuntimeError("serve.py %s exited %d (its stderr is above)" % (mode, code))
    result = json.loads(out)
    if "chunk_ends" in result:
        result["factors"], start = [], 0
        for j, end in enumerate(result["chunk_ends"]):
            result["factors"] += [clock.scale(cals[j], cals[j + 1])] * (end - start)
            start = end
    return result


def scaled(result):
    return [t * f for t, f in zip(result["latencies"], result["factors"])]


def count_failed(requests, expected, result):
    failed = 0
    for argv, want, code, dig in zip(requests, expected, result["codes"], result["digests"]):
        if not judge(want, code, dig):
            failed += 1
            print("FAILED: %s (exit %s)" % (" ".join(argv), code), file=sys.stderr)
    return failed


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "butterflyseq")):
        print("error: no butterflyseq package under %s" % SRC, file=sys.stderr)
        return 2
    unit = units()
    pin_to_one_cpu()
    clock = Clock()
    setup = Setup()
    requests = workloads.draw(args.workload, args.seed)
    reference = Reference()
    expected = [reference.expected(argv) for argv in requests]
    job = {"requests": requests}

    walls, raw_walls, latencies, raw_latencies, rss = [], [], [], [], []
    pass_seconds, attempted, failed = [], 0, 0
    t_start = perf()
    while not walls or perf() - t_start + statistics.median(pass_seconds) <= args.seconds:
        t_pass = perf()
        setup.sample(SETUP_PER_PASS)     # spread over the run, like the passes
        result = child("serve", job, clock)
        pass_seconds.append(perf() - t_pass)
        latencies += scaled(result)
        walls.append(sum(latencies[-len(requests):]))
        raw_latencies += result["latencies"]
        raw_walls.append(sum(result["latencies"]))
        rss.append(result["rss_mb"])
        attempted += len(requests)
        failed += count_failed(requests, expected, result)
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample(SETUP_PER_PASS)
    latencies.sort()
    raw_latencies.sort()
    samples = {"setup_s": "%d interpreters" % len(setup.samples),
               "wall_s": "%d passes of %d requests" % (len(walls), len(requests)),
               "req_p50_ms": "%d latencies" % len(latencies),
               "req_p90_ms": "%d latencies, %d above" % (
                   len(latencies), len(latencies) - math.ceil(0.9 * len(latencies))),
               "peak_rss_mb": "%d passes" % len(rss)}
    metrics = {
        "setup_s": statistics.median(setup.samples),
        "wall_s": statistics.median(walls),
        "req_p50_ms": 1000 * nearest_rank(latencies, 0.5),
        "req_p90_ms": 1000 * nearest_rank(latencies, 0.9),
        "peak_rss_mb": statistics.median(rss),
    }

    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = os.path.join(HERE, "out", "spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        coverage = workloads.COVERAGE
        traced = child("trace", dict(job, coverage=coverage, workload=args.workload,
                                     spans=spans), clock)
        attempted += len(requests) + len(coverage)
        failed += count_failed(requests + coverage,
                               expected + [reference.expected(argv) for argv in coverage],
                               traced)
        probes = child("probes", {}, clock)
        attempted += probes["attempted"]
        failed += probes["failed"]
        if traced["idle"]:
            print("error: no spans with self time in layer(s) %s on workload %s"
                  % (", ".join(traced["idle"]), args.workload), file=sys.stderr)
            return 4
        metrics = dict(traced["metrics"])
        traced_wall = sum(scaled(traced)[:len(requests)])
        metrics["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
        metrics.update(probes["metrics"])
        samples = dict.fromkeys(traced["metrics"], "traced pass, %d requests" % len(requests))
        samples.update(dict.fromkeys(traced["borrowed"], "%d coverage requests" % len(coverage)))
        samples.update(dict.fromkeys(probes["metrics"], "1 call"))
        samples["trace.overhead_ratio"] = "1 traced pass / median of %d untraced" % len(walls)

    print("%-40s %16s  %-6s %s" % ("metric", "value", "unit", "samples"), file=sys.stderr)
    for name, value in metrics.items():
        print("%-40s %16.6g  %-6s %s" % (name, value, unit[name], samples[name]),
              file=sys.stderr)
    print("%-40s %16.6g  %-6s %d requests" % ("fail_ratio", failed / attempted, "ratio",
                                              attempted), file=sys.stderr)
    print("speed: %d calibrations, median %.4g s (reference %.4g s); %d bare starts, median "
          "%.4g s (reference %.4g s); unscaled: setup_s %.4g, wall_s %.4g, req_p50_ms %.4g, "
          "req_p90_ms %.4g" % (
              len(clock.samples), statistics.median(clock.samples), CAL_REF_S,
              len(setup.bare), statistics.median(setup.bare), START_REF_S,
              statistics.median(setup.raw), statistics.median(raw_walls),
              1000 * nearest_rank(raw_latencies, 0.5), 1000 * nearest_rank(raw_latencies, 0.9)),
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
