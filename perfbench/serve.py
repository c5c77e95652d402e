"""One pass of the benchmark, in a fresh interpreter.

    python3 perfbench/serve.py serve|trace|probes < job.json

run.py starts this program once per pass, so that nothing one pass leaves
behind (caches, memos, a grown heap) speeds up the next.  The job on stdin
is a JSON object: ``requests`` (a list of argv lists) and, for ``trace``,
``coverage`` (requests served after them), ``workload`` and ``spans`` (the
file the spans are written to).  The result is one JSON object on stdout.

``serve`` calls ``butterflyseq.cli.main(argv)`` in-process for each request,
one after the other, with stdout and stderr captured, and reports per request
its latency, exit code and stdout digest, and the process's peak resident set.
``trace`` does the same with the layers wrapped (tracing.py) and adds the
per-layer metrics.  ``probes`` times single library calls that no command
reaches and checks their results.

The job is the first line of stdin.  ``serve`` and ``trace`` then work in
chunks of about CHUNK_S seconds of requests, in lock step with run.py, which
times its speed calibration while this process waits: before the first
chunk and after each one, this process writes ``ready`` and blocks until
run.py answers ``go``.  The result lists where each chunk ends.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

perf = time.perf_counter
CHUNK_S = 0.5       # seconds of requests between two speed calibrations


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def serve(cli, argv):
    """(seconds, exit code, stdout) of one in-process request."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a crash is a failed request, not a benchmark error
            code = "%s: %s" % (type(exc).__name__, exc)
    text = out.getvalue()
    return perf() - t0, code, text


def peak_rss_mb():
    """This process's peak resident set.  ru_maxrss would also count the
    parent's resident set at the moment this interpreter was exec'd."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_probes():
    """(probe metrics, probes attempted, probes failed)."""
    from butterflyseq import partitions, pentagonal, recurrences, sequences, series, splitmerge
    from oracle import Tables
    tables = Tables()
    dense = (series.expand_product("partitions", 1000), series.expand_product("distinct", 1000))
    probes = (
        ("count_strict_table", lambda: partitions.count_strict_table(4000),
         lambda r: r == tables.table("q", 4000)),
        ("recursive_solve", lambda: recurrences.recursive_solve("q", 10 ** 4),
         lambda r: list(r.values) == tables.table("q", 10 ** 4)),
        ("named_sequence_t", lambda: sequences.named_sequence("t", 3000),
         lambda r: list(r.values) == tables.table("t", 3000)),
        ("named_sequence_d2p", lambda: sequences.named_sequence("d2p", 300), None),
        ("named_sequence_e", lambda: sequences.named_sequence("e", 90), None),
        ("validate_route", lambda: recurrences.validate_route("pentagonal", "s",
                                                              "p-with-poly", 300),
         lambda r: r == []),
        ("crosscheck_table", lambda: sequences.crosscheck_table("s", 1000), lambda r: r == []),
        ("series_mul_dense", lambda: dense[0] * dense[1], None),
        ("verify_all", lambda: series.verify_all(500), lambda r: all(x.ok for x in r)),
        ("count_capped", lambda: splitmerge.count_capped(70, splitmerge.STANDARD), None),
        ("parity_refined_counts", lambda: pentagonal.parity_refined_counts(90),
         lambda r: r.relations_hold),
    )
    metrics, failed = {}, 0
    for name, call, check in probes:
        t0 = perf()
        result = call()
        metrics["probe.%s_s" % name] = perf() - t0
        if check is not None and not check(result):
            failed += 1
            print("FAILED: probe %s" % name, file=sys.stderr)
    return metrics, len(probes), failed


def main():
    mode = sys.argv[1]
    job = json.loads(sys.stdin.readline())
    channel = sys.stdout
    sys.path.insert(0, SRC)
    from butterflyseq import cli

    if mode == "probes":
        metrics, attempted, failed = run_probes()
        json.dump({"metrics": metrics, "attempted": attempted, "failed": failed}, channel)
        return 0

    def wait_for_calibration():
        channel.write("ready\n")
        channel.flush()
        if sys.stdin.readline() != "go\n":
            raise SystemExit("serve.py: run.py stopped the pass")

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    result = {"latencies": [], "codes": [], "digests": [], "chunk_ends": []}

    def serve_all(requests, first_id, step):
        chunk_start = perf()
        for i, argv in enumerate(requests):
            if tracer is not None:
                tracer.request = first_id + step * i
            dt, code, text = serve(cli, argv)
            result["latencies"].append(dt)
            result["codes"].append(code)
            result["digests"].append(digest(text))
            if perf() - chunk_start >= CHUNK_S:
                result["chunk_ends"].append(len(result["latencies"]))
                wait_for_calibration()
                chunk_start = perf()
        if result["chunk_ends"][-1:] != [len(result["latencies"])]:
            result["chunk_ends"].append(len(result["latencies"]))
            wait_for_calibration()

    wait_for_calibration()
    serve_all(job["requests"], 0, 1)
    result["rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.end_workload()
        serve_all(job["coverage"], -1, -1)
        tracer.uninstall()
        result["metrics"], result["idle"], result["borrowed"] = tracer.derive(job["workload"])
        tracer.write(job["spans"])
    json.dump(result, channel)
    return 0


if __name__ == "__main__":
    sys.exit(main())
