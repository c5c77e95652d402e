"""The library surface the benchmark's traced pass (perfbench/tracing.py)
rebinds by module path: every traced name must exist where the tracer looks
for it, the enumerators it times while consumed must stay generators, its
hooks must find the positional arguments they read, and the strict-count
cache must expose its size."""

import inspect
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


@pytest.fixture
def perfbench_path():
    sys.path.insert(0, PERFBENCH)
    try:
        yield
    finally:
        sys.path.remove(PERFBENCH)


def test_traced_surface_installs_and_serves_coverage(perfbench_path, capsys):
    import tracing
    import workloads
    from butterflyseq import cli

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name in tracing.PARTITION_ENUMS + ("families._iter_odd_parts",):
            assert inspect.isgeneratorfunction(tracer.originals[name]), name
        for argv in workloads.COVERAGE:
            assert cli.main(list(argv)) == 0, argv
        assert tracer._strict_cache_size() >= 0
        # the catalogue reaches the traced lister and predicate through the
        # module, so a listing opens their spans
        mark = len(tracer.start)
        for argv in (["enum", "odd-ge-3", "20"], ["enum", "r2", "12"]):
            assert cli.main(argv) == 0, argv
        opened = {tracer.names[tracer.name[i]] for i in range(mark, len(tracer.start))}
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert len(tracer.start) > 0
    assert {"families._iter_odd_parts", "families.in_family"} <= opened


def test_no_benchmark_layer_goes_idle(perfbench_path, capsys):
    """The smallest request of every class of each workload, served under
    the tracer, leaves no layer that STRESSED_ON names for the workload
    without self time: the traced benchmark run would refuse the workload."""
    import tracing
    import workloads
    from butterflyseq import cli

    idle = {}
    for workload, classes in workloads.CLASSES.items():
        tracer = tracing.Tracer()
        try:
            tracer.install()
            for i, cls in enumerate(classes()):
                tracer.request = i
                cli.main(list(cls.items[0]))
            tracer.end_workload()
        finally:
            tracer.uninstall()
        idle[workload] = tracer.derive(workload)[1]
    capsys.readouterr()
    assert idle == dict.fromkeys(workloads.CLASSES, [])
