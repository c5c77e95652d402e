"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` wraps the functions in TARGETS and rebinds every name in
every ``butterflyseq`` namespace that holds them (``families`` keeps its own
``iter_strict_tuples``, ``cli`` and ``bijections`` their own
``enumerate_family``, ``recurrences`` its own ``named_sequence``...).  Each
call becomes a span (name, start, end, parent, request id) kept in arrays in
memory.  Functions that recurse get a span at the outermost call only.
Generators are timed while they run, not when they are created: every
resumption is a span segment, and back-to-back resumptions with no other
span started in between extend one span.  ``derive`` turns the spans into
the per-layer metrics; self time is a span's duration minus its children's.

Requests have ids >= 0; the coverage requests served after them
(workloads.COVERAGE) have ids < 0.  Every figure is derived from the
workload's own requests, and a figure they leave empty (no span, no count,
a ratio with no base) is read from the coverage requests instead, so that
no time reads zero on every run.
"""

import collections
import gzip
import inspect
import sys
import time
from array import array

perf = time.perf_counter

DP = ("partitions.count_partitions_table", "partitions.count_with_parts",
      "partitions.count_distinct_with_parts", "partitions.count_strict_table",
      "partitions.count_odd_ge_table", "partitions.count_no_ones_table",
      "partitions.count_no_ones_repeated_top_table")
PARTITION_ENUMS = ("partitions.iter_partition_tuples", "partitions.iter_strict_tuples",
                   "partitions.iter_butterfly_tuples")
RECURSIVE = {"partitions.iter_strict_tuples", "partitions.iter_partition_tuples",
             "partitions._strict_bounded_count", "families._iter_odd_parts",
             "families.in_family", "splitmerge.caps_of"}
SPLIT_MERGE = ("splitmerge.split", "splitmerge.split_even", "splitmerge.split_odd",
               "splitmerge.split_switched", "splitmerge.merge_odd", "splitmerge.caps_of")
PARITY = ("pentagonal.parity_relation", "pentagonal.parity_relation_holds",
          "pentagonal.parity_refined_counts")
FILTRATION = ("series.filtration_term", "series.filtered_series", "series._sum_filtration")
MUL = "series.TruncSeries.__mul__"
TARGETS = (("cli.main", "cli.build_parser") + ("sequences.named_sequence", "sequences.to_bfile")
           + DP + PARTITION_ENUMS + ("partitions.count_butterfly",
                                     "partitions._strict_bounded_count")
           + ("families.enumerate_family", "families._iter_odd_parts", "families.in_family",
              "families.count_family")
           + ("series.expand_product", "series.div_exact", "series.verify_identity", MUL)
           + FILTRATION
           + ("recurrences.recursive_solve", "recurrences.checksum")
           + ("bijections.verify_bijection",)
           + SPLIT_MERGE + ("splitmerge.matches_form",)
           + ("pentagonal.classify",) + PARITY)
COUNTED = ("recurrences.expected_checksum",)   # counted, no span
RATIOS = ("sequences.table_reuse_ratio", "families.filter_keep_ratio",
          "series.mul_sparse_share", "bijections.listing_share",
          "splitmerge.form_match_ratio")   # may read 0 with a nonempty base

ENUM_BACKED = {"r1", "r2", "r1_prime", "e", "o", "e_prime", "o_prime", "e_dprime", "o_dprime"}

# layer -> workloads it should move (the traced run fails if the layer is idle there)
STRESSED_ON = {
    "cli": ("desk", "enumeration"), "sequences": ("identities", "tables"),
    "partitions": ("tables", "identities", "enumeration"),
    "families": ("enumeration", "tables"), "series": ("identities",),
    "recurrences": ("tables",), "bijections": ("enumeration",),
    "splitmerge": ("enumeration", "desk"), "pentagonal": ("desk",),
}


def _pentagonal_pairs(m):
    # number of k >= 1 with 3k^2 - k <= m
    k = 0
    while 3 * (k + 1) ** 2 - (k + 1) <= m:
        k += 1
    return k


def _solve_terms(N):
    total, k = 0, 1
    while 3 * k * k - k <= N:
        total += 2 * (N - (3 * k * k - k) + 1)
        k += 1
    return total


def _nonzero_prefix(coeffs):
    out, c = [], 0
    for x in coeffs:
        c += x != 0
        out.append(c)
    return out


class Tracer:
    def __init__(self):
        self.names, self.ids = [], {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.req = array("l")
        self.stack = [-1]
        self.request = -1
        self.open = set()
        self._counts = {True: collections.Counter(), False: collections.Counter()}
        self.strict_entries = None    # _strict_bounded_count cache size after the workload
        self.tables_built = set()     # (request, name, N) built by named_sequence
        self.enum_backed = []         # named_sequence spans answered by listing
        self.listed = {}              # enumerate_family span -> partitions listed
        self._restore = []
        self.originals = {}           # wrapped name -> the function it wraps

    @property
    def counts(self):
        """Counts of the workload's requests, or of the coverage requests."""
        return self._counts[self.request >= 0]

    def end_workload(self):
        """Mark the end of the workload's requests; coverage requests follow."""
        self.strict_entries = self._strict_cache_size()

    def _strict_cache_size(self):
        return self.originals["partitions._strict_bounded_count"].cache_info().currsize

    # -- recording ---------------------------------------------------------
    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def begin(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.req.append(self.request)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf())
        return i

    def finish(self, i):
        self.end[i] = perf()
        self.stack.pop()

    def _wrap_function(self, name, fn):
        nid, tracer, recursive = self._id(name), self, name in RECURSIVE
        hook = getattr(self, "_hook_" + name.split(".")[-1].strip("_"), None)

        def wrapper(*args, **kwargs):
            if recursive and nid in tracer.open:
                return fn(*args, **kwargs)
            i = tracer.begin(nid)
            if recursive:
                tracer.open.add(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                if recursive:
                    tracer.open.discard(nid)
                tracer.finish(i)
            if hook is not None:
                hook(i, args, result)
            return result
        return wrapper

    def _wrap_generator(self, name, fn):
        nid, tracer, recursive = self._id(name), self, name in RECURSIVE
        counted = name in PARTITION_ENUMS

        def wrapper(*args, **kwargs):
            if recursive and nid in tracer.open:
                return fn(*args, **kwargs)
            # tuples count once, where they leave the partitions layer
            top = tracer.stack[-1]
            boundary = counted and (top < 0 or tracer.names[tracer.name[top]]
                                    not in PARTITION_ENUMS)
            return tracer._run_generator(nid, fn(*args, **kwargs), recursive, boundary)
        return wrapper

    def _run_generator(self, nid, gen, recursive, boundary):
        span, mark = -1, -1
        while True:
            if span >= 0 and len(self.start) == mark:
                self.stack.append(span)        # nothing ran in between: extend
            else:
                span = self.begin(nid)
            if recursive:
                self.open.add(nid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                if recursive:
                    self.open.discard(nid)
                self.end[span] = perf()
                self.stack.pop()
                mark = len(self.start)
            if boundary:
                self.counts["partitions.enum_tuples"] += 1
            yield item

    def _wrap_counter(self, name, fn):
        tracer, key = self, name

        def wrapper(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- computed counts ---------------------------------------------------
    def _hook_named_sequence(self, i, args, result):
        self.tables_built.add((self.request, args[0], args[1]))
        if args[0] in ENUM_BACKED:
            self.enum_backed.append(i)

    def _cells(self, N, parts):
        self.counts["partitions.dp_cells"] += N * sum(1 for x in parts if x <= N)

    def _hook_count_partitions_table(self, i, args, result):
        self._cells(args[0], range(1, args[0] + 1))

    def _hook_count_with_parts(self, i, args, result):
        self._cells(*args)

    _hook_count_distinct_with_parts = _hook_count_with_parts

    def _hook_count_no_ones_repeated_top_table(self, i, args, result):
        self.counts["partitions.dp_cells"] += args[0] * (args[0] // 2)

    def _hook_enumerate_family(self, i, args, result):
        self.listed[i] = len(result)

    def _hook_mul(self, i, args, result):
        a, b = args
        if isinstance(b, int):
            return
        N = min(a.order, b.order)
        prefix = _nonzero_prefix(b.coeffs[:N + 1])
        self.counts["series.mul_calls"] += 1
        self.counts["series.mul_pairs"] += sum(prefix[N - j] for j, x in
                                               enumerate(a.coeffs[:N + 1]) if x)
        nnz = min(sum(1 for x in a.coeffs[:N + 1] if x), prefix[-1])
        self.counts["series.mul_sparse"] += nnz * nnz <= N + 1

    def _hook_recursive_solve(self, i, args, result):
        self.counts["recurrences.pentagonal_terms"] += _solve_terms(args[1])

    def _hook_checksum(self, i, args, result):
        self.counts["recurrences.pentagonal_terms"] += 2 * _pentagonal_pairs(args[1])

    def _hook_verify_bijection(self, i, args, result):
        self.counts["bijections.maps_checked"] += result.checked

    def _hook_matches_form(self, i, args, result):
        self.counts["splitmerge.matches_form_true"] += bool(result)

    # -- installing --------------------------------------------------------
    def install(self):
        import butterflyseq  # noqa: F401  (loads every module)
        modules = [m for k, m in sys.modules.items()
                   if k == "butterflyseq" or k.startswith("butterflyseq.")]
        for name in TARGETS + COUNTED:
            module, _, attr = name.partition(".")
            owner = sys.modules["butterflyseq." + module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = self.originals[name] = getattr(owner, attr)
            if name in COUNTED:
                wrapper = self._wrap_counter(name, original)
            elif inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap_function(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore = []

    # -- output ------------------------------------------------------------
    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.req[i]))

    def derive(self, workload):
        """(metrics, layers idle, metrics read from the coverage requests).

        A layer is idle when STRESSED_ON says this workload stresses it but
        no span of the workload's requests has self time."""
        own, busy = self._derive(own=True)
        cover, _ = self._derive(own=False)
        metrics, borrowed = {}, []
        for name, value in own.items():
            if value is None or value == 0 and name not in RATIOS:
                borrowed.append(name)
                value = cover[name] or 0.0
            metrics[name] = value
        idle = [layer for layer, workloads in STRESSED_ON.items()
                if workload in workloads and not busy[layer]]
        return metrics, idle, borrowed

    def _derive(self, own):
        """Metrics of the workload's requests (own) or of the coverage
        requests, and the self-time spans per layer."""
        n = len(self.start)
        names = [self.names[k] for k in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        children = collections.defaultdict(list)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                children[p].append(i)
        self_time = collections.Counter()
        calls = collections.Counter()
        inclusive = collections.Counter()
        busy_layers = collections.Counter()
        spans = [i for i in range(n) if (self.req[i] >= 0) == own]
        for i in spans:
            self_time[names[i]] += dur[i] - child[i]
            calls[names[i]] += 1
            inclusive[names[i]] += dur[i]
            if dur[i] - child[i] > 0:
                busy_layers[names[i].split(".")[0]] += 1

        def self_s(*keys):
            return sum(self_time[k] for k in keys)

        dp_calls = sum(1 for i in spans if names[i] in DP and (
            self.parent[i] < 0 or names[self.parent[i]] not in DP))
        fam_enum = "families.enumerate_family"
        candidates = filtered_listed = fallback = listed = 0
        for i in spans:
            if names[i] == fam_enum:
                listed += self.listed.get(i, 0)
                tested = sum(1 for c in children[i] if names[c] == "families.in_family")
                if tested:
                    candidates += tested
                    filtered_listed += self.listed.get(i, 0)
            elif names[i] == "families.count_family":
                fallback += any(names[c] == fam_enum for c in children[i])
        listing = sum(dur[c] for i in spans if names[i] == "bijections.verify_bijection"
                      for c in children[i] if names[c] == fam_enum)
        c = self._counts[own]
        built = sum(1 for r, _, _ in self.tables_built if (r >= 0) == own)
        strict_entries = (self.strict_entries if own
                          else self._strict_cache_size() - self.strict_entries)
        mf_calls = calls["splitmerge.matches_form"]
        verify_s = inclusive["bijections.verify_bijection"]
        metrics = {
            "cli.build_parser_s": self_s("cli.build_parser"),
            "cli.self_s": self_s("cli.main", "cli.build_parser"),
            "sequences.named_sequence_s": self_s("sequences.named_sequence"),
            "sequences.named_sequence_calls": calls["sequences.named_sequence"],
            "sequences.table_reuse_ratio": _ratio(built,
                                                  calls["sequences.named_sequence"]),
            "sequences.enum_backed_s": sum(dur[i] for i in self.enum_backed
                                           if (self.req[i] >= 0) == own),
            "sequences.to_bfile_s": self_s("sequences.to_bfile"),
            "partitions.dp_s": self_s(*DP),
            "partitions.dp_calls": dp_calls,
            "partitions.dp_cells": c["partitions.dp_cells"],
            "partitions.enum_s": self_s(*PARTITION_ENUMS),
            "partitions.enum_tuples": c["partitions.enum_tuples"],
            "partitions.count_butterfly_s": self_s("partitions.count_butterfly",
                                                   "partitions._strict_bounded_count"),
            "partitions.strict_cache_entries": strict_entries,
            "families.enumerate_s": self_s(fam_enum, "families._iter_odd_parts"),
            "families.enumerate_calls": calls[fam_enum],
            "families.listed": listed,
            "families.filter_keep_ratio": _ratio(filtered_listed, candidates),
            "families.in_family_calls": calls["families.in_family"],
            "families.in_family_s": self_s("families.in_family"),
            "families.count_fallback_calls": fallback,
            "series.expand_product_s": self_s("series.expand_product"),
            "series.filtration_s": self_s(*FILTRATION),
            "series.mul_s": self_s(MUL),
            "series.mul_calls": c["series.mul_calls"],
            "series.mul_pairs": c["series.mul_pairs"],
            "series.mul_sparse_share": _ratio(c["series.mul_sparse"], c["series.mul_calls"]),
            "series.div_exact_s": self_s("series.div_exact"),
            "series.verify_identity_s": self_s("series.verify_identity"),
            "recurrences.solve_s": self_s("recurrences.recursive_solve"),
            "recurrences.checksum_s": self_s("recurrences.checksum"),
            "recurrences.pentagonal_terms": c["recurrences.pentagonal_terms"],
            "recurrences.expected_checksum_calls": c["recurrences.expected_checksum"],
            "bijections.verify_s": verify_s,
            "bijections.maps_checked": c["bijections.maps_checked"],
            "bijections.listing_share": _ratio(listing, verify_s),
            "splitmerge.matches_form_calls": mf_calls,
            "splitmerge.form_match_ratio": _ratio(c["splitmerge.matches_form_true"], mf_calls),
            "splitmerge.split_merge_s": self_s(*SPLIT_MERGE),
            "pentagonal.classify_s": self_s("pentagonal.classify"),
            "pentagonal.parity_s": self_s(*PARITY),
        }
        return metrics, busy_layers


def _ratio(a, b):
    return a / b if b else None
