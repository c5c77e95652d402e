"""Seeded request lists for the four benchmark workloads.

A workload is a fixed mix of request classes.  Each class has a fixed count
and a finite list of drawable requests ordered by size; a run draws its
requests by stratified sampling (one pick inside the middle quarter of each
of ``count`` equal slices of the list), so every seed gets a different request list with the
same spread of sizes, and run-to-run differences come from the program, not
from the luck of the draw.  Inputs are built here without calling the code
under test: butterfly partitions are a head (a+2, a+1, a) plus a strict tail
of parts >= 2 below a.

``universe()`` lists every request any seed can draw; ``record.py`` stores a
reference for each one whose output the benchmark does not compute itself.
"""

import random

from oracle import butterfly_partitions, split_parts

SEQ_NAMES = ("q", "r", "s", "t", "p", "dp", "d2p", "r1", "r2", "r1_prime",
             "r1_dprime", "s_e", "s_o", "e", "o", "e_prime", "o_prime",
             "e_dprime", "o_dprime")
OFFSETS = {name: 0 for name in ("q", "r", "s", "t", "p", "dp", "d2p")}
OFFSETS.update({"r1": 3, "r2": 3, "r1_prime": 5, "r1_dprime": 5})
OFFSETS.update({name: 6 for name in ("s_e", "s_o", "e", "o", "e_prime", "o_prime",
                                     "e_dprime", "o_dprime")})
ENUM_BACKED = ("r1", "r2", "r1_prime", "e", "o", "e_prime", "o_prime",
               "e_dprime", "o_dprime")
CHECKSUM_NAMES = ("q", "r", "s", "t")

IDENTITY_NAMES = (
    "strict-filtration", "oddparts-filtration", "consec-filtration",
    "oddge3-filtration", "butterfly-product-filtration", "butterfly-alt-filtration",
    "oddge5-butterfly-tail", "oddge5-filtration", "butterfly-filtration",
    "strict-pentagonal-split", "consec-pentagonal-split", "butterfly-pentagonal-split",
    "triangular-double-product", "strict-triangular-split", "consec-triangular-split",
    "butterfly-triangular-split", "strict-checksum-series", "consec-checksum-series",
    "butterfly-checksum-series", "oddge5-checksum-series", "consec-powfree-product",
    "oddge5-filtration-printed", "butterfly-filtration-printed",
    "butterfly-alt-filtration-printed",
)

# family alias -> listing sizes for the enumeration workload (10-200 ms each)
ENUM_SIZES = {
    "butterfly": (80, 130), "butterfly-even": (80, 130), "butterfly-odd": (80, 130),
    "strict": (40, 62),
    "odd-step1": (40, 70), "odd-step2": (40, 70),
    "odd-step1-switched": (40, 70), "odd-step2-switched": (40, 70),
    "staircase-321": (80, 120), "staircase-33": (80, 120), "equal-triple": (80, 120),
    "consec": (50, 70), "r1": (50, 70), "r2": (50, 70), "r1-prime": (50, 70),
    "odd-ge-1": (35, 50), "odd-ge-3": (50, 70), "odd-ge-5": (60, 80),
    "butterfly-plus-ones": (80, 105), "distinct-not-pow2": (50, 70),
}
BAR_FAMILIES = ("bar-ae", "bar-ao", "bar-be", "bar-bo")

# Out-of-domain requests with the exit code the documented contract gives
# them (1 verification or domain failure, 2 usage error).  Only refusals
# this commit already answers by the contract are drawn: the benchmark
# requires workloads on which no request fails.  The known contract
# violations are listed in selftest.py.
REFUSALS = (
    ("seq s --to -1", 2), ("seq q --to -7", 2), ("seq nosuch --to 9", 2),
    ("seq s --to x", 2), ("enum nosuch 9", 2), ("enum strict x", 2),
    ("verify nosuch --order 20", 2), ("verify all --order -1", 2),
    ("bij nosuch --from 1 --to 5", 2), ("bij bar --from 6", 2),
    ("checksum x 5", 2), ("solve nosuch --to 9", 2), ("split 7+6+x", 2),
    ("diagram 3+x", 2), ("classify 9+x", 2), ("caps 13+5+3", 1),
    ("parity", 2), ("frobnicate 3", 2), ("merge", 2), ("--json seq", 2),
)


def _argv(text):
    return tuple(text.split())


class RequestClass:
    """A request class: ``count`` stratified picks from ``items``.

    ``json_ok`` marks classes whose requests the desk workload may prefix
    with --json.
    """

    def __init__(self, count, items, json_ok=False):
        self.count = count
        self.items = [_argv(i) if isinstance(i, str) else i for i in items]
        self.json_ok = json_ok


def _each(count, names, sizes, fmt, json_ok=False):
    """One class per name, ``count`` picks over the sizes."""
    return [RequestClass(count, [fmt % (name, n) for n in sizes], json_ok) for name in names]


def _tables():
    out = _each(6, ("q", "r", "s", "t", "p", "dp"), range(300, 1201, 25), "seq %s --to %d")
    out.append(RequestClass(6, ["seq d2p --to %d" % n for n in range(60, 161, 5)]))
    out += _each(3, CHECKSUM_NAMES, range(1000, 5001, 100), "solve %s --to %d")
    out += _each(3, CHECKSUM_NAMES, range(100, 1001, 10), "checksum %s %d")
    out += _each(3, ("s_e", "s_o", "r1_dprime"), range(100, 201, 5), "seq %s --to %d")
    out += _each(2, ENUM_BACKED, range(30, 57), "seq %s --to %d")
    out.append(RequestClass(5, ["parity --exceptions --to %d" % n
                                for n in range(1000, 10001, 500)]))
    out.append(RequestClass(1, ["solve s --to 10000"]))
    out.append(RequestClass(1, ["seq s --to 3000"]))
    return out


def _identities():
    out = _each(4, IDENTITY_NAMES, range(150, 701, 25), "verify %s --order %d")
    out.append(RequestClass(6, ["verify all --order %d" % n for n in range(100, 301, 10)]))
    return out


def _enumeration():
    out = [RequestClass(4, ["enum %s %d" % (fam, n) for n in range(lo, hi + 1)])
           for fam, (lo, hi) in ENUM_SIZES.items()]
    bars = sorted(((n, fam, h) for fam in BAR_FAMILIES for h in (3, 4, 5)
                   for n in range(80, 121)), key=lambda x: (x[0], x[1], x[2]))
    out.append(RequestClass(12, ["enum %s %d --h %d" % (fam, n, h) for n, fam, h in bars]))
    out.append(RequestClass(3, ["bij raise --from %d --to %d" % (n - 8, n)
                                for n in range(25, 41)]))
    out.append(RequestClass(3, ["bij butterfly --from %d --to %d" % (n - 12, n)
                       for n in range(40, 61)]))
    out.append(RequestClass(3, ["bij bar --from %d --to %d --h %d" % (n - 15, n, h)
                       for n in range(55, 76) for h in (3, 4, 5)]))
    return out


def _desk():
    out = []
    for name in SEQ_NAMES:
        step = 1 if name in ("q", "r", "s", "t", "p", "dp") else 2
        out.append(RequestClass(10, ["seq %s --to %d" % (name, n)
                            for n in range(OFFSETS[name], 61, step)], json_ok=True))
    families = [(fam, ()) for fam in ENUM_SIZES] + [
        (bar, ("--h", str(h))) for bar in BAR_FAMILIES for h in (3, 4, 5)]
    out.append(RequestClass(144, sorted((("enum", fam, str(n)) + extra for fam, extra in families
                                for n in range(6, 31, 2)), key=lambda r: int(r[2])),
                   json_ok=True))
    out += _each(4, IDENTITY_NAMES, range(20, 81, 5), "verify %s --order %d", json_ok=True)
    out.append(RequestClass(6, ["verify all --order %d" % n for n in range(20, 81, 5)],
                            json_ok=True))
    out.append(RequestClass(15, ["bij raise --from 2 --to %d" % n for n in range(10, 31, 2)],
                   json_ok=True))
    out.append(RequestClass(15, ["bij butterfly --from 6 --to %d" % n for n in range(10, 31, 2)],
                   json_ok=True))
    # bar ranges first check a map at n = 18 (h = 3) and n = 30 (h = 4)
    out.append(RequestClass(15, ["bij bar --from 6 --to %d --h 3" % n for n in range(18, 31)]
                   + ["bij bar --from 6 --to 30 --h 4"], json_ok=True))
    parts = butterfly_partitions(40)
    split_items, merge_items, caps_items = [], [], []
    for p in parts:
        for variant in ("standard", "switched"):
            flag = () if variant == "standard" else ("--variant", variant)
            image = "+".join(map(str, split_parts(p, variant)))
            split_items.append(("split", "+".join(map(str, p))) + flag)
            merge_items.append(("merge", image) + flag)
            caps_items.append(("caps", image) + flag)
    out.append(RequestClass(70, split_items, json_ok=True))
    out.append(RequestClass(70, merge_items, json_ok=True))
    out.append(RequestClass(50, caps_items, json_ok=True))
    out.append(RequestClass(50, [("classify", "+".join(map(str, p))) for p in parts],
                            json_ok=True))
    out.append(RequestClass(49, [("diagram", "+".join(map(str, p))) for p in parts], json_ok=True))
    out += _each(15, CHECKSUM_NAMES, range(0, 201, 2), "checksum %s %d", json_ok=True)
    out += _each(15, CHECKSUM_NAMES, range(0, 61), "solve %s --to %d", json_ok=True)
    out.append(RequestClass(50, ["parity %d" % n for n in range(6, 61)], json_ok=True))
    out.append(RequestClass(10, ["parity --exceptions --to %d" % n for n in range(20, 61, 5)],
                   json_ok=True))
    return out


CLASSES = {"tables": _tables, "identities": _identities,
           "enumeration": _enumeration, "desk": _desk}
DESK_JSON = 200        # desk requests carrying --json
DESK_REFUSALS = 50     # desk requests out of domain

# One small request per verb, served after the workload's own requests in
# the traced pass only.  A per-layer figure the workload leaves at zero is
# read from these instead (tracing.py), since a time that reads the same on
# every run is no measurement.
COVERAGE = [_argv(r) for r in (
    "seq s --to 20", "seq r1 --to 14", "seq d2p --to 20", "solve q --to 20",
    "checksum q 10", "verify strict-pentagonal-split --order 20",
    "verify butterfly-filtration --order 20", "enum odd-step1 24", "enum bar-ae 22 --h 3",
    "enum butterfly 20", "bij bar --from 6 --to 22", "split 7+6+5+4+3+2",
    "merge 13+5+3+3+3 --variant switched", "caps 5+3+3+3 --variant switched",
    "classify 7+6+5+4+3+2", "parity 12", "parity --exceptions --to 25", "diagram 4+3+2",
)]


def _stratified(rng, items, k):
    """k picks from items, one inside the middle quarter of each of k equal
    slices: seeds differ in their inputs, hardly in their total cost or in
    the sizes of their largest requests."""
    n = len(items)
    if k >= n:
        return [items[i % n] for i in range(k)]
    return [items[int((i + 0.375 + 0.25 * rng.random()) * n / k)] for i in range(k)]


def draw(workload, seed):
    """The request list (argv tuples) for one run of the workload."""
    rng = random.Random("%s:%d" % (workload, seed))
    requests, json_ok = [], []
    for cls in CLASSES[workload]():
        picks = _stratified(rng, cls.items, cls.count)
        requests += picks
        json_ok += [cls.json_ok] * len(picks)
    if workload == "desk":
        candidates = [i for i, ok in enumerate(json_ok) if ok]
        for i in rng.sample(candidates, DESK_JSON):
            requests[i] = ("--json",) + requests[i]
        refusals = [_argv(text) for text, _ in REFUSALS]
        requests += _stratified(rng, refusals, DESK_REFUSALS)
    rng.shuffle(requests)
    return requests


def universe():
    """Every request a seed can draw, and the coverage requests."""
    out = set(COVERAGE)
    for workload, build in CLASSES.items():
        for cls in build():
            out.update(cls.items)
            if workload == "desk" and cls.json_ok:
                out.update(("--json",) + item for item in cls.items)
    return sorted(out)


REFUSAL_CODES = {_argv(text): code for text, code in REFUSALS}
