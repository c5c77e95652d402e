"""Self-test of the benchmark's reference check, and the known contract violations.

    python3 perfbench/selftest.py

1. For one request with a computed reference and one with a recorded one,
   the real output must pass the check, and the same output with one stdout
   byte flipped, or with another exit code, must fail it.  Exit status 1
   if the check misses either.
2. Out-of-domain requests that the package answers against its documented
   exit-code contract (0 success, 1 verification or domain failure, 2 usage
   error; a verifier that checked nothing must not pass; a listing limit
   must not block a count).  The workloads leave them out, because a
   benchmark workload may hold no failing request; they are listed here with
   the exit code the contract asks for, and reported, not failed.
"""

import sys

from reference import Reference, judge
from serve import SRC, digest, serve

CONTRACT = (
    ("bij raise --from 1 --to 5", 2, "n = 1 is below the map's domain; today FAIL, 0 vs 1"),
    ("bij bar --from 6 --to 10 --h 2", 2, "h < 3 is not a bar size; today pass, 0 maps"),
    ("bij bar --from 6 --to 10", 1, "no map checked must not pass; today pass, 0 maps"),
    ("enum bar-ae 20 --h 0", 2, "h < 3 is not a bar size; today empty output, exit 0"),
    ("solve s --to -2", 2, "negative N, as seq s --to -1; today empty output, exit 0"),
    ("seq s_e --to 250", 0, "a polynomial count; today refused by the listing limit"),
    ("merge 13+5+3", 1, "violated caps are a domain failure, as caps exits 1; today 2"),
)


def flipped(text):
    k = len(text) // 2
    return text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1:]


def main():
    sys.path.insert(0, SRC)
    from butterflyseq import cli

    reference = Reference()
    missed = 0
    for request in ("seq s --to 18", "enum butterfly 18"):
        argv = tuple(request.split())
        want = reference.expected(argv)
        _, code, text = serve(cli, argv)
        cases = (("as served", code, text, True),
                 ("one stdout byte flipped", code, flipped(text), False),
                 ("exit code changed", code + 1, text, False))
        for label, c, t, should_pass in cases:
            ok = judge(want, c, digest(t)) == should_pass
            missed += not ok
            print("%-6s %-20s %-24s %s" % ("ok" if ok else "MISSED", request, label,
                                            "passes" if should_pass else "fails"))
    violations = 0
    for request, want, why in CONTRACT:
        _, code, _ = serve(cli, tuple(request.split()))
        violations += code != want
        print("%-9s %-32s exit %s, contract %d: %s" % (
            "violates" if code != want else "meets", request, code, want, why))
    print("reference check: %s; contract: %d of %d known out-of-domain requests violate it"
          % ("catches both faults" if not missed else "MISSED %d" % missed,
             violations, len(CONTRACT)))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
