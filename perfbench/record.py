"""Record, or audit, the references of every request the workloads can draw.

    python3 perfbench/record.py           # rewrite perfbench/reference.tsv
    python3 perfbench/record.py --check   # serve every drawable request once and judge it

Recording captures the exit code and stdout digest of each drawable request
whose output reference.py does not compute itself, from the package in
``src`` as it is now: run it only at a commit whose output is trusted.  The
check serves every drawable request, computed references and refusals
included, and lists each mismatch.
"""

import argparse
import sys

from reference import RECORDED, Reference, judge
from serve import SRC, digest, serve
import workloads


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, SRC)
    from butterflyseq import cli

    reference = Reference(recorded=args.check)
    requests = workloads.universe()
    if args.check:
        requests += sorted(workloads.REFUSAL_CODES)
        bad = 0
        for argv in requests:
            _, code, text = serve(cli, argv)
            if not judge(reference.expected(argv), code, digest(text)):
                bad += 1
                print("MISMATCH: %s (exit %s)" % (" ".join(argv), code))
        print("%d of %d requests differ from their reference" % (bad, len(requests)))
        return 1 if bad else 0

    lines = []
    for argv in requests:
        if reference.computed(argv) is None:
            _, code, text = serve(cli, argv)
            if not isinstance(code, int):
                raise SystemExit("request crashed: %s: %s" % (" ".join(argv), code))
            lines.append("%s\t%d\t%s\n" % (" ".join(argv), code, digest(text)))
    with open(RECORDED, "w") as fh:
        fh.writelines(lines)
    print("recorded %d references to %s" % (len(lines), RECORDED))
    return 0


if __name__ == "__main__":
    sys.exit(main())
