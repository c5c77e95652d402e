"""Command-line surface.

Verbs: seq, enum, bij, split, merge, caps, classify, parity, verify,
checksum, solve, diagram.  Output is deterministic text, or JSON objects of
the shape {"command": ..., "result": ...} with --json.  Exit codes: 0 on
success, 1 on verification or domain failure, 2 on usage errors.
"""

import argparse
import functools
import json
import sys

from . import bijections, diagrams, pentagonal, recurrences, sequences, series, splitmerge
from .families import BY_H, CATALOGUE, Family, family_tuples
from .partitions import Partition

# alias -> Family; a bar set's size comes from --h, so its alias maps to its kind
FAMILY_ALIASES = {alias: Family(kind, param) for kind, row in CATALOGUE.items()
                  for alias, param in row.aliases.items() if param is not BY_H}
BAR_ALIASES = {alias: kind for kind, row in CATALOGUE.items()
               for alias, param in row.aliases.items() if param is BY_H}


class UsageError(Exception):
    """Usage-class error raised after argument parsing."""


def _emit(args, command, result, text):
    if args.json:
        print(json.dumps({"command": command, "result": result}, sort_keys=True))
    else:
        print(text)


def _print_table(args, table):
    if args.json:
        print(json.dumps({"command": args.verb, "result": sequences.to_json(table)},
                         sort_keys=True))
    else:
        sys.stdout.write(sequences.to_bfile(table))
    return 0


def _cmd_seq(args):
    return _print_table(args, sequences.named_sequence(args.name, args.to))


def _cmd_enum(args):
    if args.family in BAR_ALIASES:
        fam = Family(BAR_ALIASES[args.family], args.h)
    elif args.family in FAMILY_ALIASES:
        fam = FAMILY_ALIASES[args.family]
    else:
        raise UsageError("unknown family %r (choose from %s)"
                          % (args.family, ", ".join(sorted(FAMILY_ALIASES) + sorted(BAR_ALIASES))))
    # each part value is formatted once per call, not once per occurrence
    digits = [str(x) for x in range(args.n + 1)]
    result = ["+".join([digits[x] for x in t]) for t in family_tuples(args.n, fam)]
    _emit(args, "enum", result, "\n".join(result))
    return 0


def _cmd_bij(args):
    # a --from below the map's least n is verify_bijection's ValueError (exit 2)
    report = bijections.verify_bijection(args.kind, args.start, args.to, h=args.h)
    result = {"kind": report.kind, "range": list(report.n_range),
              "checked": report.checked, "passed": report.passed,
              "failures": ["n=%d: %s" % f for f in report.failures]}
    _emit(args, "bij", result, str(report))
    return 0 if report.passed else 1


def _cmd_split(args):
    p = Partition.parse(args.partition)
    q = splitmerge.split(p, args.variant)
    _emit(args, "split", str(q), str(q))
    return 0


def _cmd_merge(args):
    q = Partition.parse(args.partition)
    p = splitmerge.merge_odd(q, args.variant)
    _emit(args, "merge", str(p), str(p))
    return 0


def _cmd_caps(args):
    q = Partition.parse(args.partition)
    caps = splitmerge.caps_of(q, args.variant)
    result = {"form": caps.form, "bound": caps.bound, "two_t": caps.two_t,
              "u_by_q": {str(k): v for k, v in sorted(caps.u_by_q.items())},
              "v": caps.v,
              "largest_pows": dict(sorted(caps.largest_pows.items())),
              "checks": dict(sorted(caps.checks.items())),
              "satisfied": caps.satisfied}
    lines = ["form %s  bound %d" % (caps.form, caps.bound),
             "2t=%d  v=%d  u=%s" % (caps.two_t, caps.v,
                                    ",".join("%d:%d" % kv for kv in sorted(caps.u_by_q.items())) or "-")]
    for key in sorted(caps.checks):
        lines.append("cap %s: largest_pow=%d %s" %
                     (key, caps.largest_pows[key], "ok" if caps.checks[key] else "VIOLATED"))
    lines.append("satisfied" if caps.satisfied else "violated")
    _emit(args, "caps", result, "\n".join(lines))
    return 0 if caps.satisfied else 1


def _cmd_classify(args):
    p = Partition.parse(args.partition)
    c = pentagonal.classify(p)
    _emit(args, "classify", {"kind": c.kind, "h": c.h}, "%s h=%d" % (c.kind, c.h))
    return 0


def _cmd_parity(args):
    if args.exceptions:
        inputs = sequences.parity_exception_inputs(args.to)
        _emit(args, "parity", inputs, "\n".join(str(n) for n in inputs))
        return 0
    if args.n is None:
        raise UsageError("parity needs N or --exceptions --to N")
    w = pentagonal.parity_relation(args.n)
    ok = pentagonal.parity_relation_holds(args.n)
    result = {"n": args.n, "relation": w.relation, "form": w.form, "t": w.t,
              "agrees_with_enumeration": ok}
    text = "%d %s%s %s" % (args.n, w.relation,
                           "" if w.form is None else " (%s, t=%d)" % (w.form, w.t),
                           "ok" if ok else "MISMATCH")
    _emit(args, "parity", result, text)
    return 0 if ok else 1


def _cmd_verify(args):
    if args.identity == "all":
        reports = series.verify_all(args.order)
    else:
        reports = [series.verify_identity(args.identity, args.order)]
    result = [{"name": r.name, "order": r.order, "ok": r.ok,
               "mismatches": [list(m) for m in r.mismatches]} for r in reports]
    _emit(args, "verify", result, "\n".join(str(r) for r in reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_checksum(args):
    got = recurrences.checksum(args.name, args.m)
    want = recurrences.expected_checksum(args.name, args.m)
    ok = got == want
    result = {"name": args.name, "m": args.m, "checksum": got,
              "expected": want, "ok": ok}
    _emit(args, "checksum", result,
          "checksum=%d expected=%d %s" % (got, want, "ok" if ok else "MISMATCH"))
    return 0 if ok else 1


def _cmd_solve(args):
    return _print_table(args, recurrences.recursive_solve(args.name, args.to))


def _cmd_diagram(args):
    p = Partition.parse(args.partition)
    text = diagrams.render_young(p)
    _emit(args, "diagram", text, text)
    return 0


def _bar_size(text):
    h = int(text)
    if h < 3:
        raise argparse.ArgumentTypeError("bar size h must be >= 3, got %d" % h)
    return h


def _order(text):
    order = int(text)
    if order < 0:
        raise argparse.ArgumentTypeError("must be >= 0, got %d" % order)
    return order


@functools.cache  # built on first use, once per process
def build_parser():
    ap = argparse.ArgumentParser(prog="butterflyseq",
                                 description="butterfly sequence toolkit")
    ap.add_argument("--json", action="store_true", help="JSON output")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("seq", help="print a named sequence as b-file lines")
    p.add_argument("name", choices=sorted(sequences.SEQUENCE_NAMES))
    p.add_argument("--to", type=int, required=True)
    p.set_defaults(fn=_cmd_seq)

    p = sub.add_parser("enum", help="list the partitions of n in a family")
    p.add_argument("family")
    p.add_argument("n", type=int)
    p.add_argument("--h", type=_bar_size, default=3, help="bar size for bar families")
    p.set_defaults(fn=_cmd_enum)

    p = sub.add_parser("bij", help="verify a bijection over a range of n")
    p.add_argument("kind", choices=tuple(bijections.BIJECTIONS))
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--h", type=_bar_size, default=3)
    p.set_defaults(fn=_cmd_bij)

    for verb, help_text, fn in (
            ("split", "split a butterfly partition into odd parts", _cmd_split),
            ("merge", "merge an odd-part partition back", _cmd_merge),
            ("caps", "report the merging caps of an odd-part partition", _cmd_caps)):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("partition")
        p.add_argument("--variant", choices=(splitmerge.STANDARD, splitmerge.SWITCHED),
                       default=splitmerge.STANDARD)
        p.set_defaults(fn=fn)

    p = sub.add_parser("classify", help="pentagonal classification of a butterfly partition")
    p.add_argument("partition")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("parity", help="even/odd butterfly count relation at n")
    p.add_argument("n", type=int, nargs="?")
    p.add_argument("--exceptions", action="store_true",
                   help="list the closed-form exceptional inputs instead")
    p.add_argument("--to", type=_order, default=51)
    p.set_defaults(fn=_cmd_parity)

    p = sub.add_parser("verify", help="verify a generating-function identity")
    p.add_argument("identity",
                   help="identity name or 'all' (%s)" % ", ".join(series.VERIFIED_IDENTITIES))
    p.add_argument("--order", type=_order, default=60)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("checksum", help="pentagonal checksum of a sequence at m")
    p.add_argument("name", choices=recurrences.CHECKSUM_NAMES)
    p.add_argument("m", type=int)
    p.set_defaults(fn=_cmd_checksum)

    p = sub.add_parser("solve", help="rebuild a sequence from its checksum relation")
    p.add_argument("name", choices=recurrences.CHECKSUM_NAMES)
    p.add_argument("--to", type=int, required=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("diagram", help="Young diagram of a partition")
    p.add_argument("partition")
    p.set_defaults(fn=_cmd_diagram)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        # violated merging caps are a domain failure, not a usage error
        return 1 if isinstance(exc, splitmerge.CapsError) else 2
    except (OverflowError, MemoryError, RecursionError) as exc:
        # a size no list, integer, memory or stack of recursive counts can hold
        print("error: size out of range (%s)" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
