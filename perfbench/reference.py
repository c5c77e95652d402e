"""The reference (exit code, stdout digest) of every request the benchmark sends.

Three sources, none of them the package under test at run time:

* computed here (oracle.py): the seq and solve tables of q, r, s, t, p, dp;
  checksums; verify of the identities that hold; split, merge and diagram;
* recorded: ``reference.tsv`` holds the exit code and stdout digest that
  ``record.py`` captured from the package at the commit that introduced
  the benchmark, for every other request the generator can draw;
* refusals: out-of-domain requests are judged by the documented exit-code
  contract alone (workloads.REFUSALS).
"""

import json
import os

from oracle import Tables, butterfly_partitions, checksum, split_parts
from serve import digest
from workloads import IDENTITY_NAMES, REFUSAL_CODES

RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.tsv")
VERIFIED = tuple(n for n in IDENTITY_NAMES if not n.endswith("-printed"))
TABLE_NAMES = ("q", "r", "s", "t", "p", "dp")


def _json_line(command, result):
    return json.dumps({"command": command, "result": result}, sort_keys=True) + "\n"


def _bfile(values):
    return "".join("%d %d\n" % (n, v) for n, v in enumerate(values))


def _parts(text):
    return tuple(sorted((int(x) for x in text.split("+")), reverse=True))


def _join(parts):
    return "+".join(map(str, parts))


def _option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Reference:
    def __init__(self, recorded=True):
        self.tables = Tables()
        self.recorded = {}
        # merge inverts split; the workloads merge only images of these partitions
        self.preimage = {(split_parts(p, v), v): p for p in butterfly_partitions(40)
                         for v in ("standard", "switched")}
        if recorded:
            with open(RECORDED) as fh:
                for line in fh:
                    request, code, dig = line.rstrip("\n").split("\t")
                    self.recorded[tuple(request.split())] = (int(code), dig)

    def expected(self, argv):
        """(exit code, stdout digest or None when only the code is judged)."""
        argv = tuple(argv)
        if argv in REFUSAL_CODES:
            return REFUSAL_CODES[argv], None
        text = self.computed(argv)
        if text is not None:
            return 0, digest(text)
        if argv not in self.recorded:
            raise KeyError("no reference for %r" % " ".join(argv))
        return self.recorded[argv]

    def computed(self, argv):
        """The expected stdout when this module can compute it, else None."""
        as_json = argv[:1] == ("--json",)
        args = argv[1:] if as_json else argv
        verb = args[0]
        if verb in ("seq", "solve") and args[1] in TABLE_NAMES:
            N = int(_option(args, "--to", None))
            values = self.tables.table(args[1], N)
            if not as_json:
                return _bfile(values)
            provenance = "enumerated" if verb == "seq" else "recurrence"
            return _json_line(verb, {"name": args[1], "offset": 0,
                                     "provenance": provenance, "values": values})
        if verb == "checksum":
            name, m = args[1], int(args[2])
            got, want = checksum(self.tables, name, m)
            if got != want:
                raise AssertionError("oracle checksum %s(%d): %d != %d" % (name, m, got, want))
            if as_json:
                return _json_line("checksum", {"name": name, "m": m, "checksum": got,
                                               "expected": want, "ok": True})
            return "checksum=%d expected=%d ok\n" % (got, want)
        if verb == "verify" and (args[1] in VERIFIED or args[1] == "all"):
            order = int(_option(args, "--order", 60))
            names = VERIFIED if args[1] == "all" else (args[1],)
            if as_json:
                return _json_line("verify", [{"name": n, "order": order, "ok": True,
                                              "mismatches": []} for n in names])
            return "".join("%s: OK 0 mismatches\n" % n for n in names)
        if verb in ("split", "merge", "diagram"):
            parts = _parts(args[1])
            variant = _option(args, "--variant", "standard")
            if verb == "split":
                out = _join(split_parts(parts, variant))
            elif verb == "merge":
                out = _join(self.preimage[(parts, variant)])
            else:
                out = "\n".join("#" * x for x in parts)
            return _json_line(verb, out) if as_json else out + "\n"
        return None


def judge(expected, code, stdout_digest):
    """True when the exit code and (if referenced) the stdout digest match."""
    want_code, want_digest = expected
    return code == want_code and (want_digest is None or stdout_digest == want_digest)
