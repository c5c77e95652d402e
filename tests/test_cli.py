import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from butterflyseq import cli
from butterflyseq import partitions as pt
from butterflyseq.cli import main
from butterflyseq.families import (
    BUTTERFLY, BUTTERFLY_EVEN, BUTTERFLY_ODD, Family, count_family, count_table, enumerate_family)
from butterflyseq.partitions import Partition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seq_bfile(capsys):
    code, out, _ = run(capsys, "seq", "s", "--to", "18")
    assert code == 0
    assert out.splitlines()[-1] == "18 2"
    assert out.splitlines()[0] == "0 1"


def test_seq_json(capsys):
    code, out, _ = run(capsys, "--json", "seq", "r1", "--to", "5")
    blob = json.loads(out)
    assert blob["command"] == "seq"
    assert blob["result"]["offset"] == 3
    assert blob["result"]["values"] == [0, 0, 1]


def test_enum(capsys):
    code, out, _ = run(capsys, "enum", "butterfly", "18")
    assert code == 0
    assert out == "7+6+5\n6+5+4+3\n"


def test_enum_bar_family(capsys):
    code, out, _ = run(capsys, "enum", "bar-bo", "21", "--h", "3")
    assert code == 0 and out == "8+7+6\n"


ENUM_ALIASES = ([(alias, fam, ()) for alias, fam in cli.FAMILY_ALIASES.items()]
                + [(alias, Family(kind, h), ("--h", str(h)))
                   for alias, kind in cli.BAR_ALIASES.items() for h in (3, 4, 5)])


def _stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("alias,fam,extra", ENUM_ALIASES,
                         ids=["%s%s" % (a, "".join(e)) for a, _, e in ENUM_ALIASES])
@settings(deadline=None, max_examples=20)
@given(n=st.integers(min_value=0, max_value=30))
def test_enum_text_and_json_round_trip(alias, fam, extra, n):
    """enum prints the family's members one per line as str(p) gives them,
    and every string of --json enum parses back to the same member, in order."""
    members = enumerate_family(n, fam)
    code, out = _stdout("enum", alias, str(n), *extra)
    assert code == 0
    assert out == "\n".join(str(p) for p in members) + "\n"
    code, out = _stdout("--json", "enum", alias, str(n), *extra)
    assert code == 0
    blob = json.loads(out)
    assert blob["command"] == "enum"
    assert [Partition.parse(text) for text in blob["result"]] == members


@pytest.mark.parametrize("alias,fam,extra", ENUM_ALIASES,
                         ids=["%s%s" % (a, "".join(e)) for a, _, e in ENUM_ALIASES])
def test_enum_prints_the_listed_members(alias, fam, extra):
    """enum's stdout is "+".join of each member's parts, one a line, at sizes
    up to those the benchmark lists."""
    for n in (12, 27, 44):
        code, out = _stdout("enum", alias, str(n), *extra)
        assert code == 0
        assert out == "\n".join("+".join(map(str, p.parts)) for p in enumerate_family(n, fam)) + "\n"


def test_enum_makes_no_partition_per_member(monkeypatch):
    """enum prints the lister's checked tuples: no Partition is built."""
    built = []

    def counted(name, fn):
        def wrapper(*args):
            built.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Partition, "__init__", counted("__init__", Partition.__init__))
    monkeypatch.setattr(Partition, "_wrap", staticmethod(counted("_wrap", Partition._wrap)))
    code, out = _stdout("enum", "strict", "30")
    assert code == 0 and len(out.splitlines()) == 296
    assert built == []


@pytest.mark.parametrize("bad,line", [
    ((3, 4), "error: parts must be non-increasing: (3, 4)"),
    ((3, 0), "error: parts must be positive integers: (3, 0)"),
])
def test_enum_refuses_a_listed_tuple_that_is_no_partition(monkeypatch, capsys, bad, line):
    """Each listed tuple still gets Partition's test: a lister that returns
    a tuple no partition has makes enum exit 2 with __init__'s own message."""
    from butterflyseq import families
    monkeypatch.setattr(families, "_iter_staircase", lambda n, threes, tail: [bad])
    code, out, err = run(capsys, "enum", "staircase-33", "33")
    assert code == 2 and out == ""
    assert err.splitlines() == [line]


def test_enum_unknown_family(capsys):
    code, _, err = run(capsys, "enum", "nope", "9")
    assert code == 2
    assert "unknown family" in err


def test_bij(capsys):
    code, out, _ = run(capsys, "bij", "butterfly", "--from", "6", "--to", "24")
    assert code == 0 and "pass" in out


def test_bij_that_checks_nothing_fails(capsys):
    code, out, _ = run(capsys, "bij", "bar", "--from", "6", "--to", "10")
    assert code == 1
    assert out.strip() == "bar bijection on n=6..10: FAIL (0 maps checked)"


@pytest.mark.parametrize("argv", [
    ("bij", "bar", "--from", "6", "--to", "10", "--h", "2"),
    ("enum", "bar-ae", "20", "--h", "0"),
])
def test_bar_size_below_three_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_negative_order_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--order", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --order: must be >= 0, got -1" in out.err and "coefficients" not in out.err


def test_negative_parity_bound_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parity", "--exceptions", "--to", "-1"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --to: must be >= 0, got -1" in out.err
    code, out, _ = run(capsys, "parity", "--exceptions", "--to", "0")
    assert code == 0 and out == "\n"


@pytest.mark.parametrize("text", ["7", "7+6"])
def test_split_of_too_few_parts_is_usage_error(capsys, text):
    code, out, err = run(capsys, "split", text)
    assert code == 2 and out == ""
    assert "not a butterfly partition" in err


def test_bij_raise_below_its_domain_is_usage_error(capsys):
    code, out, err = run(capsys, "bij", "raise", "--from", "1", "--to", "5")
    assert code == 2 and out == ""
    assert "--from must be >= 2" in err
    code, out, _ = run(capsys, "bij", "raise", "--from", "2", "--to", "5")
    assert code == 0 and "pass" in out


def test_a_huge_bar_size_is_answered_without_its_shape(capsys):
    """No bar set of size h has a member below 3h(h+1)/2: at --h 10^6, enum
    and bij answer as at --h 40, and enum allocates nothing of size h."""
    tracemalloc.start()
    try:
        code = main(["enum", "bar-ae", "20", "--h", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, "\n")
    assert peak < 1 << 20, peak
    assert run(capsys, "bij", "bar", "--from", "6", "--to", "30", "--h", "1000000") == (
        1, "bar bijection on n=6..30: FAIL (0 maps checked)\n", "")


@pytest.mark.parametrize("kind, least", [("butterfly", 6), ("bar", 0)])
def test_bij_below_its_domain_is_usage_error(capsys, kind, least):
    """A --from below the map's domain is refused at the CLI with its bound,
    not by the family lister at a negative n, nor as a failed check at an n
    (4 or 5) where the butterfly map does not hold."""
    code, out, err = run(capsys, "bij", kind, "--from", str(least - 1), "--to", "8")
    assert code == 2 and out == ""
    assert "bij %s --from must be >= %d" % (kind, least) in err
    assert "nonnegative" not in err
    # at the bound the map runs and reports: the butterfly map on its one
    # source (3+2+1, at n = 7), the bar map on no bar set, so it fails
    code, out, _ = run(capsys, "bij", kind, "--from", str(least), "--to", "8")
    assert (code, out) == {
        "butterfly": (0, "butterfly bijection on n=6..8: pass (1 maps checked)\n"),
        "bar": (1, "bar bijection on n=0..8: FAIL (0 maps checked)\n")}[kind]


def test_unknown_bij_kind_lists_the_kinds_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # argparse wraps its usage line to the terminal
    with pytest.raises(SystemExit) as exc:
        main(["bij", "nosuch", "--from", "2", "--to", "5"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "usage: butterflyseq bij [-h] --from START --to TO [--h H] {raise,butterfly,bar}\n"
        "butterflyseq bij: error: argument kind: invalid choice: 'nosuch' "
        "(choose from 'raise', 'butterfly', 'bar')\n")


def test_split_merge_round(capsys):
    code, out, _ = run(capsys, "split", "7+6+5+4+3+2", "--variant", "switched")
    assert code == 0 and out.strip() == "13+5+3+3+3"
    code, out, _ = run(capsys, "merge", "13+5+3+3+3", "--variant", "switched")
    assert code == 0 and out.strip() == "7+6+5+4+3+2"


def test_merge_caps_violation_is_domain_exit(capsys):
    # violated caps are a domain failure, the same exit as caps on that input
    code, out, err = run(capsys, "merge", "13+5+3")
    assert code == 1 and out == "" and "error" in err
    code, _, _ = run(capsys, "caps", "13+5+3")
    assert code == 1


def test_caps(capsys):
    code, out, _ = run(capsys, "--json", "caps", "5+3+3+3")
    blob = json.loads(out)
    assert blob["result"]["satisfied"] is True
    assert blob["result"]["two_t"] == 2


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "9+8+7")
    assert code == 0 and out.strip() == "nonpent_vbar h=3"


def test_parity(capsys):
    code, out, _ = run(capsys, "parity", "12")
    assert code == 0 and "even_plus_one" in out
    code, out, _ = run(capsys, "parity", "--exceptions", "--to", "51")
    assert code == 0
    assert [int(x) for x in out.split()] == [9, 12, 14, 15, 17, 22, 24, 26,
                                             28, 35, 37, 40, 42, 51]


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "butterfly-filtration", "--order", "60")
    assert code == 0 and out.strip() == "butterfly-filtration: OK 0 mismatches"
    code, out, _ = run(capsys, "verify", "all", "--order", "40")
    assert code == 0


def test_verify_that_checked_no_degree_fails(capsys):
    # oddge5-butterfly-tail holds only from degree 9: at order 5 no
    # coefficient is compared, which is not a pass
    code, out, _ = run(capsys, "verify", "oddge5-butterfly-tail", "--order", "5")
    assert code == 1
    assert "OK" not in out and "no degree checked" in out
    code, out, _ = run(capsys, "--json", "verify", "oddge5-butterfly-tail", "--order", "8")
    assert code == 1
    assert json.loads(out)["result"] == [{"name": "oddge5-butterfly-tail", "order": 8,
                                          "ok": False, "mismatches": []}]
    code, out, _ = run(capsys, "verify", "all", "--order", "8")
    assert code == 1
    # from the identity's first degree on, the report is the usual pass
    code, out, _ = run(capsys, "verify", "oddge5-butterfly-tail", "--order", "9")
    assert code == 0 and out == "oddge5-butterfly-tail: OK 0 mismatches\n"


def test_verify_reports_mismatches(capsys):
    code, out, _ = run(capsys, "verify", "butterfly-filtration-printed", "--order", "30")
    assert code == 1
    assert "5 1 2" in out


def test_checksum(capsys):
    code, out, _ = run(capsys, "checksum", "t", "10")
    assert code == 0 and out.strip() == "checksum=2 expected=2 ok"


def test_solve(capsys):
    code, out, _ = run(capsys, "solve", "s", "--to", "12")
    assert code == 0
    assert out.splitlines()[-1] == "12 1"


def test_negative_bound_is_usage_error(capsys):
    for verb in ("seq", "solve"):
        code, out, err = run(capsys, verb, "s", "--to", "-2")
        assert code == 2 and out == "" and "error" in err, verb


@pytest.mark.parametrize("argv", [
    ("seq", "p", "--to"), ("seq", "r1", "--to"), ("solve", "q", "--to"),
    ("checksum", "q"), ("verify", "all", "--order")])
def test_size_beyond_any_table_is_usage_error(capsys, argv):
    # 10^20 coefficients fit no list or packed integer: refused, not a traceback
    code, out, err = run(capsys, *argv, str(10 ** 20))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _fresh_cli(argv, timeout):
    # a fresh process, under a 1 GB address-space limit set in the child
    # only, so that a request that grows without bound fails fast
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "butterflyseq.cli"] + list(argv),
                          capture_output=True, text=True, env=env, preexec_fn=limit_memory,
                          timeout=timeout)


@pytest.mark.parametrize("argv", [
    ("seq", "p", "--to", "10000000000"), ("solve", "q", "--to", "10000000000"),
    ("verify", "all", "--order", "100000000000")])
def test_size_beyond_memory_is_usage_error(argv):
    # sizes that fit an index but not memory: under the 1 GB limit the
    # table allocation fails at once and the request is refused like a
    # size no list can hold
    done = _fresh_cli(argv, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: size out of range (") and done.stderr.count("\n") == 1


def test_solve_beyond_memory_leaves_the_stored_tables(capsys):
    # the right-hand side of 10^14 coefficients is refused at its allocation,
    # before the stored checksum base is touched
    first = run(capsys, "solve", "s", "--to", "300")
    assert first[0] == 0
    stored = {key: list(v) for key, v in pt._SOLVED.items()}
    code, out, err = run(capsys, "solve", "s", "--to", "99999999999999")
    assert (code, out) == (2, "")
    assert err.startswith("error: size out of range (") and err.count("\n") == 1
    assert pt._SOLVED == stored and set(stored) == {"theta"}
    assert run(capsys, "solve", "s", "--to", "300") == first


def test_exception_list_beyond_its_budget_is_usage_error():
    # about 4 sqrt(2N/3) inputs lie below N: at 10^20 that is some 3 * 10^10,
    # which no list holds; the count is known in closed form, so the
    # refusal comes at once, before any memory runs out
    done = _fresh_cli(["parity", "--exceptions", "--to", str(10 ** 20)], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "budget" in done.stderr and "out of memory" not in done.stderr


@pytest.mark.parametrize("name, kind, N", [
    ("s_e", BUTTERFLY_EVEN, 4000), ("r1_dprime", BUTTERFLY, 10000)])
def test_butterfly_tables_answer_from_a_fresh_process(name, kind, N):
    # s_e and r1'' are read from one stored packed table, with no recursion,
    # so a fresh process answers far past Python's recursion limit
    done = _fresh_cli(["seq", name, "--to", str(N)], timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "%d %d" % (N, count_table(N, Family(kind))[N])


@pytest.mark.parametrize("alias, kind, n", [
    ("butterfly", BUTTERFLY, 5000), ("butterfly-even", BUTTERFLY_EVEN, 3000)])
def test_butterfly_listing_from_a_fresh_process_is_refused_by_its_count(alias, kind, n):
    done = _fresh_cli(["enum", alias, str(n)], timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: %s at n=%d: %d to list, above the listing budget of %d\n" % (
        kind, n, count_table(n, Family(kind))[n], pt.LISTING_BUDGET)


def test_no_request_reaches_the_memo(monkeypatch, capsys):
    """With the per-n memo (count_head_tail, _strict_bounded_count) made to
    raise, every seq table, a butterfly listing past the unchecked size, a
    parity check and the counts of the butterfly and odd-step kinds still
    answer: each butterfly count is read from the packed table."""
    from butterflyseq.families import ODD_STEP1, ODD_STEP1_SWITCHED, ODD_STEP2, ODD_STEP2_SWITCHED
    from butterflyseq.sequences import SEQUENCE_NAMES

    want = {parity: count_table(300, Family(BUTTERFLY), parity) for parity in (None, 0, 1)}

    def refuse(*args, **kwargs):
        raise AssertionError("reached the memo")

    for fn in ("count_head_tail", "_strict_bounded_count"):
        monkeypatch.setattr(pt, fn, refuse)
    for name in SEQUENCE_NAMES:
        assert run(capsys, "seq", name, "--to", "300")[0] == 0, name
    code, out, _ = run(capsys, "enum", "butterfly", "130")
    assert code == 0 and len(out.splitlines()) == want[None][130]
    assert run(capsys, "parity", "60") == (0, "60 equal ok\n", "")
    for kind, parity in ((BUTTERFLY, None), (BUTTERFLY_EVEN, 0), (BUTTERFLY_ODD, 1),
                         (ODD_STEP1, 0), (ODD_STEP2, 1), (ODD_STEP1_SWITCHED, 0),
                         (ODD_STEP2_SWITCHED, 1)):
        for n in (0, 5, 6, 77, 300):
            assert count_family(n, Family(kind)) == want[parity][n], (kind, n)


def test_a_stored_butterfly_table_answers_every_request_below_it(monkeypatch, capsys):
    """After parity 10000 builds the two parity tables, a second parity
    10000 and any request at or below a stored N build nothing: the packed
    kernel is not called."""
    assert run(capsys, "parity", "10000") == (0, "10000 equal ok\n", "")
    real, calls = pt.count_head_tail_table, []

    def counted(N, shape, second_parity=None):
        calls.append((N, second_parity))
        return real(N, shape, second_parity)

    monkeypatch.setattr(pt, "count_head_tail_table", counted)
    # the enum requests are refused by the budget, after their count
    for argv, code in ((("parity", "10000"), 0), (("parity", "60"), 0),
                       (("seq", "s_e", "--to", "4000"), 0), (("seq", "s_o", "--to", "10000"), 0),
                       (("enum", "odd-step2", "9000"), 2), (("enum", "butterfly-even", "700"), 2),
                       (("--json", "parity", "6000"), 0)):
        assert run(capsys, *argv)[0] == code, argv
        assert calls == [], argv
    assert run(capsys, "seq", "r1_dprime", "--to", "2000")[0] == 0
    assert calls == [(2000, None)]
    for argv in (("seq", "r1_dprime", "--to", "2000"), ("enum", "butterfly", "1999")):
        run(capsys, *argv)
    assert calls == [(2000, None)]


@pytest.mark.parametrize("n", [1600, 5000])
def test_parity_answers_above_the_recursion_limit(n):
    # s_e and s_o of one n are each read from one packed head-and-tail
    # table, with no recursion, so parity answers at any n
    done = _fresh_cli(["parity", str(n)], timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "%d equal ok\n" % n, "")


def test_cli_import_loads_no_introspection_modules():
    # every call starts a fresh interpreter, so what importing the CLI loads
    # is paid per call: dataclasses alone pulls in inspect, ast, dis and
    # tokenize, none of which a request uses
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = ("import sys; before = set(sys.modules); import butterflyseq.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "butterflyseq.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_listing_limit_does_not_block_a_count(capsys):
    from butterflyseq.partitions import count_butterfly
    from butterflyseq.sequences import named_sequence
    code, out, _ = run(capsys, "seq", "s_e", "--to", "250")
    assert code == 0
    assert out.splitlines()[-1] == "250 %d" % count_butterfly(250, 0)
    # r1 is counted from its head-and-tail table, which lists nothing: its
    # last row obeys r1 + r2 = r, with r2(n) = r1(n - 1) and r from the
    # pentagonal q
    code, out, _ = run(capsys, "seq", "r1", "--to", "250")
    rows = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert code == 0 and rows[-1][0] == 250
    assert rows[-1][1] + rows[-2][1] == named_sequence("r", 250)[250]
    # listing r1 at the same n is still refused, by its count
    code, out, err = run(capsys, "enum", "r1", "250")
    assert code == 2 and out == "" and "budget" in err
    assert str(rows[-1][1]) in err


def test_listing_above_the_budget_reaches_no_lister(capsys, monkeypatch):
    # q(200) = 487,067,746 strict partitions: refused by the count, before
    # the filler or the head-and-tail lister is called
    from butterflyseq import families, partitions
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return []

    for module in (families, partitions):
        for name in ("pool_tuples", "iter_head_tail_tuples"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    code, out, err = run(capsys, "enum", "strict", "200")
    assert (code, out, calls) == (2, "", [])
    assert "487067746" in err and "budget" in err and err.count("\n") == 1


def test_listing_above_n_200_answers_when_its_count_fits(capsys):
    from butterflyseq.families import BAR_AE, in_family
    code, out, _ = run(capsys, "enum", "bar-ae", "300", "--h", "10")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 19
    fam = Family(BAR_AE, 10)
    for line in lines:
        p = Partition(line.split("+"))
        assert p.n == 300 and in_family(p, fam), line


def test_bijection_range_above_the_budget_is_refused_at_once():
    # the raise map over 2..201 would list q(1) + ... + q(200), some 8 * 10^9
    # strict partitions; counted from the q table, the range is refused
    # before its first listing
    done = _fresh_cli(["bij", "raise", "--from", "2", "--to", "201"], timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "budget" in done.stderr


def test_diagram(capsys):
    code, out, _ = run(capsys, "diagram", "4+3+2")
    assert code == 0 and out == "####\n###\n##\n"


def test_output_is_deterministic(capsys):
    one = run(capsys, "--json", "seq", "s", "--to", "30")
    two = run(capsys, "--json", "seq", "s", "--to", "30")
    assert one == two
    one = run(capsys, "verify", "all", "--order", "30")
    two = run(capsys, "verify", "all", "--order", "30")
    assert one == two


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["seq"])  # missing required arguments
    assert exc.value.code == 2


def test_parser_is_built_once_and_serves_every_call_alike(capsys):
    # one parser serves every call of a process; each call still answers as
    # a fresh process does, a refusal by argparse included
    assert cli.build_parser() is cli.build_parser()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for argv in (["seq", "s", "--to", "-1"], ["enum", "bar-ae", "20", "--h", "2"],
                 ["--json", "split", "7+6+5+4+3+2"], ["seq", "nope", "--to", "3"],
                 ["--json", "parity", "12"]):
        fresh = subprocess.run([sys.executable, "-m", "butterflyseq.cli"] + argv,
                               capture_output=True, text=True, env=env)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
