import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from helpers import sign_masked, twinned
from nwaq.cli import main
from nwaq.corpus import art_types, cond_a2, k_art
from nwaq.oracle import min_partial_average
from nwaq.textio import (
    ParseError,
    parse_mca,
    parse_nwa,
    parse_word,
    render_mca,
    render_nwa,
    render_word,
)

DATA = Path(__file__).resolve().parent.parent / "src" / "nwaq" / "corpus_data"


def run_cli(capsys, *args) -> tuple[int, dict]:
    code = main(list(args))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else {}


def test_corpus_files_match_programmatic():
    # the fixed corpus instances are these files, parsed; the builders' must match theirs
    for nwa in (k_art(2), k_art(3), art_types(2), art_types(3)):
        parsed = parse_nwa((DATA / f"{nwa.name}.nwa").read_text())
        assert replace(parsed, name=nwa.name) == nwa, nwa.name


def test_round_trip_canonical_fixpoint():
    for path in sorted(DATA.iterdir()):
        text = path.read_text()
        if path.suffix == ".nwa":
            assert render_nwa(parse_nwa(text)) == text, path.name
        else:
            assert render_mca(parse_mca(text)) == text, path.name


def test_parse_error_location():
    text = "nwa\nalphabet a\nmaster\n  states q\n  initial q\n  trans q zz q invoke 1\n"
    with pytest.raises(ParseError) as err:
        parse_nwa(text)
    assert err.value.line == 6


MCA_TEXT = (DATA / "mca_counter.mca").read_text()
NWA_TEXT = (DATA / "art1.nwa").read_text()


@pytest.mark.parametrize(
    "suffix, text, message",
    [
        (".nwa", NWA_TEXT.replace("alphabet r g hash", "alphabet r g hash r"), "alphabet letters must be distinct"),
        (".mca", MCA_TEXT.replace("alphabet hash a", "alphabet hash a a"), "alphabet letters must be distinct"),
        (".mca", MCA_TEXT.replace("alphabet hash a", "alphabet"), "alphabet needs letters"),
        (".mca", MCA_TEXT.replace("states q0 q1", "states q0 q0 q1"), "duplicate state q0"),
        (".nwa", NWA_TEXT.replace("states u_init u_wait u_idle", "states u_init u_wait u_idle u_wait"),
         "duplicate state u_wait"),
        (".nwa", NWA_TEXT.replace("initial u_init", "initial u_nowhere"), "unknown state u_nowhere"),
        (".nwa", NWA_TEXT.replace("accepting u_idle", "accepting u_idle u_nowhere"), "unknown state u_nowhere"),
        (".mca", MCA_TEXT.replace("initial q0", "initial q9"), "unknown state q9"),
        (".mca", MCA_TEXT.replace("accepting q0", "accepting q9"), "unknown state q9"),
        (".nwa", NWA_TEXT.replace("slave 1 valuefn sum+", "master"), "repeated master section"),
        (".nwa", NWA_TEXT.replace("slave 2 valuefn sum", "slave 1 valuefn sum"), "repeated slave 1 section"),
        (".nwa", NWA_TEXT.replace("  accepting d0", "alphabet r g hash"), "repeated alphabet line"),
        (".mca", MCA_TEXT.replace("accepting q0", "counters 1"), "repeated counters line"),
        (".mca", MCA_TEXT.replace("counters 1", "alphabet hash a"), "repeated alphabet line"),
    ],
    ids=[
        "nwa-repeated-letter",
        "mca-repeated-letter",
        "mca-empty-alphabet",
        "mca-duplicate-state",
        "nwa-duplicate-state",
        "nwa-unknown-initial",
        "nwa-unknown-accepting",
        "mca-unknown-initial",
        "mca-unknown-accepting",
        "nwa-repeated-master",
        "nwa-repeated-slave",
        "nwa-repeated-alphabet",
        "mca-repeated-counters",
        "mca-repeated-alphabet",
    ],
)
def test_malformed_sections_are_parse_errors(capsys, tmp_path, suffix, text, message):
    # a repeated letter, an empty alphabet, a repeated state name or an
    # unknown one, and a second alphabet, counters, master or same-numbered
    # slave header, is a parse error in both formats, reported at the one
    # edited line, and `check` exits 2 on it
    parse = parse_nwa if suffix == ".nwa" else parse_mca
    with pytest.raises(ParseError, match=message) as err:
        parse(text)
    original = (NWA_TEXT if suffix == ".nwa" else MCA_TEXT).splitlines()
    edited = [n for n, (a, b) in enumerate(zip(text.splitlines(), original), start=1) if a != b]
    assert [err.value.line] == edited
    bad = tmp_path / f"bad{suffix}"
    bad.write_text(text)
    assert main(["check", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "suffix, text, message, line, col",
    [
        (".nwa", NWA_TEXT.replace("nwa\n", "nwa2\n", 1), "expected header 'nwa'", 1, 0),
        (".mca", "; a note\n\n  counters 1\n", "expected header 'mca'", 3, 0),
        (".nwa", NWA_TEXT.replace("u_wait invoke 1", "u_wait invoke x"), "bad integer x", 7, 0),
        (".nwa", NWA_TEXT.replace("u_wait invoke 1", "u_wait weight 1"),
         "expected 'invoke' in a master transition", 7, 0),
        (".nwa", NWA_TEXT.replace("s0 r s0 weight 1", "s0 r s0 invoke 1"),
         "expected 'weight' in a slave transition", 16, 0),
        (".nwa", NWA_TEXT.replace("u_wait invoke 1", "u_wait invoke"),
         "expected: trans SRC LETTER DST invoke|weight N", 7, 0),
        (".nwa", NWA_TEXT.replace("s0 g s1 weight 0", "s0 zz s1 weight 0"), "unknown letter zz", 17, 0),
        (".nwa", NWA_TEXT.replace("s0 g s1 weight 0", "s0 g s9 weight 0"), "unknown state s9", 17, 0),
        (".nwa", NWA_TEXT.replace("alphabet r g hash", "alphabet r g hash\n  states x"),
         "'states' outside a section", 3, 2),
        (".nwa", NWA_TEXT.replace("  accepting s1", "  accept s1"), "unknown directive accept", 15, 2),
        (".nwa", NWA_TEXT.replace("valuefn sum+", "valuefn max"), "expected: slave N valuefn sum|sum+", 12, 0),
        (".nwa", NWA_TEXT.replace("slave 1 valuefn", "slave one valuefn"), "bad slave index one", 12, 0),
        (".nwa", NWA_TEXT.replace("alphabet r g hash\n", ""), "missing alphabet", 1, 0),
        (".nwa", "nwa\nalphabet a\nslave 1 valuefn sum\n  states s\n  initial s\n", "missing master section", 1, 0),
        (".nwa", NWA_TEXT.replace("slave 2 valuefn", "slave 3 valuefn"), "slave indexes must be 1..l", 1, 0),
        (".mca", MCA_TEXT.replace("q1 a q1 [1]", "q1 a q1 [x]"), "bad instruction 'x'", 10, 0),
        (".mca", MCA_TEXT.replace("q0 hash q1 [s]", "q0 hash q1 [s, t]"), "instruction vector needs 1 entries", 7, 0),
        (".mca", MCA_TEXT.replace("q0 a q0 [.]", "q0 a q0 ."), "expected: trans SRC LETTER DST \\[instr", 8, 0),
        (".mca", MCA_TEXT.replace("q0 a q0 [.]", "q0 a [.]"), "expected: trans SRC LETTER DST \\[instr", 8, 0),
        (".mca", MCA_TEXT.replace("q0 a q0 [.]", "q0 b q0 [.]"), "unknown letter b", 8, 0),
        (".mca", MCA_TEXT.replace("q0 a q0 [.]", "q0 a q7 [.]"), "unknown state q7", 8, 0),
        (".mca", MCA_TEXT.replace("counters 1", "counters one"), "expected: counters N", 3, 0),
        (".mca", MCA_TEXT.replace("counters 1\n", ""), "missing alphabet or counters", 1, 0),
        (".mca", MCA_TEXT.replace("initial q0", "  master"), "unknown directive master", 5, 2),
    ],
    ids=[
        "nwa-header",
        "mca-header-past-blank-lines",
        "nwa-bad-integer",
        "nwa-weight-in-master",
        "nwa-invoke-in-slave",
        "nwa-five-token-trans",
        "nwa-unknown-letter-in-slave",
        "nwa-unknown-state-in-slave",
        "nwa-states-before-a-section",
        "nwa-indented-unknown-directive",
        "nwa-malformed-slave-header",
        "nwa-bad-slave-index",
        "nwa-missing-alphabet",
        "nwa-missing-master",
        "nwa-slave-numbers-not-1-to-l",
        "mca-bad-instruction",
        "mca-wrong-vector-length",
        "mca-no-vector",
        "mca-four-token-trans",
        "mca-unknown-letter",
        "mca-unknown-state",
        "mca-malformed-counters",
        "mca-missing-counters",
        "mca-indented-unknown-directive",
    ],
)
def test_parse_errors_carry_message_line_and_column(suffix, text, message, line, col):
    # every ParseError branch, each reported at its own line and column:
    # lines are numbered from 1, a directive's column is its indentation,
    # a transition's is 0, and what only the whole text shows is at line 1
    parse = parse_nwa if suffix == ".nwa" else parse_mca
    with pytest.raises(ParseError, match=message) as err:
        parse(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert str(err.value).startswith(f"line {line}, col {col}: ")


def test_word_syntax():
    w = parse_word("r g | r r g")
    assert w.prefix == ("r", "g") and w.period == ("r", "r", "g")
    assert parse_word("| r g").prefix == ()
    assert render_word(w) == "r g | r r g"


def test_cli_check_and_exit_codes(capsys, tmp_path):
    code, out = run_cli(capsys, "check", str(DATA / "art1.nwa"))
    assert code == 0 and out["answer"] is True
    bad = tmp_path / "bad.nwa"
    bad.write_text("nwa\nalphabet a\nmaster\n  states q\n  initial q\n  accepting q\n  trans q a q invoke 7\n")
    code, out = run_cli(capsys, "check", str(bad))
    assert code == 1 and out["answer"] is False


@pytest.mark.parametrize("shape", ["comment-line-first", "comment-on-header"])
def test_cli_reads_the_header_past_comments(capsys, tmp_path, shape):
    text = (DATA / "art1.nwa").read_text()
    text = "; note\n" + text if shape == "comment-line-first" else text.replace("nwa\n", "nwa;note\n", 1)
    commented = tmp_path / "art1.nwa"
    commented.write_text(text)
    for args in (["check"], ["infimum", "--k", "1"], ["eval", "--word", "| r g"]):
        expected = run_cli(capsys, args[0], str(DATA / "art1.nwa"), *args[1:])
        assert expected[0] in (0, 1) and run_cli(capsys, args[0], str(commented), *args[1:]) == expected


def test_cli_rejects_a_comment_only_file(capsys, tmp_path):
    blank = tmp_path / "blank.nwa"
    blank.write_text("; only a note\n   ; and another\n")
    for args in (["check"], ["infimum", "--k", "1"], ["eval", "--word", "| r g"]):
        assert main([args[0], str(blank), *args[1:]]) == 2
        assert "empty file" in capsys.readouterr().err
    blank.write_text("nwa2\n")
    assert main(["check", str(blank)]) == 2
    assert "unknown header 'nwa2'" in capsys.readouterr().err


def test_cli_eval(capsys):
    code, out = run_cli(capsys, "eval", str(DATA / "art1.nwa"), "--word", "| r g", "--cap", "1")
    assert code == 0
    assert out["value"] == {"tag": "finite", "p": 1, "q": 1}
    code, out = run_cli(capsys, "eval", str(DATA / "mca_counter.mca"), "--word", "| hash a a a hash a")
    assert out["value"] == {"tag": "finite", "p": 3, "q": 1}


def test_cli_width(capsys):
    code, out = run_cli(capsys, "width", str(DATA / "art1.nwa"), "--k", "1")
    assert code == 0 and out["answer"] is True
    code, out = run_cli(capsys, "width", str(DATA / "art.nwa"), "--k", "2")
    assert code == 1 and out["witness"] == "r r r"
    code, out = run_cli(capsys, "width", str(DATA / "average_excess.nwa"), "--max", "4")
    assert code == 0 and out["witness"] == 1


def test_cli_empty_and_certificate(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out = run_cli(
        capsys, "empty", str(DATA / "cond_a1.nwa"), "--k", "2", "--le", "0", "--certificate", str(cert_path)
    )
    assert code == 0 and out["answer"] is True
    cert = json.loads(cert_path.read_text())
    assert cert["answer"] is True and cert["flags"] == []
    # the emitted witness replays under eval to a value within the threshold
    code, replay = run_cli(capsys, "eval", str(DATA / "cond_a1.nwa"), "--word", cert["witness"], "--cap", "2")
    assert code == 0
    assert replay["value"]["p"] <= 0

    code, out = run_cli(capsys, "empty", str(DATA / "cond_a1.nwa"), "--k", "2", "--lt", "0")
    assert code == 1 and out["answer"] is False


def test_cli_infimum_star_universal(capsys):
    code, out = run_cli(capsys, "infimum", str(DATA / "cond_a2.nwa"), "--k", "2")
    assert code == 0 and out["value"]["tag"] == "neg-infinity"
    code, out = run_cli(capsys, "star", str(DATA / "cond_a1.nwa"), "--k", "2")
    assert code == 1 and out["answer"] is False
    code, out = run_cli(capsys, "star", str(DATA / "average_excess.nwa"), "--k", "1")
    assert code == 0 and out["witness"]["j"] == 1
    code, out = run_cli(capsys, "universal", str(DATA / "art1.nwa"), "--k", "1", "--le", "1/2")
    assert code == 1 and out["answer"] is False


def test_cli_universal_accepts_the_least_64_bit_weight(capsys, tmp_path):
    # every word's value is -2^63, whose negation leaves the 64-bit range
    path = tmp_path / "int64_min.nwa"
    path.write_text(
        "nwa\nalphabet a\nmaster\n  states m0\n  initial m0\n  accepting m0\n  trans m0 a m0 invoke 1\n"
        "slave 1 valuefn sum\n  states s0 s1\n  initial s0\n  accepting s1\n"
        "  trans s0 a s1 weight -9223372036854775808\n"
    )
    code, out = run_cli(capsys, "infimum", str(path), "--k", "1")
    assert code == 0 and out["value"] == {"tag": "finite", "p": -(2**63), "q": 1}
    for flag, t, expected in (("--le", "0", True), ("--le", "-9223372036854775808", True),
                              ("--lt", "-9223372036854775808", False)):
        code, out = run_cli(capsys, "universal", str(path), "--k", "1", flag, t)
        assert (code, out["answer"]) == (0 if expected else 1, expected), (flag, t)


def test_cli_nondeterministic_descent_witness(capsys, tmp_path):
    # cond_a2 with a weight-5 twin of the decrementing slave's a step
    nwa = twinned(cond_a2(), 5, slave=2, letter="a")
    path = tmp_path / "cond_a2_twin.nwa"
    path.write_text(render_nwa(nwa))
    letters = set(nwa.alphabet.letters)
    code, out = run_cli(capsys, "infimum", str(path), "--k", "2")
    assert code == 0 and out["value"]["tag"] == "neg-infinity"
    pumped = parse_word(out["witness"]["pumped"])
    assert set(out["witness"]["cycle_letters"]) | set(pumped.prefix + pumped.period) <= letters
    code, out = run_cli(capsys, "star", str(path), "--k", "2")
    assert code == 0 and set(out["witness"]["cycle_letters"]) <= letters
    # the least run of the pumped word is the deterministic cond_a2's run
    code, out = run_cli(capsys, "empty", str(path), "--k", "2", "--le", "-150")
    assert code == 0
    assert min_partial_average(cond_a2(), parse_word(out["witness"]["pumped"]), 2, 8) <= -150


def test_cli_translate_round_trip(capsys, tmp_path):
    out_nwa = tmp_path / "counter.nwa"
    code, _ = run_cli(capsys, "translate", str(DATA / "mca_counter.mca"), "--to", "nwa", "-o", str(out_nwa))
    assert code == 0
    code, out = run_cli(capsys, "eval", str(out_nwa), "--word", "| hash a a a hash a", "--cap", "1")
    assert out["value"] == {"tag": "finite", "p": 3, "q": 1}
    out_mca = tmp_path / "art1.mca"
    code, _ = run_cli(capsys, "translate", str(DATA / "art1.nwa"), "--to", "mca", "--k", "1", "-o", str(out_mca))
    assert code == 0
    code, out = run_cli(capsys, "eval", str(out_mca), "--word", "| r g")
    assert out["value"] == {"tag": "finite", "p": 1, "q": 1}


def test_cli_reduce(capsys, tmp_path):
    out_path = tmp_path / "reduced.nwa"
    code, _ = run_cli(capsys, "reduce", str(DATA / "cond_a1.nwa"), "--k", "2", "-o", str(out_path))
    assert code == 0
    code, out = run_cli(capsys, "width", str(out_path), "--k", "1")
    assert code == 0
    code, out = run_cli(capsys, "eval", str(out_path), "--word", "| one two a hash", "--cap", "1")
    assert out["value"] == {"tag": "finite", "p": 0, "q": 1}


@pytest.mark.parametrize(
    "command",
    [
        ["empty", "--le", "0"],
        ["infimum"],
        ["universal", "--le", "0"],
        ["star"],
        ["reduce", "-o"],
        ["translate", "--to", "mca", "-o"],
    ],
)
def test_width_overflow_message_is_the_same_for_every_command(capsys, tmp_path, command):
    out = tmp_path / "out"
    extra = [str(out)] if command[-1] == "-o" else []
    code = main([command[0], str(DATA / "art.nwa"), "--k", "1", *command[1:], *extra])
    captured = capsys.readouterr()
    assert code == 2 and not out.exists()
    assert (captured.out, captured.err) == ("", "error: automaton exceeds width 1 (witness r r)\n")


@pytest.mark.parametrize("k, witness", [(2, "r1 r2 r3"), (3, "r1 r2 r3 r4")])
def test_a_descent_found_early_keeps_the_width_error(capsys, tmp_path, k, witness):
    # at k = 3 the star test finds the descent before the exploration passes
    # the cap; the width search then still raises the width error
    path = tmp_path / "neg1.nwa"
    path.write_text(render_nwa(sign_masked(art_types(4), {1})))
    code = main(["infimum", str(path), "--k", str(k)])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", f"error: automaton exceeds width {k} (witness {witness})\n")


def test_star_and_infimum_report_the_same_early_witness(capsys, tmp_path):
    path = tmp_path / "neg13.nwa"
    path.write_text(render_nwa(sign_masked(art_types(4), {1, 3})))
    code, star = run_cli(capsys, "star", str(path), "--k", "4")
    assert code == 0
    code, inf = run_cli(capsys, "infimum", str(path), "--k", "4")
    assert code == 0 and inf["value"]["tag"] == "neg-infinity"
    assert {key: inf["witness"][key] for key in star["witness"]} == star["witness"]


@pytest.mark.parametrize(
    "argv",
    [
        ("empty", "cond_a1.nwa", "--k", "2", "--le", "0", "--certificate", "{tmp}/missing/c.json"),
        ("translate", "k_art_2.nwa", "--to", "mca", "--k", "2", "-o", "{tmp}/missing/x.mca"),
        ("reduce", "cond_a1.nwa", "--k", "2", "-o", "{tmp}/missing/r.nwa"),
        ("check", "{tmp}/bom.nwa"),
    ],
    ids=["certificate", "translate", "reduce", "undecodable"],
)
def test_cli_file_errors_exit_2(capsys, tmp_path, argv):
    # an unwritable output or an undecodable input is a usage error, exit 2,
    # never the "no" of exit 1
    (tmp_path / "bom.nwa").write_bytes(b"\xff\xfe")  # a UTF-16 byte order mark, not UTF-8
    command, file, *rest = (arg.format(tmp=tmp_path) for arg in argv)
    code = main([command, str(DATA / file), *rest])  # DATA / an absolute path is that path
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: cannot") and "Traceback" not in captured.err


def test_cli_usage_errors(capsys):
    code, _ = run_cli(capsys, "width", str(DATA / "art1.nwa"))
    assert code == 2
    code, _ = run_cli(capsys, "eval", str(DATA / "art1.nwa"), "--word", "r g")  # missing |
    assert code == 2
    code = main(["empty", str(DATA / "art.nwa"), "--k", "2", "--le", "0"])  # exceeds width
    capsys.readouterr()
    assert code == 2
    code = main(["width", str(DATA / "mca_counter.mca"), "--k", "1"])  # wrong file kind
    capsys.readouterr()
    assert code == 2
    code = main(["eval", str(DATA / "art1.nwa"), "--word", "| r zz"])  # unknown letter
    capsys.readouterr()
    assert code == 2


def test_cli_validates_what_every_command_loads(capsys, tmp_path):
    # a master move that invokes slave 2 of 1
    bad = tmp_path / "bad.nwa"
    bad.write_text(
        "nwa\nalphabet r\nmaster\n  states m0\n  initial m0\n  accepting m0\n  trans m0 r m0 invoke 2\n"
        "slave 1 valuefn sum\n  states t0 t1\n  initial t0\n  accepting t1\n  trans t0 r t1 weight 1\n"
    )
    out = str(tmp_path / "out")
    for command, *rest in (
        ("star", "--k", "1"),
        ("width", "--k", "1"),
        ("width", "--max", "2"),
        ("eval", "--word", "| r"),
        ("reduce", "--k", "1", "-o", out),
        ("translate", "--to", "mca", "--k", "1", "-o", out),
        ("empty", "--k", "1", "--le", "0"),
        ("infimum", "--k", "1"),
        ("universal", "--k", "1", "--le", "0"),
    ):
        code = main([command, str(bad), *rest])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out, (command, rest)
        assert "bad-slave-index" in captured.err, (command, rest)
    assert not Path(out).exists()
    code, report = run_cli(capsys, "check", str(bad))
    assert code == 1 and report["witness"]["diagnostics"]


def test_cli_validates_infimum_and_empty_once(capsys, monkeypatch):
    import nwaq.core

    original, calls = nwaq.core.validate_nwa, []

    def counting(nwa):
        calls.append(nwa)
        return original(nwa)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nwaq" and getattr(module, "validate_nwa", None) is original:
            monkeypatch.setattr(module, "validate_nwa", counting)
    for command, *rest in (("infimum",), ("empty", "--le", "0"), ("empty", "--lt", "-1"), ("universal", "--le", "0")):
        calls.clear()
        code, _ = run_cli(capsys, command, str(DATA / "cond_a1.nwa"), "--k", "2", *rest)
        assert code in (0, 1) and len(calls) == 1, (command, rest, len(calls))


def test_cli_rejects_bounds_below_one(capsys, tmp_path):
    nwa, out = str(DATA / "art1.nwa"), str(tmp_path / "out")
    for args in (
        ("infimum", nwa, "--k", "0"),
        ("empty", nwa, "--k", "0", "--le", "0"),
        ("universal", nwa, "--k", "0", "--le", "0"),
        ("star", nwa, "--k", "0"),
        ("width", nwa, "--k", "0"),
        ("width", nwa, "--max", "0"),
        ("eval", nwa, "--word", "| r", "--cap", "0"),
        ("reduce", nwa, "--k", "-1", "-o", out),
        ("translate", nwa, "--to", "mca", "--k", "0", "-o", out),
    ):
        assert main(list(args)) == 2, args
        assert "must be at least 1" in capsys.readouterr().err, args
    assert not Path(out).exists()


def test_cli_deterministic_output(capsys):
    first = None
    for _ in range(3):
        code, out = run_cli(capsys, "infimum", str(DATA / "cond_a1.nwa"), "--k", "2")
        blob = json.dumps(out, sort_keys=True)
        if first is None:
            first = blob
        assert blob == first
