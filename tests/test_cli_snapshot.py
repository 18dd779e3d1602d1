"""The CLI's answers on the corpus, compared byte for byte with a recording.

For each corpus `.nwa` at k = 1, 2 and 3 the module runs `infimum`, `empty`
at four thresholds with `--certificate`, `universal --le 2`, `star`,
`width --k`, `reduce -o` and `translate --to mca -o`, then `eval` of every
certificate word those commands printed (each lasso witness and each pumped
word). The exit code, stdout and stderr of every command must equal the
ones in `tests/data/cli_snapshot.json`, and so must the contents of every
certificate file and the sha256 and line count of every `-o` output (None
when no file was written), so a refactor of the engine that changes an
answer, a certificate byte or an output byte fails here. The temporary
directory in stdout is replaced by a fixed placeholder.

Running the module as a script rewrites the recording from the current
code: `PYTHONPATH=src python tests/test_cli_snapshot.py`.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from nwaq.cli import main

DATA = Path(__file__).resolve().parent.parent / "src" / "nwaq" / "corpus_data"
SNAPSHOT = Path(__file__).resolve().parent / "data" / "cli_snapshot.json"
QUERIES = (
    ("infimum",),
    ("empty", "--le", "0", "--certificate"),
    ("empty", "--lt", "0", "--certificate"),
    ("empty", "--le", "3/2", "--certificate"),
    ("empty", "--lt", "-1", "--certificate"),
    ("universal", "--le", "2"),
    ("star",),
    ("width",),
    ("reduce", "-o"),
    ("translate", "--to", "mca", "-o"),
)
TMP = "<tmp>"


def _run(args: list[str]) -> list:
    """[args, exit code, stdout, stderr] of one command on a corpus file
    named by its file name in args[1]. When args ends in `--certificate` or
    `-o`, the command writes to a temporary file, and the file's contents,
    or for `-o` its [sha256, line count], follow stderr (None when it wrote
    none)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        written = Path(tmp) / "out"
        extra = [str(written)] if args[-1] in ("--certificate", "-o") else []
        with redirect_stdout(out), redirect_stderr(err):
            code = main([args[0], str(DATA / args[1]), *args[2:], *extra])
        rec = [args, code, out.getvalue().replace(tmp, TMP), err.getvalue()]
        if extra:
            text = written.read_text(encoding="utf-8") if written.exists() else None
            if text is not None and args[-1] == "-o":
                text = [hashlib.sha256(text.encode()).hexdigest(), text.count("\n")]
            rec.append(text)
    return rec


def _words(stdout: str) -> list[str]:
    """The certificate words in one command's JSON envelope."""
    witness = json.loads(stdout)["witness"] if stdout else None
    if isinstance(witness, str) and "|" in witness:
        return [witness]
    if isinstance(witness, dict) and "pumped" in witness:
        return [witness["pumped"]]
    return []


def record() -> list[list]:
    records = []
    for path in sorted(DATA.glob("*.nwa")):
        for k in ("1", "2", "3"):
            words: list[str] = []
            for command, *rest in QUERIES:
                rec = _run([command, path.name, "--k", k, *rest])
                records.append(rec)
                words += [w for w in _words(rec[2]) if w not in words]
            records += [_run(["eval", path.name, "--word", w]) for w in words]
    return records


def test_cli_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    actual = record()
    assert [r[0] for r in actual] == [r[0] for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, want[0]


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(r) for r in record())
    SNAPSHOT.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    sys.stdout.write(f"wrote {SNAPSHOT}\n")
