"""Command-line interface.

Every command prints one JSON envelope on stdout:
{"query": ..., "answer": ..., "value": {"tag", "p", "q"}, "witness": ...}
Exit codes: 0 = yes/true, 1 = no/false, 2 = usage or validation error,
3 = internal limit (reserved: no decision command sets a limit yet). Every
command but `check` validates what it loads.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .core import (
    Nwa,
    NwaError,
    PreconditionError,
    Threshold,
    ValueResult,
    ValueTag,
    validate_nwa,
    is_deterministic,
)
from .decide import Certificate, Pipeline, universality_deterministic
from .determinize import ConfigGraph, explore
from .mca import Mca, evaluate_lasso_mca, mca_to_nwa, nwa_to_mca, validate_mca
from .oracle import evaluate_lasso
from .reduce import reduce_width1
from .starcond import StarWitness
from .textio import (
    ParseError,
    header,
    parse_mca,
    parse_nwa,
    parse_threshold,
    parse_word,
    render_mca,
    render_nwa,
    render_word,
)
from .width import has_width, minimal_width


class UsageError(NwaError):
    pass


def _read(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {path}: {err}") from None
    head = header(text)
    if head is None:
        raise UsageError(f"{path}: empty file")
    if head == "nwa":
        return parse_nwa(text)
    if head == "mca":
        return parse_mca(text)
    raise UsageError(f"{path}: unknown header {head!r}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err}") from None


def _load(path: str):
    """The automaton in a file; a structural error is a PreconditionError."""
    obj = _read(path)
    problems = validate_nwa(obj) if isinstance(obj, Nwa) else validate_mca(obj)
    if problems:
        raise PreconditionError("; ".join(problems))
    return obj


def _value_json(v: Optional[ValueResult]):
    if v is None:
        return None
    if v.tag is ValueTag.FINITE:
        return {"tag": "finite", "p": v.value.numerator, "q": v.value.denominator}
    return {"tag": v.tag.value, "p": None, "q": None}


def _emit(query: str, answer, value=None, witness=None) -> None:
    envelope = {"query": query, "answer": answer, "value": _value_json(value), "witness": witness}
    sys.stdout.write(json.dumps(envelope) + "\n")


def _witness_json(cert: Certificate, pipe: Pipeline):
    if cert.kind == "lasso" and cert.lasso is not None:
        return render_word(cert.lasso)
    if cert.kind == "star" and cert.star is not None:
        data = {"kind": "star", **_star_json(cert.star, pipe.graph)}
        if cert.pumped is not None:
            data["pumped"] = render_word(cert.pumped)
        return data
    if cert.flags:
        return {"flags": list(cert.flags)}
    return None


def _star_json(star: StarWitness, graph: ConfigGraph) -> dict:
    letters = [graph.nwa.alphabet.letters[graph.letter[n]] for n in star.cycle]
    return {"j": star.j, "j_sum": star.j_sum, "cycle_letters": letters}


def _threshold_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--le", metavar="T", help="non-strict threshold p/q")
    group.add_argument("--lt", metavar="T", help="strict threshold p/q")


def _get_threshold(args) -> Threshold:
    if args.le is not None:
        return parse_threshold(args.le, strict=False)
    return parse_threshold(args.lt, strict=True)


def _positive(text: str) -> int:
    """An integer of at least 1, for --k, --max and --cap."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nwaq", description="nested weighted automata queries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a file and report determinism")
    p.add_argument("file")

    p = sub.add_parser("width", help="check width k or search the minimal width")
    p.add_argument("file")
    p.add_argument("--k", type=_positive)
    p.add_argument("--max", type=_positive)

    p = sub.add_parser("eval", help="evaluate a lasso word")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--cap", type=_positive, default=64, help="width cap for nwa files; an mca's counters bound its width")

    p = sub.add_parser("empty", help="threshold emptiness")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)
    _threshold_args(p)
    p.add_argument("--certificate", metavar="OUT")

    p = sub.add_parser("infimum", help="exact infimum over all words")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)

    p = sub.add_parser("universal", help="deterministic universality")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)
    _threshold_args(p)

    p = sub.add_parser("star", help="negative-descent condition")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)

    p = sub.add_parser("translate", help="translate between nwa and mca")
    p.add_argument("file")
    p.add_argument("--to", choices=("mca", "nwa"), required=True)
    p.add_argument("--k", type=_positive)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("reduce", help="reduce a width-k automaton to width 1")
    p.add_argument("file")
    p.add_argument("--k", type=_positive, required=True)
    p.add_argument("-o", "--output", required=True)
    return parser


def _cmd_check(args) -> int:
    obj = _read(args.file)
    if isinstance(obj, Nwa):
        problems = validate_nwa(obj)
        det, site = is_deterministic(obj) if not problems else (False, None)
        witness = {"diagnostics": problems, "deterministic": det}
        if site:
            witness["site"] = site
    else:
        problems = validate_mca(obj)
        witness = {"diagnostics": problems, "deterministic": obj.determinism if not problems else False}
    _emit("check", not problems, witness=witness)
    return 0 if not problems else 1


def _cmd_width(args) -> int:
    nwa = _require_nwa(_load(args.file))
    if (args.k is None) == (args.max is None):
        raise UsageError("width needs exactly one of --k or --max")
    if args.k is not None:
        ok, witness = has_width(nwa, args.k)
        _emit("width", ok, witness=None if ok else " ".join(witness))
        return 0 if ok else 1
    found = minimal_width(nwa, args.max)
    _emit("width", found is not None, value=None, witness=found)
    return 0 if found is not None else 1


def _cmd_eval(args) -> int:
    obj = _load(args.file)
    word = parse_word(args.word)
    known = set(obj.alphabet.letters)
    for letter in word.prefix + word.period:
        if letter not in known:
            raise UsageError(f"letter {letter!r} is not in the alphabet")
    if isinstance(obj, Mca):
        value = evaluate_lasso_mca(obj, word)
    else:
        value = evaluate_lasso(obj, word, args.cap)
    _emit("eval", value.tag is not ValueTag.PLUS_INFINITY, value=value, witness=render_word(word))
    return 0


def _cmd_empty(args) -> int:
    nwa = _require_nwa(_read(args.file))  # `Pipeline` validates it
    t = _get_threshold(args)
    pipe = Pipeline(nwa, args.k)
    answer, cert = pipe.emptiness(t)
    witness = _witness_json(cert, pipe)  # rendered once: a pumped word can run to millions of letters
    if args.certificate:
        payload = {
            "query": "empty",
            "threshold": {"p": t.value.numerator, "q": t.value.denominator, "strict": t.strict},
            "answer": answer,
            "kind": cert.kind,
            "value": _value_json(cert.value),
            "witness": witness,
            "flags": list(cert.flags),
        }
        _write(args.certificate, json.dumps(payload, indent=2) + "\n")
    _emit("empty", answer, value=cert.value, witness=witness)
    return 0 if answer else 1


def _cmd_infimum(args) -> int:
    nwa = _require_nwa(_read(args.file))  # `Pipeline` validates it
    pipe = Pipeline(nwa, args.k)
    value, cert = pipe.infimum()
    _emit("infimum", value is not None, value=value, witness=_witness_json(cert, pipe))
    return 0


def _cmd_universal(args) -> int:
    nwa = _require_nwa(_read(args.file))  # `Pipeline` validates it
    t = _get_threshold(args)
    answer = universality_deterministic(nwa, args.k, t)
    _emit("universal", answer)
    return 0 if answer else 1


def _cmd_star(args) -> int:
    nwa = _require_nwa(_load(args.file))
    _, graph = explore(nwa, args.k, stop=True)
    witness = graph.descent
    if witness is None:
        _emit("star", False)
        return 1
    _emit("star", True, witness=_star_json(witness, graph))
    return 0


def _cmd_translate(args) -> int:
    obj = _load(args.file)
    if args.to == "nwa":
        if isinstance(obj, Nwa):
            raise UsageError("input is already an nwa")
        out = render_nwa(mca_to_nwa(obj))
    else:
        if isinstance(obj, Mca):
            raise UsageError("input is already an mca")
        if args.k is None:
            raise UsageError("translate --to mca needs --k")
        out = render_mca(nwa_to_mca(obj, args.k))
    _write(args.output, out)
    _emit("translate", True, witness=args.output)
    return 0


def _cmd_reduce(args) -> int:
    nwa = _require_nwa(_load(args.file))
    _write(args.output, render_nwa(reduce_width1(nwa, args.k)))
    _emit("reduce", True, witness=args.output)
    return 0


def _require_nwa(obj) -> Nwa:
    if not isinstance(obj, Nwa):
        raise UsageError("this command needs an nwa file")
    return obj


_COMMANDS = {
    "check": _cmd_check,
    "width": _cmd_width,
    "eval": _cmd_eval,
    "empty": _cmd_empty,
    "infimum": _cmd_infimum,
    "universal": _cmd_universal,
    "star": _cmd_star,
    "translate": _cmd_translate,
    "reduce": _cmd_reduce,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ParseError, PreconditionError, NwaError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
