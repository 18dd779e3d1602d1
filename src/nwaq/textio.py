"""Line-oriented textual formats for nested and monitor-counter automata.

Letters and states are identifiers; a semicolon starts a comment. Rendering
is canonical: parse(render(x)) reproduces x and render(parse(text)) is a
fixpoint on canonical text.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    Alphabet,
    LabeledAutomaton,
    LassoWord,
    Nwa,
    NwaError,
    Threshold,
    ValueFn,
    WeightedAutomaton,
)
from .mca import Instr, Mca, transition_order


class ParseError(NwaError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_KEYWORDS = ("trans", "states", "initial", "accepting")  # the lines of a section


def _tokens(line: str) -> list[str]:
    """The tokens of a line, its comment cut."""
    return (line[: line.index(";")] if ";" in line else line).split()


def header(text: str) -> str | None:
    """The first token of `text`, which names its format, or None when it
    has none; lines after it are not tokenized."""
    return next((tokens[0] for line in text.splitlines() if (tokens := _tokens(line))), None)


def _indent(line: str) -> int:
    """The column of a line's first token, where a directive's error points."""
    return len(line) - len(line.lstrip())


def _once(first: bool, n: int, line: str, what: str) -> None:
    """Raise at line n unless it is the first `what` of the text."""
    if not first:
        raise ParseError(n, _indent(line), f"repeated {what}")


def _read(text: str, kind: str) -> tuple[Alphabet | None, int | None, dict]:
    """The alphabet, the counter count and the sections of a text with the
    header `kind`, "nwa" or "mca", read in one loop over its lines.

    A section maps `states`, `initial`, `accepting` and `trans` to their
    lines as (line number, tokens). Sections are keyed by "master" or a slave
    number, each with its slave's value function (None for the master), and
    open at a `master` or `slave N valuefn sum|sum+` line; an MCA has one,
    keyed "mca" and open from the start.
    """
    lines = enumerate(text.splitlines(), start=1)
    n, tokens = next(((n, tokens) for n, line in lines if (tokens := _tokens(line))), (1, None))
    if tokens != [kind]:
        raise ParseError(n, 0, f"expected header '{kind}'")
    alphabet = counters = current = None
    sections: dict[str | int, tuple[ValueFn | None, dict]] = {}
    if kind == "mca":
        sections["mca"] = None, (current := {keyword: [] for keyword in _KEYWORDS})
    for n, line in lines:
        tokens = (line[: line.index(";")] if ";" in line else line).split()  # `_tokens` inlined: one call fewer per line
        if not tokens:
            continue
        head = tokens[0]
        if head in _KEYWORDS:
            if current is None:
                raise ParseError(n, _indent(line), f"'{head}' outside a section")
            current[head].append((n, tokens))
        elif head == "alphabet":
            _once(alphabet is None, n, line, "alphabet line")
            if len(tokens) < 2:
                raise ParseError(n, _indent(line), "alphabet needs letters")
            if len(set(tokens[1:])) < len(tokens) - 1:
                raise ParseError(n, _indent(line), "alphabet letters must be distinct")
            alphabet = Alphabet(tuple(tokens[1:]))
        elif kind == "nwa" and head == "master":
            _once("master" not in sections, n, line, "master section")
            sections["master"] = None, (current := {keyword: [] for keyword in _KEYWORDS})
        elif kind == "nwa" and head == "slave":
            if len(tokens) != 4 or tokens[2] != "valuefn" or tokens[3] not in ("sum", "sum+"):
                raise ParseError(n, _indent(line), "expected: slave N valuefn sum|sum+")
            try:
                number = int(tokens[1])
            except ValueError:
                raise ParseError(n, _indent(line), f"bad slave index {tokens[1]}") from None
            _once(number not in sections, n, line, f"slave {number} section")
            sections[number] = ValueFn(tokens[3]), (current := {keyword: [] for keyword in _KEYWORDS})
        elif kind == "mca" and head == "counters":
            _once(counters is None, n, line, "counters line")
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise ParseError(n, _indent(line), "expected: counters N")
            counters = int(tokens[1])
        else:
            raise ParseError(n, _indent(line), f"unknown directive {head}")
    return alphabet, counters, sections


def _ids(lines: list[tuple[int, list[str]]], idx: dict[str, int]) -> frozenset[int]:
    """The ids of the states named on `lines`."""
    for n, tokens in lines:
        if unknown := [s for s in tokens[1:] if s not in idx]:
            raise ParseError(n, 0, f"unknown state {unknown[0]}")
    return frozenset(idx[s] for _, tokens in lines for s in tokens[1:])


def _fields(section: dict, transitions, key=None) -> dict:
    """The automaton's states, numbered in order, its initial and accepting
    ids, and `transitions(trans lines, state ids)`, sorted by `key`."""
    idx: dict[str, int] = {}
    for n, tokens in section["states"]:
        for s in tokens[1:]:
            if s in idx:
                raise ParseError(n, 0, f"duplicate state {s}")
            idx[s] = len(idx)
    return {  # in the order their errors are reported
        "n_states": len(idx),
        "state_names": tuple(idx),
        "transitions": tuple(sorted(transitions(section["trans"], idx), key=key)),
        "initials": _ids(section["initial"], idx),
        "accepting": _ids(section["accepting"], idx),
    }


def _labeled_transitions(lines, idx: dict[str, int], letters: dict[str, int], kind: str) -> list[tuple]:
    """Each `trans q a q' invoke|weight N` line as (source id, letter id,
    target id, N), `invoke` in a master and `weight` in a slave."""
    want = "invoke" if kind == "master" else "weight"
    out = []
    for n, tokens in lines:
        if len(tokens) != 6 or tokens[4] != want:
            if len(tokens) != 6 or tokens[4] not in ("invoke", "weight"):
                raise ParseError(n, 0, "expected: trans SRC LETTER DST invoke|weight N")
            raise ParseError(n, 0, f"expected '{want}' in a {kind} transition")
        _, q, a, q2, _, label = tokens
        if a not in letters:
            raise ParseError(n, 0, f"unknown letter {a}")
        try:
            label = int(label)
        except ValueError:
            raise ParseError(n, 0, f"bad integer {label}") from None
        if q not in idx or q2 not in idx:
            raise ParseError(n, 0, f"unknown state {q2 if q in idx else q}")
        out.append((idx[q], letters[a], idx[q2], label))
    return out


def parse_nwa(text: str) -> Nwa:
    alphabet, _, sections = _read(text, "nwa")
    if alphabet is None:
        raise ParseError(1, 0, "missing alphabet")
    master = None
    slaves: dict[int, WeightedAutomaton] = {}
    for name, (fn, section) in sections.items():
        kind = "master" if fn is None else "slave"
        fields = _fields(section, lambda lines, idx: _labeled_transitions(lines, idx, alphabet.index, kind))
        if fn is None:
            master = LabeledAutomaton(alphabet=alphabet, **fields)
        else:
            slaves[name] = WeightedAutomaton(LabeledAutomaton(alphabet=alphabet, **fields), fn)
    if master is None:
        raise ParseError(1, 0, "missing master section")
    if sorted(slaves) != list(range(1, len(slaves) + 1)):
        raise ParseError(1, 0, "slave indexes must be 1..l")
    return Nwa(master, tuple(slaves[i] for i in range(1, len(slaves) + 1)))


def render_nwa(nwa: Nwa) -> str:
    out = ["nwa", "alphabet " + " ".join(nwa.alphabet.letters), "master"]
    out.extend(_render_section(nwa.master, "invoke"))
    for i, sl in enumerate(nwa.slaves, start=1):
        fn = "sum+" if sl.value_fn is ValueFn.SUM_PLUS else "sum"
        out.append(f"slave {i} valuefn {fn}")
        out.extend(_render_section(sl.base, "weight"))
    return "\n".join(out) + "\n"


def _render_section(aut: LabeledAutomaton, keyword: str) -> list[str]:
    names = aut.state_names
    out = ["  states " + " ".join(names)]
    out.append("  initial " + " ".join(names[q] for q in sorted(aut.initials)))
    if aut.accepting:
        out.append("  accepting " + " ".join(names[q] for q in sorted(aut.accepting)))
    for q, a, q2, lab in sorted(aut.transitions):
        out.append(f"  trans {names[q]} {aut.alphabet.letters[a]} {names[q2]} {keyword} {lab}")
    return out


def parse_mca(text: str) -> Mca:
    alphabet, counters, sections = _read(text, "mca")
    if alphabet is None or counters is None:
        raise ParseError(1, 0, "missing alphabet or counters")
    letters = alphabet.index
    instrs = {"s": Instr.start(), "t": Instr.terminate(), ".": Instr.skip()}

    def transitions(lines, idx):
        # trans q a q' [s, 2, t, .]
        out = []
        for n, tokens in lines:
            text_line = " ".join(tokens)
            head_part, _, vec_part = text_line.partition("[")
            head_tokens = head_part.split()
            if not vec_part or not text_line.endswith("]") or len(head_tokens) != 4:
                raise ParseError(n, 0, "expected: trans SRC LETTER DST [instr, ...]")
            _, q, a, q2 = head_tokens
            if a not in letters:
                raise ParseError(n, 0, f"unknown letter {a}")
            body = vec_part[:-1].strip()
            items = [x.strip() for x in body.split(",")] if body else []
            if len(items) != counters:
                raise ParseError(n, 0, f"instruction vector needs {counters} entries")
            vec = []
            for item in items:
                try:
                    vec.append(instrs[item] if item in instrs else Instr.add(int(item)))
                except ValueError:
                    raise ParseError(n, 0, f"bad instruction {item!r}") from None
            if q not in idx or q2 not in idx:
                raise ParseError(n, 0, f"unknown state {q2 if q in idx else q}")
            out.append((idx[q], letters[a], idx[q2], tuple(vec)))
        return out

    (_, section), = sections.values()
    return Mca(alphabet=alphabet, n_counters=counters, **_fields(section, transitions, key=transition_order))


def render_mca(mca: Mca) -> str:
    names = mca.state_names
    out = [
        "mca",
        "alphabet " + " ".join(mca.alphabet.letters),
        f"counters {mca.n_counters}",
        "states " + " ".join(names),
        "initial " + " ".join(names[q] for q in sorted(mca.initials)),
    ]
    if mca.accepting:
        out.append("accepting " + " ".join(names[q] for q in sorted(mca.accepting)))
    for q, a, q2, vec in sorted(mca.transitions, key=transition_order):
        body = ", ".join(str(ins) for ins in vec)
        out.append(f"trans {names[q]} {mca.alphabet.letters[a]} {names[q2]} [{body}]")
    return "\n".join(out) + "\n"


def parse_word(text: str) -> LassoWord:
    """Lasso syntax: 'r g | r r g' is prefix | period; empty prefix: '| r g'."""
    if "|" not in text:
        raise NwaError("lasso word needs a '|' between prefix and period")
    left, right = text.split("|", 1)
    prefix = tuple(left.split())
    period = tuple(right.split())
    if not period:
        raise NwaError("lasso period must be nonempty")
    return LassoWord(prefix, period)


def render_word(w: LassoWord) -> str:
    return f"{' '.join(w.prefix)} | {' '.join(w.period)}".strip()


def parse_threshold(text: str, strict: bool) -> Threshold:
    """'p/q' or integer text, e.g. '-3' == '-3/1'."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise NwaError(f"bad threshold {text!r}") from None
    return Threshold(value, strict)
