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


def _tokenize(text: str):
    """(line number, tokens, indent) for each nonempty line in turn, comments stripped."""
    for n, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split(";", 1)[0].split()
        if tokens:
            yield n, tokens, len(raw) - len(raw.lstrip())


def header(text: str) -> str | None:
    """The first token of `text`, which names its format, or None when it
    has none; lines after it are not tokenized."""
    return next((tokens[0] for _, tokens, _ in _tokenize(text)), None)


def _alphabet(n: int, col: int, toks: list[str]) -> Alphabet:
    """The alphabet on an `alphabet` line."""
    if len(toks) < 2:
        raise ParseError(n, col, "alphabet needs letters")
    if len(set(toks[1:])) < len(toks) - 1:
        raise ParseError(n, col, "alphabet letters must be distinct")
    return Alphabet(tuple(toks[1:]))


def _once(first: bool, n: int, col: int, what: str) -> None:
    """Raise at line n unless it is the first `what` of the text."""
    if not first:
        raise ParseError(n, col, f"repeated {what}")


class _Section:
    """The states, initial, accepting and trans lines of one automaton, as
    (line number, tokens) under their keyword."""

    def __init__(self):
        self.lines: dict[str, list[tuple[int, list[str]]]] = {"states": [], "initial": [], "accepting": [], "trans": []}

    def read(self, n: int, toks: list[str]) -> None:
        self.lines[toks[0]].append((n, toks))

    def fields(self, transition, key=None) -> dict:
        """The automaton's states, numbered in order, its initial and
        accepting ids, and `transition(n, toks, state)` of each trans line,
        sorted by `key`; `state(n, name)` gives a state's id."""
        idx: dict[str, int] = {}
        for n, toks in self.lines["states"]:
            for s in toks[1:]:
                if s in idx:
                    raise ParseError(n, 0, f"duplicate state {s}")
                idx[s] = len(idx)

        def state(n, name):
            if name not in idx:
                raise ParseError(n, 0, f"unknown state {name}")
            return idx[name]

        transitions = [transition(n, toks, state) for n, toks in self.lines["trans"]]
        return {
            "n_states": len(idx),
            "state_names": tuple(idx),
            "initials": frozenset(state(n, s) for n, toks in self.lines["initial"] for s in toks[1:]),
            "transitions": tuple(sorted(transitions, key=key)),
            "accepting": frozenset(state(n, s) for n, toks in self.lines["accepting"] for s in toks[1:]),
        }


def _build_labeled(alphabet: Alphabet, sec: _Section, kind: str) -> LabeledAutomaton:
    def transition(n, toks, state):
        # trans q a q' invoke I   |   trans q a q' weight W
        if len(toks) != 6 or toks[4] not in ("invoke", "weight"):
            raise ParseError(n, 0, "expected: trans SRC LETTER DST invoke|weight N")
        want = "invoke" if kind == "master" else "weight"
        if toks[4] != want:
            raise ParseError(n, 0, f"expected '{want}' in a {kind} transition")
        if toks[2] not in alphabet.index:
            raise ParseError(n, 0, f"unknown letter {toks[2]}")
        try:
            label = int(toks[5])
        except ValueError:
            raise ParseError(n, 0, f"bad integer {toks[5]}") from None
        return state(n, toks[1]), alphabet.id_of(toks[2]), state(n, toks[3]), label

    return LabeledAutomaton(alphabet=alphabet, **sec.fields(transition))


def parse_nwa(text: str) -> Nwa:
    lines = list(_tokenize(text))
    if not lines or lines[0][1] != ["nwa"]:
        raise ParseError(lines[0][0] if lines else 1, 0, "expected header 'nwa'")
    alphabet = None
    sections: dict[str | int, tuple[ValueFn | None, _Section]] = {}  # "master" or a slave number
    current: _Section | None = None
    for n, toks, col in lines[1:]:
        head = toks[0]
        if head == "alphabet":
            _once(alphabet is None, n, col, "alphabet line")
            alphabet = _alphabet(n, col, toks)
        elif head == "master":
            _once("master" not in sections, n, col, "master section")
            current = _Section()
            sections["master"] = None, current
        elif head == "slave":
            if len(toks) != 4 or toks[2] != "valuefn" or toks[3] not in ("sum", "sum+"):
                raise ParseError(n, col, "expected: slave N valuefn sum|sum+")
            try:
                number = int(toks[1])
            except ValueError:
                raise ParseError(n, col, f"bad slave index {toks[1]}") from None
            _once(number not in sections, n, col, f"slave {number} section")
            current = _Section()
            sections[number] = ValueFn.SUM if toks[3] == "sum" else ValueFn.SUM_PLUS, current
        elif head in ("states", "initial", "accepting", "trans"):
            if current is None:
                raise ParseError(n, col, f"'{head}' outside a section")
            current.read(n, toks)
        else:
            raise ParseError(n, col, f"unknown directive {head}")
    if alphabet is None:
        raise ParseError(1, 0, "missing alphabet")
    master = None
    slaves: dict[int, WeightedAutomaton] = {}
    for name, (fn, sec) in sections.items():
        if name == "master":
            master = _build_labeled(alphabet, sec, "master")
        else:
            slaves[name] = WeightedAutomaton(_build_labeled(alphabet, sec, "slave"), fn)
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
    lines = list(_tokenize(text))
    if not lines or lines[0][1] != ["mca"]:
        raise ParseError(lines[0][0] if lines else 1, 0, "expected header 'mca'")
    alphabet = None
    counters = None
    sec = _Section()
    for n, toks, col in lines[1:]:
        head = toks[0]
        if head == "alphabet":
            _once(alphabet is None, n, col, "alphabet line")
            alphabet = _alphabet(n, col, toks)
        elif head == "counters":
            _once(counters is None, n, col, "counters line")
            if len(toks) != 2 or not toks[1].isdigit():
                raise ParseError(n, col, "expected: counters N")
            counters = int(toks[1])
        elif head in ("states", "initial", "accepting", "trans"):
            sec.read(n, toks)
        else:
            raise ParseError(n, col, f"unknown directive {head}")
    if alphabet is None or counters is None:
        raise ParseError(1, 0, "missing alphabet or counters")

    def transition(n, toks, state):
        # trans q a q' [s, 2, t, .]
        text_line = " ".join(toks)
        if "[" not in text_line or not text_line.endswith("]"):
            raise ParseError(n, 0, "expected: trans SRC LETTER DST [instr, ...]")
        head_part, vec_part = text_line.split("[", 1)
        head_toks = head_part.split()
        if len(head_toks) != 4:
            raise ParseError(n, 0, "expected: trans SRC LETTER DST [instr, ...]")
        if head_toks[2] not in alphabet.index:
            raise ParseError(n, 0, f"unknown letter {head_toks[2]}")
        body = vec_part[:-1].strip()
        items = [x.strip() for x in body.split(",")] if body else []
        if len(items) != counters:
            raise ParseError(n, 0, f"instruction vector needs {counters} entries")
        vec = []
        for item in items:
            if item == "s":
                vec.append(Instr.start())
            elif item == "t":
                vec.append(Instr.terminate())
            elif item == ".":
                vec.append(Instr.skip())
            else:
                try:
                    vec.append(Instr.add(int(item)))
                except ValueError:
                    raise ParseError(n, 0, f"bad instruction {item!r}") from None
        return state(n, head_toks[1]), alphabet.id_of(head_toks[2]), state(n, head_toks[3]), tuple(vec)

    return Mca(alphabet=alphabet, n_counters=counters, **sec.fields(transition, key=transition_order))


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
