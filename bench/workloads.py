"""The four workloads: instances, their queries, and the checks on every answer.

A workload is a list of `Instance`s built from a seed. Each instance is one
`.nwa` file with its decision queries and seeded lasso words; the runner sends
every query through `nwaq.cli.main` and, in the same closed loop, replays each
certificate with `eval`. `Checker.check` then judges one instance's outcomes.

A failure carries a defect class. Three classes name open soundness defects
of the pipeline, which only the unconstrained random family reaches:

- A: an oracle-evaluated lasso lies below what the pipeline claims is the
  least value (the width-1 reduction misses words on which slaves overlap
  forever);
- B: a lasso certificate does not replay to its claimed value or within its
  threshold (the certificate cycle need not pass through acceptance);
- C: a minus-infinity certificate's pumped word is rejected or does not dip
  as claimed (the closing path need not release the pumped slaves).

Every other failure, and any failure on a family with a documented answer,
has class None and makes the run incorrect. Failures of every class count.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import inputs

INF = float("inf")
WORKLOADS = ("ladder", "nondet", "descent", "fuzz")


@dataclass
class Instance:
    """One automaton of a workload, with its queries and what is known of its answers."""

    name: str
    text: str
    k: int
    decisions: list[list[str]]  # arguments after the file, e.g. ["empty", "--le", "1"]
    words: list[str] = field(default_factory=list)  # seeded lassos to evaluate
    replay_text: Optional[str] = None  # deterministic equivalent for replays, when `text` is not
    infimum: Optional[object] = None  # documented infimum (Fraction or -INF), None if unknown
    universal: Optional[bool] = None  # documented universality verdict
    random_draw: bool = False  # failures may be the open defects A, B and C


def _threshold_args(rng: random.Random, values: list[Fraction]) -> list[str]:
    t = rng.choice(values)
    return [rng.choice(["--le", "--lt"]), str(t)]


def _words(nwa: inputs.Nwa, rng: random.Random, n: int) -> list[str]:
    return [inputs.random_lasso(nwa, rng) for _ in range(n)]


def ladder(rng: random.Random, quick: bool) -> list[Instance]:
    """art_types(2..4) and k_art(2..6) at their own width; the infimum is 1.

    art_types(4) answers `infimum` only: each `empty` repeats its whole
    pipeline, about 4 s, and three of them would leave room for one pass per
    run, too few for a steady best-of-passes latency.
    """
    family = [(f"art_types_{k}", inputs.art_types(k), k) for k in ((2, 3) if quick else (2, 3, 4))]
    family += [(f"k_art_{k}", inputs.k_art(k), k) for k in ((2, 3) if quick else range(2, 7))]
    queries = [["infimum"], ["empty", "--le", "1"], ["empty", "--lt", "1"]]
    return [
        Instance(name, nwa.render(), k, queries[:1] if name == "art_types_4" else queries, _words(nwa, rng, 6), infimum=Fraction(1))
        for name, nwa, k in family
    ]


def nondet(rng: random.Random, quick: bool) -> list[Instance]:
    """Twin-step variants of k_art(3), k_art(4) and art_types(2); the infimum stays 1.

    Every slave step has a twin: a seeded choice of which steps get one made
    a variant's cost swing by 20-40 %, so the seed picks each automaton's six
    `empty` thresholds around 1 and its lasso words instead. Certificates and
    words replay on the deterministic base automaton.
    """
    bases = [("k_art_3", inputs.k_art(3), 3)]
    if not quick:
        bases += [("k_art_4", inputs.k_art(4), 4), ("art_types_2", inputs.art_types(2), 2)]
    thresholds = [(flag, str(t)) for flag in ("--le", "--lt") for t in (Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(5, 4))]
    out = []
    for name, base, k in bases:
        nwa = inputs.twin_variant(base, sum(len(sl.trans) for sl in base.slaves), rng)
        queries = [["infimum"]] + [["empty", flag, t] for flag, t in rng.sample(thresholds, 6)]
        out.append(Instance(f"{name}_twins", nwa.render(), k, queries, _words(base, rng, 5), replay_text=base.render(), infimum=Fraction(1)))
    return out


def descent(rng: random.Random, quick: bool) -> list[Instance]:
    """Queries the negative-descent test settles.

    `universal` on art_types(4) and k_art(2..6): their mirrors descend, so the
    answer is no. `infimum` and `empty` below zero on eight of the fifteen
    sign-masked art_types(4) variants and on cond_a2, whose infimum is -inf.
    """
    width = 2 if quick else 4
    base = inputs.art_types(width)
    below = [Fraction(-n, d) for n in range(1, 21) for d in (1, 2)]
    out = []
    for name, nwa, k in [(f"art_types_{width}", base, width)] + [(f"k_art_{k}", inputs.k_art(k), k) for k in ((2, 3) if quick else range(2, 7))]:
        out.append(Instance(name, nwa.render(), k, [["universal", "--le", str(rng.randint(1, 20))]], universal=False))
    for mask in rng.sample(range(1, 1 << width), 1 if quick else 8):
        negative = {i + 1 for i in range(width) if mask >> i & 1}
        nwa = inputs.sign_masked(base, negative)
        out.append(
            Instance(
                f"art_types_{width}_neg" + "".join(str(i) for i in sorted(negative)),
                nwa.render(),
                width,
                [["infimum"], ["empty"] + _threshold_args(rng, below)],
                _words(nwa, rng, 3),
                infimum=-INF,
            )
        )
    c2 = inputs.cond_a2()
    out.append(Instance("cond_a2", c2.render(), 2, [["infimum"], ["empty"] + _threshold_args(rng, below)], _words(c2, rng, 3), infimum=-INF))
    return out


def fuzz(rng: random.Random, quick: bool) -> list[Instance]:
    """ROADMAP Open item 1's random family, kept when of width at most 2.

    The draws are stratified: an equal number for each alphabet size (2-3),
    master state count (1-3) and slave count (1-2), so the mix of sizes, and
    with it the cost of a pass, is the same for every seed. Per draw:
    `infimum`, `empty` at a seeded threshold, the certificates' replays and
    one seeded lasso word.
    """
    out = []
    thresholds = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    strata = [(a, m, s) for a in (2, 3) for m in (1, 2, 3) for s in (1, 2)]
    per_stratum = 1 if quick else 13
    for letters, master_states, slaves in strata:
        kept = 0
        while kept < per_stratum:
            nwa = inputs.random_draw(rng, letters, master_states, slaves)
            if not inputs.within_width(nwa, 2):
                continue
            kept += 1
            out.append(
                Instance(
                    f"draw{letters}{master_states}{slaves}_{kept:02d}",
                    nwa.render(),
                    2,
                    [["infimum"], ["empty"] + _threshold_args(rng, thresholds)],
                    _words(nwa, rng, 1),
                    random_draw=True,
                )
            )
    return out


BUILDERS = {"ladder": ladder, "nondet": nondet, "descent": descent, "fuzz": fuzz}


def build(workload: str, seed: int, quick: bool = False) -> list[Instance]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), quick)


# --- outcomes and checks ------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    code: Optional[int]  # exit code, None when cli.main raised
    out: str
    err: str


def value_of(v) -> object:
    """Envelope value as a comparable number: Fraction, -INF or INF."""
    if v is None:
        raise ValueError("no value")
    if v["tag"] == "finite":
        return Fraction(v["p"], v["q"])
    if v["tag"] == "neg-infinity":
        return -INF
    if v["tag"] == "plus-infinity":
        return INF
    raise ValueError(f"value tag {v['tag']!r}")


def envelope(o: Outcome) -> dict:
    """Parsed JSON envelope; raises ValueError when malformed or when the run failed."""
    if o.code is None:
        raise ValueError(f"raised {o.err}")
    if o.code in (2, 3):
        raise ValueError(f"exit {o.code}: {o.err.strip()[:200]}")
    lines = o.out.splitlines()
    if len(lines) != 1:
        raise ValueError(f"{len(lines)} output lines")
    env = json.loads(lines[0])
    if not isinstance(env, dict) or set(env) != {"query", "answer", "value", "witness"}:
        raise ValueError("envelope keys")
    if env["answer"] not in (True, False):
        raise ValueError("answer is not a boolean")
    if env["value"] is not None:
        value_of(env["value"])
    return env


def replay_word(env: dict) -> Optional[str]:
    """The lasso a decision's certificate asks to replay: the witness word or the pumped word."""
    w = env.get("witness")
    if isinstance(w, str):
        return w
    if isinstance(w, dict) and isinstance(w.get("pumped"), str):
        return w["pumped"]
    return None


def _admits(t_args: list[str], v) -> bool:
    t = Fraction(t_args[1])
    return v < t if t_args[0] == "--lt" else v <= t


def replay_label(label: str) -> str:
    return label + " > replay"


class Checker:
    """Judges one instance's outcomes; oracle work is cached per instance."""

    def __init__(self):
        self._nwa: dict[str, object] = {}
        self._bound: dict[str, object] = {}

    def _parsed(self, text: str):
        if text not in self._nwa:
            from nwaq.textio import parse_nwa

            self._nwa[text] = parse_nwa(text)
        return self._nwa[text]

    def lasso_bound(self, inst: Instance):
        """Least oracle value over lassos with prefix <= 2 and period <= 4."""
        if inst.name not in self._bound:
            from nwaq.oracle import enumerate_lasso_infimum

            v, _ = enumerate_lasso_infimum(self._parsed(inst.text), 2, 4, inst.k)
            self._bound[inst.name] = v.value if v.is_finite() else value_of({"tag": v.tag.value})
        return self._bound[inst.name]

    def dip(self, inst: Instance, word: str) -> Fraction:
        """Least partial average over the first 8 returned values of a pumped word."""
        from nwaq.oracle import min_partial_average
        from nwaq.textio import parse_word

        return min_partial_average(self._parsed(inst.text), parse_word(word), inst.k, 8)

    def check(self, inst: Instance, outcomes: dict[str, Outcome]) -> dict[str, tuple[Optional[str], str]]:
        """Failures by query label: (defect class, message)."""
        fails: dict[str, tuple[Optional[str], str]] = {}
        envs: dict[str, dict] = {}
        for label, o in outcomes.items():
            try:
                envs[label] = envelope(o)
            except (ValueError, KeyError, TypeError) as err:
                fails[label] = (None, f"malformed or failed: {err}")
        lower_class, replay_class, pump_class = ("A", "B", "C") if inst.random_draw else (None, None, None)
        claimed = value_of(envs["infimum"]["value"]) if "infimum" in envs else None
        lower = inst.infimum if inst.infimum is not None else claimed

        for args in inst.decisions:
            label = " ".join(args)
            env = envs.get(label)
            if env is None:
                continue
            cmd, answer, code = args[0], env["answer"], outcomes[label].code
            if code != (0 if cmd == "infimum" or answer else 1):
                fails[label] = (None, f"exit {code} with answer {answer}")
                continue
            fail = None
            if cmd == "infimum":
                if inst.infimum is not None and claimed != inst.infimum:
                    fail = (None, f"infimum {claimed}, documented {inst.infimum}")
                elif inst.random_draw and claimed > self.lasso_bound(inst):
                    fail = (lower_class, f"infimum {claimed} above a lasso value {self.lasso_bound(inst)}")
                else:
                    fail = self._certificate(inst, label, env, envs, None, replay_class, pump_class)
            elif cmd == "empty":
                t = args[1:3]
                if inst.infimum is not None and answer != _admits(t, inst.infimum):
                    fail = (None, f"answer {answer}, documented infimum {inst.infimum}")
                elif answer:
                    fail = self._certificate(inst, label, env, envs, t, replay_class, pump_class)
                elif inst.random_draw and _admits(t, self.lasso_bound(inst)):
                    fail = (lower_class, f"no, but a lasso has value {self.lasso_bound(inst)}")
                elif claimed is not None and claimed < Fraction(t[1]):
                    fail = (None, f"no, but the infimum query claims {claimed}")
            elif cmd == "universal" and inst.universal is not None and answer != inst.universal:
                fail = (None, f"answer {answer}, documented {inst.universal}")
            if fail:
                fails[label] = fail

        for i in range(len(inst.words)):
            label = f"word{i}"
            env = envs.get(label)
            if env is None:
                continue
            value = value_of(env["value"]) if env["value"] is not None else None
            if outcomes[label].code != 0 or value is None:
                fails[label] = (None, f"exit {outcomes[label].code}, value {value}")
            elif value == -INF:
                fails[label] = (None, "a lasso evaluated to -inf")
            elif lower is not None and value < lower:
                fails[label] = (lower_class, f"lasso value {value} below the infimum {lower}")
        return fails

    def _certificate(self, inst, label, env, envs, t_args, replay_class, pump_class):
        """A finite or -inf verdict's evidence: the replayed lasso, or the pumped word's dip."""
        claimed = value_of(env["value"])
        if claimed == INF:
            return None
        word = replay_word(env)
        if word is None:
            return (None, f"verdict {claimed} without a replayable certificate: {env['witness']!r}")
        replay = envs.get(replay_label(label))
        if replay is None:
            return (None, "certificate replay failed")
        replayed = value_of(replay["value"])
        if claimed == -INF:
            if replayed == INF:
                return (pump_class, "pumped witness is not accepted")
            try:
                dip = self.dip(inst, word)
            except Exception as err:  # the oracle rejects the word: that is the finding
                return (pump_class, f"pumped witness has no dip: {err}")
            if t_args is not None and not _admits(t_args, dip):
                return (pump_class, f"pumped witness dips to {dip}, not {t_args[0]} {t_args[1]}")
            if t_args is None and dip >= 0:
                return (pump_class, f"pumped witness dips only to {dip}")
            return None
        if t_args is not None and not _admits(t_args, replayed):
            return (replay_class, f"certificate replays to {replayed}, not {t_args[0]} {t_args[1]}")
        if t_args is None and replayed != claimed:
            return (replay_class, f"certificate replays to {replayed}, claimed {claimed}")
        return None
