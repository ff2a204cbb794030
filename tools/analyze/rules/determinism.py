"""Determinism rules over the simulation directories.

The simulator's contract (DESIGN.md, tests/integration golden tests)
is bit-exact reproducibility: the same config and seed must produce
the same counters on every machine, at every parallelism. These rules
fail CI on source patterns that historically break that contract.
Token-based successors of the old line-regex lint: comments and
strings never trip them, and the uninit-counter rule knows it is
looking at a class body rather than guessing from indentation.
"""

from .. import scopes as scp
from .. import tokenizer as tok
from ..engine import Finding
from ..project import SIM_DIRS
from . import Rule

_WALL_IDENTS = frozenset((
    "system_clock", "gettimeofday", "localtime", "gmtime",
))
_UNORDERED = frozenset((
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
))
_ORDERED = frozenset(("map", "set", "multimap", "multiset"))
# Arithmetic member types the uninit-counter rule guards; Slot and
# Addr are the project's own counter-bearing aliases.
_ARITH_TYPES = frozenset((
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "unsigned", "int", "size_t", "double", "float", "bool",
    "Slot", "Addr",
))


def _next(ctoks, i):
    return ctoks[i + 1] if i + 1 < len(ctoks) else None


class WallClock(Rule):
    rule_id = "wall-clock"
    description = ("Reads wall-clock time inside the simulation core; "
                   "steady_clock is allowed (harness-side elapsed-time "
                   "reporting only).")

    def run(self, project):
        findings = []
        for source in project.files(dirs=SIM_DIRS):
            ctoks = source.ctoks
            for i, t in enumerate(ctoks):
                if t.kind != tok.IDENT:
                    continue
                hit = t.text in _WALL_IDENTS
                if not hit and t.text in ("time", "clock"):
                    # time() / time(NULL) / time(nullptr) / time(0),
                    # clock() — but not my_time(x) or obj.time(arg).
                    n1 = _next(ctoks, i)
                    if n1 is not None and n1.kind == tok.PUNCT \
                            and n1.text == "(":
                        n2 = _next(ctoks, i + 1)
                        if n2 is not None:
                            if n2.kind == tok.PUNCT and n2.text == ")":
                                hit = True
                            elif t.text == "time" \
                                    and n2.text in ("NULL", "nullptr",
                                                    "0"):
                                n3 = _next(ctoks, i + 2)
                                hit = n3 is not None \
                                    and n3.text == ")"
                if hit:
                    findings.append(Finding(
                        self.rule_id, source.rel_path, t.line,
                        "reads wall-clock time inside the simulation "
                        "core"))
        return findings


class LibcRandom(Rule):
    rule_id = "libc-random"
    description = ("Unseeded/libc randomness in the simulation core; "
                   "all simulated randomness must flow through "
                   "util/random.hh's seeded generator.")

    def run(self, project):
        findings = []
        for source in project.files(dirs=SIM_DIRS):
            ctoks = source.ctoks
            for i, t in enumerate(ctoks):
                if t.kind != tok.IDENT:
                    continue
                hit = t.text == "random_device"
                if not hit and t.text in ("rand", "srand"):
                    n1 = _next(ctoks, i)
                    hit = n1 is not None and n1.kind == tok.PUNCT \
                        and n1.text == "("
                if hit:
                    findings.append(Finding(
                        self.rule_id, source.rel_path, t.line,
                        "uses unseeded/libc randomness (route through "
                        "util/random.hh)"))
        return findings


class Unordered(Rule):
    rule_id = "unordered"
    description = ("Hash-ordered container in the simulation core; "
                   "iteration order is libstdc++-version-dependent "
                   "and feeds results.")

    def run(self, project):
        findings = []
        for source in project.files(dirs=SIM_DIRS):
            for t in source.ctoks:
                if t.kind == tok.IDENT and t.text in _UNORDERED:
                    findings.append(Finding(
                        self.rule_id, source.rel_path, t.line,
                        "hash-ordered container in the core "
                        "(iteration order feeds results)"))
        return findings


class PointerOrder(Rule):
    rule_id = "pointer-order"
    description = ("Ordered container keyed by pointer value; "
                   "iteration order then depends on the allocator, "
                   "not on simulated state.")

    def run(self, project):
        findings = []
        for source in project.files(dirs=SIM_DIRS):
            ctoks = source.ctoks
            for i, t in enumerate(ctoks):
                if t.kind != tok.IDENT or t.text not in _ORDERED:
                    continue
                n1 = _next(ctoks, i)
                if n1 is None or n1.kind != tok.PUNCT \
                        or n1.text != "<":
                    continue
                # Scan the first template argument: a '*' before the
                # first top-level ',' or the matching '>' makes the
                # key a raw pointer.
                depth = 0
                for j in range(i + 1, min(i + 40, len(ctoks))):
                    text = ctoks[j].text
                    if ctoks[j].kind != tok.PUNCT:
                        continue
                    if text == "<":
                        depth += 1
                    elif text == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    elif text == "," and depth == 1:
                        break
                    elif text == "*" and depth == 1:
                        findings.append(Finding(
                            self.rule_id, source.rel_path, t.line,
                            f"std::{t.text} keyed by pointer value "
                            f"(key by a stable id instead)"))
                        break
                    elif text in (";", "{", "}"):
                        break
        return findings


class UninitCounter(Rule):
    rule_id = "uninit-counter"
    description = ("Arithmetic class member without an initializer; "
                   "stack-constructed stat structs then start life as "
                   "garbage, which is exactly how counter "
                   "nondeterminism enters.")

    def run(self, project):
        findings = []
        for source in project.files(dirs=SIM_DIRS,
                                    suffixes=(".hh", ".h")):
            ctoks = source.ctoks
            for i, t in enumerate(ctoks):
                if t.kind != tok.IDENT or t.text not in _ARITH_TYPES:
                    continue
                n1 = _next(ctoks, i)
                n2 = _next(ctoks, i + 1)
                if n1 is None or n2 is None or n1.kind != tok.IDENT \
                        or n2.kind != tok.PUNCT or n2.text != ";":
                    continue
                # Declaration start only: the previous token must end
                # a member or open the class body — this skips
                # parameters and multi-token types.
                prev = ctoks[i - 1] if i > 0 else None
                if prev is not None and not (
                        prev.kind == tok.PUNCT
                        and prev.text in (";", "{", "}", ":")):
                    continue
                if scp.innermost(source.scopes, i).kind != scp.CLASS:
                    continue
                findings.append(Finding(
                    self.rule_id, source.rel_path, n1.line,
                    f"arithmetic member `{n1.text}` without an "
                    f"initializer"))
        return findings


RULES = (WallClock(), LibcRandom(), Unordered(), PointerOrder(),
         UninitCounter())
