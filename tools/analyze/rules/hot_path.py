"""Hot-path rules: per-instruction loops in src/core must not
allocate or virtually dispatch.

These guard throughput rather than determinism: a single allocation
or virtual call per simulated instruction is the difference between
minutes and hours at paper-scale budgets. Scope-aware port of the
old line-regex lint's brace counter — the loop body is a real Scope, so
allocations in a lambda that merely *sits next to* a loop no longer
false-positive, and braceless bodies are handled by the scope
builder, not a line heuristic.
"""

from .. import scopes as scp
from .. import tokenizer as tok
from ..engine import Finding
from ..project import HOT_DIRS
from . import Rule

_ALLOC_IDENTS = frozenset(("new", "make_shared", "make_unique",
                           "malloc"))


def _loop_ranges(source):
    """Token ranges [head, close) of every loop in the file. The head
    includes the loop condition, which re-evaluates every iteration."""
    return [(s.head, s.close)
            for s in source.scopes.walk() if s.kind == scp.LOOP]


class LoopAlloc(Rule):
    rule_id = "loop-alloc"
    description = ("Heap allocation inside a hot per-instruction "
                   "loop in src/core; hoist it out of the loop.")

    def run(self, project):
        findings = []
        for source in project.files(dirs=HOT_DIRS,
                                    suffixes=(".cc", ".cpp")):
            ctoks = source.ctoks
            seen = set()
            for lo, hi in _loop_ranges(source):
                for i in range(lo, min(hi, len(ctoks))):
                    t = ctoks[i]
                    if t.kind != tok.IDENT \
                            or t.text not in _ALLOC_IDENTS:
                        continue
                    if t.text == "malloc" and not (
                            i + 1 < len(ctoks)
                            and ctoks[i + 1].text == "("):
                        continue
                    if t.line in seen:
                        continue
                    seen.add(t.line)
                    findings.append(Finding(
                        self.rule_id, source.rel_path, t.line,
                        "heap allocation inside a hot loop"))
        return findings


class LoopVirtual(Rule):
    rule_id = "loop-virtual"
    description = ("Virtual dispatch inside a hot per-instruction "
                   "loop in src/core; hoist it or use the "
                   "statically-bound path (FetchEngine::runWith).")

    def run(self, project):
        virtual_names = project.virtual_names
        if not virtual_names:
            return []
        findings = []
        for source in project.files(dirs=HOT_DIRS,
                                    suffixes=(".cc", ".cpp")):
            ctoks = source.ctoks
            seen = set()
            for lo, hi in _loop_ranges(source):
                for i in range(lo, min(hi, len(ctoks))):
                    t = ctoks[i]
                    if t.kind != tok.IDENT \
                            or t.text not in virtual_names:
                        continue
                    if not (i + 1 < len(ctoks)
                            and ctoks[i + 1].kind == tok.PUNCT
                            and ctoks[i + 1].text == "("):
                        continue
                    # Member access only: `obj.name(` or `ptr->name(`.
                    prev = ctoks[i - 1] if i > 0 else None
                    member = prev is not None \
                        and prev.kind == tok.PUNCT \
                        and (prev.text == "."
                             or (prev.text == ">" and i > 1
                                 and ctoks[i - 2].text == "-"))
                    if not member or t.line in seen:
                        continue
                    seen.add(t.line)
                    findings.append(Finding(
                        self.rule_id, source.rel_path, t.line,
                        f"virtual dispatch of {t.text}() inside a hot "
                        f"loop (hoist it or use the statically-bound "
                        f"path)"))
        return findings


class LoopDivMod(Rule):
    """Division and modulo by a non-constant inside hot loops.

    The batched fetch kernel (FetchEngine::fetchPlainRun and the
    wrong-path walker) earns its throughput by keeping the per-line
    stepping free of div/mod units: line strides are adds, and the
    only divisions left divide by named compile-time constants
    (kInstBytes), which the compiler strength-reduces to shifts. A
    division or modulo whose divisor is a runtime value (a variable,
    member, or call result) defeats that — it costs 20-90 cycles on
    the very path that retires one iteration per cache line.

    Divisors that are numeric literals, sizeof expressions, or named
    constants (kCamelCase / ALL_CAPS) are exempt; anything else inside
    a loop in src/core is flagged. Headers are scanned too: the hot
    kernels live partly in inline members (fetch_engine.hh).
    """

    rule_id = "loop-divmod"
    description = ("Division or modulo by a non-constant inside a hot "
                   "loop in src/core; replace it with a stride add, a "
                   "shift/mask, or hoist it out of the loop.")

    @staticmethod
    def _constant_divisor(ctoks, i):
        """True when the token after operator index @p i names a
        compile-time constant the optimizer folds to shift/mask."""
        if i + 1 >= len(ctoks):
            return True        # malformed tail; not our problem
        nxt = ctoks[i + 1]
        if nxt.kind == tok.NUMBER:
            return True
        if nxt.kind == tok.IDENT:
            if nxt.text == "sizeof":
                return True
            # kInstBytes-style or ALL_CAPS named constants.
            if len(nxt.text) > 1 and nxt.text[0] == "k" \
                    and nxt.text[1].isupper():
                return True
            if nxt.text.isupper():
                return True
        return False

    def run(self, project):
        findings = []
        for source in project.files(dirs=HOT_DIRS,
                                    suffixes=(".cc", ".cpp", ".hh",
                                              ".h")):
            ctoks = source.ctoks
            seen = set()
            for lo, hi in _loop_ranges(source):
                for i in range(lo, min(hi, len(ctoks))):
                    t = ctoks[i]
                    if t.kind != tok.PUNCT or t.text not in ("/", "%"):
                        continue
                    # `/=` and `%=` arrive as two PUNCT tokens; the
                    # divisor then sits after the `=`.
                    op_end = i
                    if i + 1 < len(ctoks) \
                            and ctoks[i + 1].kind == tok.PUNCT \
                            and ctoks[i + 1].text == "=":
                        op_end = i + 1
                    if self._constant_divisor(ctoks, op_end):
                        continue
                    if t.line in seen:
                        continue
                    seen.add(t.line)
                    op = "modulo" if t.text == "%" else "division"
                    findings.append(Finding(
                        self.rule_id, source.rel_path, t.line,
                        f"{op} by a non-constant inside a hot loop "
                        f"(use a stride add or shift/mask, or hoist "
                        f"it)"))
        return findings


RULES = (LoopAlloc(), LoopVirtual(), LoopDivMod())
