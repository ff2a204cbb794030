"""Scratch paths: tests take their scratch files from tests/temp_path.hh.

ctest runs every TEST as its own process, many at once under -j (CI
repeats the suite at -j16), so a fixed scratch name — a literal under
/tmp, or one built on gtest's TempDir() — lets two tests clobber each
other's files. tempPath() names the path after the running test and
the process; this rule keeps every other spelling out of tests/:

  TempDir      any use of the identifier outside tests/temp_path.hh;
  "/tmp...     a string literal that starts with /tmp.

tests/ is outside the analyzed file set (which covers src/), so the
rule walks it the way config-plumbing walks bench/ and examples/.
"""

from .. import tokenizer as tok
from ..engine import Finding
from . import Rule

TESTS_DIR = "tests"
HELPER = "tests/temp_path.hh"


class ScratchPath(Rule):
    rule_id = "scratch-path"
    description = ("Test builds a scratch path from TempDir() or a "
                   "literal /tmp name instead of tests/temp_path.hh; "
                   "fixed names collide between tests run in parallel.")

    def run(self, project):
        findings = []
        for source in project.reference_files(TESTS_DIR):
            if source.rel_path == HELPER:
                continue
            for t in source.ctoks:
                if t.kind == tok.IDENT and t.text == "TempDir":
                    what = "TempDir()"
                elif t.kind == tok.STRING and t.text.startswith('"/tmp'):
                    what = f"literal {t.text}"
                else:
                    continue
                findings.append(Finding(
                    self.rule_id, source.rel_path, t.line,
                    f"scratch path from {what}; use tempPath() from "
                    f"{HELPER} so parallel tests cannot collide"))
        return findings


RULES = (ScratchPath(),)
