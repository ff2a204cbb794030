"""One analyzed source file: text, tokens, scopes, suppressions."""

import re

from . import scopes as scp
from . import tokenizer as tok

# Canonical suppression: `// SPECFETCH-ALLOW(rule): reason`, on the
# finding's line or the line above. The reason is mandatory — an allow
# without one is itself reported (rule "bad-suppression").
ALLOW_RE = re.compile(
    r"SPECFETCH-ALLOW\(([a-z-]+)\)(\s*:\s*(\S.*))?")


class Suppression:
    __slots__ = ("rule", "line", "reason")

    def __init__(self, rule, line, reason):
        self.rule = rule
        self.line = line
        self.reason = reason


class SourceFile:
    """Lazily tokenized view of one file under the analysis root."""

    def __init__(self, root_path, rel_path, text):
        self.root_path = root_path
        self.rel_path = rel_path  # forward-slash relative path
        self.text = text
        self._tokens = None
        self._ctoks = None
        self._scopes = None
        self._suppressions = None

    @property
    def tokens(self):
        if self._tokens is None:
            self._tokens = tok.tokenize(self.text)
        return self._tokens

    @property
    def ctoks(self):
        """Code tokens (no comments, no preprocessor directives)."""
        if self._ctoks is None:
            self._ctoks = tok.code_tokens(self.tokens)
        return self._ctoks

    @property
    def scopes(self):
        if self._scopes is None:
            self._scopes = scp.build_scopes(self.ctoks)
        return self._scopes

    @property
    def suppressions(self):
        """All SPECFETCH-ALLOW comments in the file."""
        if self._suppressions is None:
            found = []
            for t in self.tokens:
                if t.kind != tok.COMMENT:
                    continue
                for m in ALLOW_RE.finditer(t.text):
                    found.append(Suppression(m.group(1), t.line,
                                             m.group(3)))
            self._suppressions = found
        return self._suppressions

    def suppressed(self, rule, line):
        """True when a suppression for @p rule sits on @p line or the
        line directly above it."""
        for s in self.suppressions:
            if s.rule == rule and s.line in (line, line - 1):
                return True
        return False

    def line_text(self, line):
        lines = self.text.splitlines()
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""

    def idents(self):
        """Set of all identifier spellings in the file's code."""
        return {t.text for t in self.ctoks if t.kind == tok.IDENT}
