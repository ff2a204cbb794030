"""Rule engine: findings, suppression, baseline, orchestration.

A rule is an object with `rule_id`, `description`, and
`run(project) -> [Finding]`. The engine runs every registered rule
over the project, drops findings carrying a SPECFETCH-ALLOW
suppression on their line or the line above, then drops findings
matching the checked-in baseline file. What remains are the
actionable findings.

Baseline entries fingerprint a finding by rule, path and the hash of
its normalized source line — not by line number — so unrelated edits
above a baselined finding do not churn the file. Identical lines in
one file share a fingerprint; the baseline suppresses all of them,
which the docs call out as the cost of stability.
"""

import hashlib
import json


class Finding:
    __slots__ = ("rule", "path", "line", "message", "suppressed",
                 "baselined")

    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message
        self.suppressed = False
        self.baselined = False

    def key(self):
        return (self.path, self.line, self.rule, self.message)

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def fingerprint(finding, line_text):
    normalized = " ".join(line_text.split())
    digest = hashlib.sha1(
        f"{finding.rule}|{finding.path}|{normalized}".encode()
    ).hexdigest()
    return digest[:16]


class Baseline:
    def __init__(self, entries=None):
        self.entries = set(entries or ())

    @classmethod
    def load(cls, path):
        """Load a baseline file; a missing file is an empty baseline,
        a damaged one is a hard error (silent acceptance of stale
        suppressions is worse than failing)."""
        try:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            return cls()
        except (OSError, json.JSONDecodeError) as err:
            raise SystemExit(f"cannot read baseline {path}: {err}")
        if not isinstance(doc, dict) or doc.get("version") != 1 \
                or not isinstance(doc.get("findings"), list):
            raise SystemExit(
                f"{path}: not a version-1 analyze baseline")
        entries = set()
        for entry in doc["findings"]:
            if isinstance(entry, dict) and "fingerprint" in entry:
                entries.add(entry["fingerprint"])
        return cls(entries)

    @staticmethod
    def dump(findings, project, path):
        doc = {
            "version": 1,
            "comment": "Known findings tolerated by tools/analyze; "
                       "regenerate with --write-baseline, shrink it "
                       "whenever you fix one.",
            "findings": [],
        }
        for f in sorted(findings, key=Finding.key):
            source = project.file(f.path)
            line_text = source.line_text(f.line) if source else ""
            doc["findings"].append({
                "fingerprint": fingerprint(f, line_text),
                "rule": f.rule,
                "path": f.path,
                "message": f.message,
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")

    def contains(self, finding, line_text):
        return fingerprint(finding, line_text) in self.entries


class AnalysisResult:
    def __init__(self):
        self.findings = []      # actionable
        self.suppressed = []    # dropped by inline allows
        self.baselined = []     # dropped by the baseline file
        self.rules = []         # (rule_id, description) that ran


def run_rules(project, rules, baseline=None):
    """Run @p rules over @p project; returns an AnalysisResult."""
    result = AnalysisResult()
    raw = []
    for rule in rules:
        result.rules.append((rule.rule_id, rule.description))
        for finding in rule.run(project):
            raw.append(finding)
    result.rules.append((
        BAD_SUPPRESSION_RULE,
        "SPECFETCH-ALLOW waiver without a reason; every suppression "
        "must say why it is safe."))
    raw.extend(_bad_suppressions(project))
    raw.sort(key=Finding.key)

    seen = set()
    for finding in raw:
        if finding.key() in seen:
            continue
        seen.add(finding.key())
        source = project.file(finding.path)
        if source is not None \
                and source.suppressed(finding.rule, finding.line):
            finding.suppressed = True
            result.suppressed.append(finding)
            continue
        line_text = source.line_text(finding.line) if source else ""
        if baseline is not None and baseline.contains(finding, line_text):
            finding.baselined = True
            result.baselined.append(finding)
            continue
        result.findings.append(finding)
    return result


BAD_SUPPRESSION_RULE = "bad-suppression"


def _bad_suppressions(project):
    """A SPECFETCH-ALLOW without a `: reason` is itself a finding: the
    waiver loses its justification the moment the author moves on."""
    findings = []
    for source in project.files():
        for s in source.suppressions:
            if s.reason:
                continue
            findings.append(Finding(
                BAD_SUPPRESSION_RULE, source.rel_path, s.line,
                f"SPECFETCH-ALLOW({s.rule}) without a reason; write "
                f"`// SPECFETCH-ALLOW({s.rule}): <why this is safe>`"))
    return findings
