"""Rule registry.

Each rule module exports RULES, a tuple of rule instances. A rule has
`rule_id` (the name used in SPECFETCH-ALLOW and the baseline),
`description` (first line goes into the SARIF rule catalog), and
`run(project) -> [Finding]`.
"""


class Rule:
    rule_id = ""
    description = ""

    def run(self, project):
        raise NotImplementedError


def all_rules():
    from . import (config_plumbing, determinism, error_boundary,
                   hot_path, scratch_path, shared_state)
    rules = []
    for module in (determinism, hot_path, error_boundary, shared_state,
                   config_plumbing, scratch_path):
        rules.extend(module.RULES)
    return rules
