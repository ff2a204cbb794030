#!/usr/bin/env python3
"""Determinism lint — thin wrapper over tools/analyze.

The original line-regex lint lived here; its rules (wall-clock,
libc-random, unordered, uninit-counter, loop-alloc, loop-virtual) were
ported to the token/scope-based framework in tools/analyze, which adds
the project-wide rules (error-boundary, shared-state,
config-plumbing, scratch-path), suppression auditing, a baseline and
SARIF output. This wrapper keeps the historical CLI working:

    tools/lint.py [--root DIR]    lint the tree (exit 1 on findings)
    tools/lint.py --self-test     run the analyzer's self-test corpus

Both legacy `// lint: allow(<rule>)` waivers and the canonical
`// SPECFETCH-ALLOW(<rule>): reason` form are honored. New callers
should invoke `python3 tools/analyze` directly for the full option
set (--rules, --sarif, --baseline, --strict).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from analyze.cli import main as analyze_main  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Determinism lint (wrapper over tools/analyze)")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer self-test corpus and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return analyze_main(["--self-test"])
    # The historical contract: findings fail the build.
    return analyze_main(["--root", args.root, "--strict"])


if __name__ == "__main__":
    sys.exit(main())
