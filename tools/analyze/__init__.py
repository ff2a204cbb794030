"""specfetch-analyze: project-aware static analysis for the
speculative-fetch simulator.

Unlike generic linters, these rules know the project's contracts —
bit-exact determinism, sweep-worker error boundaries,
content-addressed run keys, per-test scratch paths — and
enforce them across file boundaries on a real token/scope model of
the C++ sources. See DESIGN.md §13.
"""

__version__ = "1.0.0"
