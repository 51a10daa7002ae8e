"""Proof-producing closure for k-equivalence relations.

A k-equivalence relation is a (k+1)-ary relation that behaves like
equality anchored at k points: k=1 is plain equivalence, k=2 collinearity,
k=3 cocyclicity.  The package provides an incremental engine whose state
stays polynomial in the number of hypotheses, an independent proof
checker, a brute-force saturation oracle for differential testing, a
congruence layer for term equalities, and a batch CLI.
"""

from .congruence import CongruenceState, InconsistentEqualityError, UnionFind
from .engine import (
    Asserted,
    EngineInvariantError,
    HistoryNode,
    KSet,
    Merged,
    Rewritten,
    Session,
    Stats,
)
from .oracle import closure_sets, covered, minimal_supports, oracle_entailed, saturate
from .problem import ParseError, Problem, generate, intern_problem, parse_path, parse_text
from .proofs import (
    Assume,
    ProofCheckError,
    ProofSyntaxError,
    ProofTerm,
    Project,
    SubRefl,
    Subst,
    Trans,
    check,
    format_proof,
    parse_proof,
    used_hypotheses,
)

__version__ = "0.1.0"

__all__ = [
    "Session",
    "KSet",
    "Asserted",
    "Merged",
    "Rewritten",
    "HistoryNode",
    "Stats",
    "EngineInvariantError",
    "Assume",
    "SubRefl",
    "Trans",
    "Project",
    "Subst",
    "ProofTerm",
    "ProofCheckError",
    "ProofSyntaxError",
    "check",
    "used_hypotheses",
    "format_proof",
    "parse_proof",
    "closure_sets",
    "covered",
    "saturate",
    "oracle_entailed",
    "minimal_supports",
    "CongruenceState",
    "InconsistentEqualityError",
    "UnionFind",
    "Problem",
    "ParseError",
    "parse_text",
    "parse_path",
    "intern_problem",
    "generate",
]
