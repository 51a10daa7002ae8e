"""Proof terms for joint-relatedness facts and an independent checker.

A proof concludes a *judgment*: a finite, nonempty set of terms asserted to
be jointly related (every (k+1)-subset of the judgment satisfies the
relation).  The checker validates proofs purely against the hypothesis log,
the arity parameter k, the distinctness partition, and the equality log; it
shares no state with the engine that produced the proof, so it can be used
to audit the engine's answers.

This module also owns the canonical text form of proofs:

    (assume N)
    (subrefl t1 ... tm)
    (trans P Q)
    (project P t1 ... tm)
    (subst P a b N)

where terms are rendered by name and N is a log index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

__all__ = [
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
]


def _termset(terms: Iterable[int]) -> frozenset[int]:
    return terms if isinstance(terms, frozenset) else frozenset(terms)


@dataclass(frozen=True)
class Assume:
    """Cites hypothesis `hyp_index`; concludes the set of its terms."""

    hyp_index: int


@dataclass(frozen=True)
class SubRefl:
    """Concludes `terms` outright; valid only for at most k terms."""

    terms: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _termset(self.terms))


@dataclass(frozen=True)
class Trans:
    """Fuses two judgments that share k known-distinct terms; concludes the union."""

    left: "ProofTerm"
    right: "ProofTerm"


@dataclass(frozen=True)
class Project:
    """Restricts a judgment to the subset `terms`."""

    inner: "ProofTerm"
    terms: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", _termset(self.terms))


@dataclass(frozen=True)
class Subst:
    """Rewrites term `frm` to `to`, citing entry `eq_index` of the equality log."""

    inner: "ProofTerm"
    frm: int
    to: int
    eq_index: int


ProofTerm = Union[Assume, SubRefl, Trans, Project, Subst]


class ProofCheckError(Exception):
    """A proof node violates one of the judgment laws.

    `path` locates the failing node as a tuple of child indices from the
    root (0 = first/inner child, 1 = second).
    """

    def __init__(self, path: tuple[int, ...], message: str):
        self.path = tuple(path)
        self.message = message
        where = "root" + "".join(f".{i}" for i in self.path)
        super().__init__(f"at {where}: {message}")


# Paths are threaded through the checker as parent-linked chains so that
# deep proofs do not pay for tuple copies; they are flattened on error.
_Path = Union[None, tuple]


def _flatten(chain: _Path) -> tuple[int, ...]:
    out: list[int] = []
    while chain is not None:
        chain, i = chain
        out.append(i)
    return tuple(reversed(out))


def check(
    proof: ProofTerm,
    k: int,
    hypotheses: Sequence[Sequence[int]],
    partition: Mapping[int, int] | None = None,
    equalities: Sequence[tuple[int, int]] = (),
) -> frozenset[int]:
    """Check `proof` and return the judgment (term set) it establishes.

    Laws enforced per node:

    * ``assume(i)`` concludes the set of hypothesis i's terms.
    * ``subrefl(S)`` requires ``1 <= |S| <= k``; concludes S.
    * ``trans(p, q)`` requires the two conclusions to share terms spanning
      at least k distinctness classes; concludes the union.
    * ``project(p, S)`` requires S to be a nonempty subset of p's
      conclusion; concludes S.
    * ``subst(p, a, b, e)`` requires equality e of the log to relate a and
      b (either orientation); concludes p's conclusion with a rewritten
      to b.  An equality between two terms of different partition classes
      makes the log inconsistent and is rejected.

    `partition` maps term ids to distinctness-class ids; terms absent from
    it (or the whole argument being None) are treated as singleton classes,
    i.e. pairwise distinct, by ``trans``; an equality citing such a term is
    not rejected.  Raises ProofCheckError with the path to the
    offending node on any violation.
    """
    if k < 1:
        raise ValueError("k must be at least 1")

    def cls(t: int):
        if partition is not None and t in partition:
            return partition[t]
        return ("singleton", t)

    # Explicit stack: proofs from long merge chains nest deeply.
    tasks: list[tuple] = [("walk", proof, None)]
    results: list[frozenset[int]] = []
    while tasks:
        kind, node, path = tasks.pop()
        if kind == "walk":
            if isinstance(node, Assume):
                if not 0 <= node.hyp_index < len(hypotheses):
                    raise ProofCheckError(
                        _flatten(path),
                        f"hypothesis index {node.hyp_index} out of range",
                    )
                results.append(frozenset(hypotheses[node.hyp_index]))
            elif isinstance(node, SubRefl):
                if not node.terms:
                    raise ProofCheckError(_flatten(path), "empty judgment")
                if len(node.terms) > k:
                    raise ProofCheckError(
                        _flatten(path),
                        f"sub-reflexivity allows at most {k} terms, "
                        f"got {len(node.terms)}",
                    )
                results.append(node.terms)
            elif isinstance(node, Trans):
                tasks.append(("trans", node, path))
                tasks.append(("walk", node.right, (path, 1)))
                tasks.append(("walk", node.left, (path, 0)))
            elif isinstance(node, Project):
                tasks.append(("project", node, path))
                tasks.append(("walk", node.inner, (path, 0)))
            elif isinstance(node, Subst):
                tasks.append(("subst", node, path))
                tasks.append(("walk", node.inner, (path, 0)))
            else:
                raise ProofCheckError(
                    _flatten(path), f"unknown proof node {node!r}"
                )
        elif kind == "trans":
            y = results.pop()
            x = results.pop()
            shared = x & y
            n_classes = len({cls(t) for t in shared})
            if n_classes < k:
                raise ProofCheckError(
                    _flatten(path),
                    f"shared terms span {n_classes} distinctness classes, need {k}",
                )
            results.append(x | y)
        elif kind == "project":
            x = results.pop()
            if not node.terms:
                raise ProofCheckError(_flatten(path), "empty judgment")
            if not node.terms <= x:
                raise ProofCheckError(
                    _flatten(path),
                    "projection target is not a subset of the conclusion",
                )
            results.append(node.terms)
        else:  # subst
            x = results.pop()
            if not 0 <= node.eq_index < len(equalities):
                raise ProofCheckError(
                    _flatten(path), f"equality index {node.eq_index} out of range"
                )
            a, b = equalities[node.eq_index]
            if {node.frm, node.to} != {a, b}:
                raise ProofCheckError(
                    _flatten(path),
                    f"equality {node.eq_index} does not relate the "
                    "substituted terms",
                )
            known = partition is not None and a in partition and b in partition
            if known and partition[a] != partition[b]:
                raise ProofCheckError(
                    _flatten(path),
                    f"equality {node.eq_index} equates known-distinct terms",
                )
            if node.frm in x:
                x = (x - {node.frm}) | {node.to}
            results.append(x)
    (conclusion,) = results
    return conclusion


def used_hypotheses(proof: ProofTerm) -> frozenset[int]:
    """Indices of all hypotheses cited by `assume` nodes in the proof."""
    out: set[int] = set()
    stack = [proof]
    while stack:
        node = stack.pop()
        if isinstance(node, Assume):
            out.add(node.hyp_index)
        elif isinstance(node, Trans):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, (Project, Subst)):
            stack.append(node.inner)
    return frozenset(out)


def format_proof(proof: ProofTerm, names: Sequence[str]) -> str:
    """Render a proof in the canonical text form, terms by name.

    Term lists are emitted in ascending term-id order, which makes the
    output deterministic for a fixed session.
    """

    def name(t: int) -> str:
        try:
            return names[t]
        except (IndexError, TypeError):
            raise ValueError(f"no name for term id {t}") from None

    def termlist(terms: frozenset[int]) -> str:
        return " ".join(name(t) for t in sorted(terms))

    out: list[str] = []
    stack: list[ProofTerm | str] = [proof]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Assume):
            out.append(f"(assume {node.hyp_index})")
        elif isinstance(node, SubRefl):
            out.append(f"(subrefl {termlist(node.terms)})")
        elif isinstance(node, Trans):
            stack.append(")")
            stack.append(node.right)
            stack.append(" ")
            stack.append(node.left)
            stack.append("(trans ")
        elif isinstance(node, Project):
            stack.append(f" {termlist(node.terms)})")
            stack.append(node.inner)
            stack.append("(project ")
        elif isinstance(node, Subst):
            stack.append(
                f" {name(node.frm)} {name(node.to)} {node.eq_index})"
            )
            stack.append(node.inner)
            stack.append("(subst ")
        else:
            raise ValueError(f"unknown proof node {node!r}")
    return "".join(out)


class ProofSyntaxError(ValueError):
    """Malformed proof text; `column` is 1-based."""

    def __init__(self, column: int, message: str):
        self.column = column
        super().__init__(f"col {column}: {message}")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i + 1))
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i + 1))
            i = j
    return tokens


def parse_proof(
    text: str, ids: Mapping[str, int] | Callable[[str], int]
) -> ProofTerm:
    """Parse the canonical text form back into a proof term.

    `ids` resolves term names to ids (a mapping or a callable); unknown
    names raise ProofSyntaxError with the offending column.
    """
    lookup = ids.__getitem__ if isinstance(ids, Mapping) else ids
    tokens = _tokenize(text)

    def as_int(part, what: str) -> int:
        tag, value, col = part
        if tag != "atom":
            raise ProofSyntaxError(col, f"expected {what}")
        try:
            return int(value)
        except ValueError:
            raise ProofSyntaxError(col, f"expected {what}, got {value!r}") from None

    def as_term(part) -> int:
        tag, value, col = part
        if tag != "atom":
            raise ProofSyntaxError(col, "expected a term name")
        try:
            return lookup(value)
        except KeyError:
            raise ProofSyntaxError(col, f"unknown term {value!r}") from None

    def as_proof(part) -> ProofTerm:
        tag, value, col = part
        if tag != "proof":
            raise ProofSyntaxError(col, "expected a sub-proof")
        return value

    def reduce(head: str, col: int, parts: list) -> ProofTerm:
        if head == "assume":
            if len(parts) != 1:
                raise ProofSyntaxError(col, "assume takes one hypothesis index")
            return Assume(as_int(parts[0], "a hypothesis index"))
        if head == "subrefl":
            if not parts:
                raise ProofSyntaxError(col, "subrefl needs at least one term")
            return SubRefl(frozenset(as_term(p) for p in parts))
        if head == "trans":
            if len(parts) != 2:
                raise ProofSyntaxError(col, "trans takes two sub-proofs")
            return Trans(as_proof(parts[0]), as_proof(parts[1]))
        if head == "project":
            if len(parts) < 2:
                raise ProofSyntaxError(
                    col, "project takes a sub-proof and at least one term"
                )
            return Project(
                as_proof(parts[0]), frozenset(as_term(p) for p in parts[1:])
            )
        if head == "subst":
            if len(parts) != 4:
                raise ProofSyntaxError(
                    col, "subst takes a sub-proof, two terms, and an equality index"
                )
            return Subst(
                as_proof(parts[0]),
                as_term(parts[1]),
                as_term(parts[2]),
                as_int(parts[3], "an equality index"),
            )
        raise ProofSyntaxError(col, f"unknown proof constructor {head!r}")

    # Shift-reduce over the token stream; frames are (head, col, parts).
    frames: list[tuple[str | None, int, list]] = []
    done: ProofTerm | None = None

    def attach(node: ProofTerm, col: int) -> None:
        nonlocal done
        if frames:
            frames[-1][2].append(("proof", node, col))
        elif done is None:
            done = node
        else:
            raise ProofSyntaxError(col, "trailing input after proof")

    for tok, col in tokens:
        if tok == "(":
            frames.append((None, col, []))
        elif tok == ")":
            if not frames:
                raise ProofSyntaxError(col, "unbalanced ')'")
            head, hcol, parts = frames.pop()
            if head is None:
                raise ProofSyntaxError(hcol, "empty proof node")
            attach(reduce(head, hcol, parts), col)
        else:
            if not frames:
                raise ProofSyntaxError(col, "proof must start with '('")
            head, hcol, parts = frames[-1]
            if head is None:
                frames[-1] = (tok, col, parts)
            else:
                parts.append(("atom", tok, col))
    if frames:
        raise ProofSyntaxError(frames[-1][1], "unclosed '('")
    if done is None:
        raise ProofSyntaxError(len(text) + 1, "empty proof")
    return done
