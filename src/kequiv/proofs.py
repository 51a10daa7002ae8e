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

The five node classes (`Assume`, `SubRefl`, `Trans`, `Project`, `Subst`)
are frozen dataclasses on one small base class: assigning a field raises
AttributeError, and a `terms` field is stored as a frozenset.  The base
class gives the structural `==`, `hash` and `repr`, with a dataclass's
results.  Those three and `pickle`/`copy.deepcopy` walk the tree over an
explicit stack (pickling writes it as one flat postfix tuple), so they
work on proofs of any depth; `dataclasses.asdict` recurses, and does not.

The engine builds no proof term: its one proof walk writes a proof's
text as a list of string pieces, which `format_proof` also takes, and
joins.

One pass reads proof text: `parse_proof` builds a proof term with it,
and `check` judges with it, building none, so it is the only code that
applies the laws; `check` writes a proof term as text, with numeral
names, first.  The pass runs no regular expression: it splits the text
at each '(' and then at each ')' into the stretches between
parentheses, and only `project`, `subst` and the leaves split a stretch
into atoms.  After a broken law it reads the rest for syntax only, as a
later syntax error wins.  It is also the only reader of malformed text:
it raises the first ProofSyntaxError in the text, and works out its
column only then, from where in the split text the error stands.

An index in proof text is refused if longer than `numeral` allows, so
it means the same under any limit Python sets on the digits `int`
converts (PYTHONINTMAXSTRDIGITS).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import index, sub
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

# the lowest limit Python allows on the digits `int` converts: a token no
# longer than this reads the same under any limit
_NUMERAL_MAX = 640


def numeral(token: str) -> int:
    """`int(token)`, the same under any PYTHONINTMAXSTRDIGITS.

    A token of more than 640 characters raises the ValueError that a
    token which is no numeral raises, before `int` sees it.
    """
    if len(token) > _NUMERAL_MAX:
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


class _Node:
    """Base of the proof node classes.

    A node's fields are its `__match_args__`, its `_kids` sub-proofs
    first.  `==`, `hash` and `repr` give what a frozen dataclass gives,
    and they and pickling read the tree over an explicit stack, so a proof
    of any depth survives them.
    """

    _kids = 0

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return _postfix(self) == _postfix(other)

    def __hash__(self):
        # the hash of the tuple of field values, each sub-proof's hash
        # standing in for the sub-proof
        return _fold(
            _postfix(self),
            lambda cls, kids, data: hash((*map(_Lane, kids), *data)),
            hash,
        )

    def __repr__(self):
        out: list[str] = []
        stack: list = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                out.append(node)
                continue
            parts = [f"{type(node).__qualname__}("]
            for i, name in enumerate(node.__match_args__):
                value = getattr(node, name)
                parts.append(f", {name}=" if i else f"{name}=")
                parts.append(value if isinstance(value, _Node) else repr(value))
            parts.append(")")
            stack += reversed(parts)
        return "".join(out)

    def __reduce__(self):
        return _from_postfix, (tuple(_postfix(self)),)


class _TermsNode(_Node):
    """A node with a `terms` field, which is stored as a frozenset."""

    def __post_init__(self):
        if not isinstance(self.terms, frozenset):
            object.__setattr__(self, "terms", frozenset(self.terms))


# the node classes are frozen dataclasses with `_Node`'s ==, hash and repr
_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Assume(_Node):
    """Cites hypothesis `hyp_index`; concludes the set of its terms."""

    hyp_index: int


@_node
class SubRefl(_TermsNode):
    """Concludes `terms` outright; valid only for at most k terms."""

    terms: frozenset[int]


@_node
class Trans(_Node):
    """Fuses two judgments that share k known-distinct terms; concludes the union."""

    left: ProofTerm
    right: ProofTerm
    _kids = 2


@_node
class Project(_TermsNode):
    """Restricts a judgment to the subset `terms`."""

    inner: ProofTerm
    terms: frozenset[int]
    _kids = 1


@_node
class Subst(_Node):
    """Rewrites term `frm` to `to`, citing entry `eq_index` of the equality log."""

    inner: ProofTerm
    frm: int
    to: int
    eq_index: int
    _kids = 1


class _Lane:
    """Stands, in a tuple, for an object whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _postfix(root: ProofTerm) -> list[tuple]:
    """The tree as one flat list in postfix order.

    A node gives (class, *its other fields) after the entries of its
    sub-proofs; a sub-proof field that holds no node gives (None, value).
    """
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not isinstance(node, _Node):
            out.append((None, node))
            continue
        fields = [getattr(node, name) for name in node.__match_args__]
        out.append((type(node), *fields[node._kids :]))
        stack += fields[: node._kids]  # the first sub-proof is read last
    out.reverse()
    return out


def _fold(entries: Iterable[tuple], node, plain):
    """Evaluate a postfix list bottom-up: `node(cls, kids, data)` for a
    node's entry, `plain(value)` for a (None, value) one."""
    stack: list = []
    for cls, *data in entries:
        if cls is None:
            stack.append(plain(data[0]))
            continue
        cut = len(stack) - cls._kids
        kids = stack[cut:]
        del stack[cut:]
        stack.append(node(cls, kids, data))
    (root,) = stack
    return root


def _from_postfix(entries: tuple) -> ProofTerm:
    return _fold(entries, lambda cls, kids, data: cls(*kids, *data), lambda v: v)


ProofTerm = Union[Assume, SubRefl, Trans, Project, Subst]


class ProofCheckError(Exception):
    """A proof node violates one of the judgment laws.

    `path` locates the failing node as a tuple of child indices from the
    root (0 = first/inner child, 1 = second).  The error's text spells out
    a path of up to 16 indices; a longer one shows its first 8 and last 8
    around "...", then its depth, so a deep failure prints one short line.
    """

    def __init__(self, path: tuple[int, ...], message: str):
        self.path = tuple(path)
        self.message = message
        if len(self.path) <= 16:
            where = "root" + _dotted(self.path)
        else:
            where = (
                f"root{_dotted(self.path[:8])} ... {_dotted(self.path[-8:])}"
                f" (depth {len(self.path)})"
            )
        super().__init__(f"at {where}: {message}")


def _dotted(path: tuple[int, ...]) -> str:
    return "".join(f".{i}" for i in path)


def check(
    proof: ProofTerm | str,
    k: int,
    hypotheses: Sequence[Sequence[int]],
    partition: Mapping[int, int] | None = None,
    equalities: Sequence[tuple[int, int]] = (),
    ids: Mapping[str, int] | None = None,
) -> frozenset[int]:
    """Check `proof` and return the judgment (term set) it establishes.

    `proof` is a proof term, or its canonical text with `ids` mapping term
    names to ids.  Either is judged in one pass over text that builds no
    proof term; a proof term is first written as text, with numerals for
    names.  Malformed input raises before any broken law: a
    ProofSyntaxError, the first in the text, even if a law is broken
    before it; for a term, a node of another type or an empty term list
    (ProofCheckError at that node), or another ValueError of
    `format_proof`, such as a term id with no name.  A malformed log
    entry that a node cites raises ValueError, unless a law is broken
    first.

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
    if partition is None:
        partition = {}  # every term a class of its own
    laws = (k, hypotheses, partition, equalities)
    if isinstance(proof, str):
        if ids is None:
            raise TypeError("checking proof text needs the ids of its term names")
        return _judge(proof, ids.__getitem__, laws, _NUMERAL_MAX)
    try:
        text = format_proof(proof, _NUMERALS)
    except ValueError:
        _refuse_textless(proof)
        raise
    # a term's index may be longer than a numeral of proof text may be
    return _judge(text, int, laws, len(text))


class _Numerals:
    """Names each term id by its numeral, which `int` reads back."""

    def __getitem__(self, t) -> str:
        return str(index(t))


_NUMERALS = _Numerals()


def _refuse_textless(proof: ProofTerm) -> None:
    """Raise ProofCheckError at the first node, in text order, that
    `format_proof` cannot write: a node of another type, or an empty term
    list."""
    # one path list, cut to each node's depth; an entry is (its parent's
    # path length, (its child index,) or () at the root, the node)
    path: list[int] = []
    stack: list = [(0, (), proof)]
    while stack:
        depth, i, node = stack.pop()
        path[depth:] = i
        cls = type(node)
        if cls not in (Assume, SubRefl, Trans, Project, Subst):
            raise ProofCheckError(path, f"unknown proof node {node!r}")
        if cls in (SubRefl, Project) and not node.terms:
            raise ProofCheckError(path, "empty judgment")
        for j in reversed(range(cls._kids)):
            stack.append((len(path), (j,), getattr(node, cls.__match_args__[j])))


def used_hypotheses(proof: ProofTerm) -> frozenset[int]:
    """Indices of all hypotheses cited by `assume` nodes in the proof.

    Anything but one of the five node classes raises ValueError.
    """
    out: set[int] = set()
    stack = [proof]
    while stack:
        node = stack.pop()
        node_type = type(node)
        if node_type is Assume:
            out.add(node.hyp_index)
        elif node_type is Trans:
            stack.append(node.left)
            stack.append(node.right)
        elif node_type is Project or node_type is Subst:
            stack.append(node.inner)
        elif node_type is not SubRefl:
            raise ValueError(f"unknown proof node {node!r}")
    return frozenset(out)


def format_proof(proof: ProofTerm | list[str], names: Sequence[str]) -> str:
    """Render a proof in the canonical text form, terms by name.

    `proof` is a proof term, or the pieces of its text, already named (as
    the engine's queries return them), which are only joined.  Term
    lists are emitted in ascending term-id order, which makes the output
    deterministic for a fixed session.  A term id with no name, an index
    that is not an integer, or an empty term list, raises ValueError.
    """
    if type(proof) is list:
        return "".join(proof)
    out: list[str] = []
    emit = out.append
    # the text that closes each open node, and the right sub-proofs of
    # open `trans` nodes, which are still to render
    stack: list = []
    node = proof
    while True:
        # open `node`, descending to its first sub-proof
        cls = type(node)
        if cls is Assume:
            emit(f"(assume {_integer(node.hyp_index)})")
        elif cls is Project:
            emit("(project ")
            stack.append(" " + " ".join(_term_names(node, names)) + ")")
            node = node.inner
            continue
        elif cls is Trans:
            emit("(trans ")
            stack.append(")")
            stack.append(node.right)
            node = node.left
            continue
        elif cls is Subst:
            frm, to = _term_names(node, names)
            emit("(subst ")
            stack.append(f" {frm} {to} {_integer(node.eq_index)})")
            node = node.inner
            continue
        elif cls is SubRefl:
            emit("(subrefl " + " ".join(_term_names(node, names)) + ")")
        else:
            raise ValueError(f"unknown proof node {node!r}")
        # `node` was a leaf: close nodes up to the next right sub-proof
        while stack:
            item = stack.pop()
            if type(item) is str:
                emit(item)
            else:
                emit(" ")
                node = item
                break
        else:
            return "".join(out)


def _term_names(node: Subst | SubRefl | Project, names: Sequence[str]) -> list[str]:
    """The names of `node`'s term ids, in the order they are rendered.

    An empty term list, or a term id with no name, raises ValueError.  A
    negative id, which names[-1] would not refuse, or one that is not a
    number, is refused before one past the end of `names`.
    """
    if type(node) is Subst:
        ids = [node.frm, node.to]
    elif not node.terms:
        raise ValueError(f"{type(node).__name__.lower()} needs at least one term")
    else:
        try:
            ids = sorted(node.terms)
        except TypeError:  # an id that is not a number, refused below
            ids = list(node.terms)
    for t in ids:
        try:
            if t >= 0:
                continue
        except TypeError:  # not a number
            pass
        raise ValueError(f"no name for term id {t!r}")
    out = []
    for t in ids:
        try:
            out.append(names[t])
        except (IndexError, TypeError):
            raise ValueError(f"no name for term id {t!r}") from None
    return out


def _integer(value) -> int:
    """A hypothesis or equality index, which must be an integer."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"index {value!r} is not an integer") from None


class ProofSyntaxError(ValueError):
    """Malformed proof text; `column` is 1-based."""

    def __init__(self, column: int, message: str):
        self.column = column
        super().__init__(f"col {column}: {message}")


def parse_proof(text: str, ids: Mapping[str, int]) -> ProofTerm:
    """Parse the canonical text form back into a proof term.

    `ids` maps term names to ids.  Malformed text, an unknown name
    included, raises ProofSyntaxError with the offending column.
    """
    return _judge(text, ids.__getitem__, None, _NUMERAL_MAX)


class _BrokenLaw(Exception):
    """The message of a law broken at the node whose ')' `_judge` reads."""


def _judge(
    text: str,
    name_id: Callable[[str], int],
    laws: tuple | None,
    limit: int,
) -> ProofTerm | frozenset[int]:
    """Read proof `text` in one pass.

    With `laws` None it returns the proof term.  With `laws`, `check`'s
    (k, hypotheses, partition, equalities), it returns the judgment the
    proof establishes; the first broken law raises ProofCheckError at its
    node once the rest is read for shape, names and indices only.  A
    malformed log (hypotheses, partition or equalities) raises ValueError
    in its place, if it comes first.  Malformed text raises the first
    ProofSyntaxError in the text, before any of these.  `name_id` gives a
    term name's id, or raises KeyError or ValueError; an index is read by
    `int` and refused if longer than `limit`.

    A node's result, node or judgment, is worked out from its children's
    when its ')' is read.  The text is split at each '(', and a chunk
    holding a ')' is split again, into the node's opening stretch (its
    head and atoms) and the stretch after each ')' that closes in it.
    Only `project`, `subst` and the leaves split a stretch into atoms;
    elsewhere a stretch must be whitespace.  Where a syntax error is
    found, its column is worked out only to raise it (see `_refusal`).
    """
    build, judging = laws is None, laws is not None
    if judging:
        k, hypotheses, partition, equalities = laws
        class_of = partition.__getitem__
        n_hyps, n_eqs = len(hypotheses), len(equalities)
    # the error class and arguments of the first broken law or malformed log
    failure = None
    # an open node is [the stretch after its '(', then per child: result,
    # the stretch after the child's ')'], so a valid node's length says its
    # shape, and an open node is reading its child (len(node) - 1) // 2
    stack: list[list] = []
    node: list | None = None
    done = False
    root = None
    chunks = text.split("(")
    before = chunks[0].lstrip()
    if before:  # a token before the first '('
        message = "unbalanced ')'" if before[0] == ")" else "proof must start with '('"
        raise ProofSyntaxError(len(chunks[0]) - len(before) + 1, message)
    rest = islice(chunks, 1, None)
    for chunk in rest:
        if node is not None:
            stack.append(node)
        if ")" not in chunk:
            node = [chunk]  # a node with sub-proofs opens
            continue
        stretches = chunk.split(")")
        cuts = iter(stretches)
        node = [next(cuts)]
        for stretch in cuts:
            if node is None:
                at = _closing(chunks, rest, stretches, cuts)[1] + 1
                raise ProofSyntaxError(at, "unbalanced ')'")
            size = len(node)
            try:
                if size == 5:  # two sub-proofs: trans
                    if node[0].strip() != "trans" or (node[2] + node[4]).strip():
                        raise ValueError  # a malformed node
                    x, y = node[1], node[3]
                    if judging:
                        shared = x & y
                        try:
                            n = len(set(map(class_of, shared)))
                        except KeyError:  # an unmapped term is a class of its own
                            mapped = [t for t in shared if t in partition]
                            n = len(set(map(class_of, mapped)))
                            n += len(shared) - len(mapped)
                        if n < k:
                            raise _BrokenLaw(
                                f"shared terms span {n} distinctness classes, need {k}"
                            )
                        result = x | y
                    else:
                        result = Trans(x, y) if build else None
                elif size == 3:  # one sub-proof: project or subst
                    kind = node[0].strip()
                    atoms = node[2].split()
                    if kind == "project":
                        if not atoms:
                            raise ValueError  # a malformed node
                        terms = frozenset(map(name_id, atoms))
                        if not judging:
                            result = Project(node[1], terms) if build else None
                        elif terms <= node[1]:
                            result = terms
                        else:
                            raise _BrokenLaw(
                                "projection target is not a subset of the conclusion"
                            )
                    elif kind == "subst":
                        if len(atoms) != 3:
                            raise ValueError  # a malformed node
                        frm, to, e = name_id(atoms[0]), name_id(atoms[1]), int(atoms[2])
                        if len(atoms[2]) > limit:
                            raise ValueError  # a malformed node
                        if judging:
                            if not 0 <= e < n_eqs:
                                raise _BrokenLaw(f"equality index {e} out of range")
                            a, b = equalities[e]
                            if (frm, to) != (a, b) and (to, frm) != (a, b):
                                raise _BrokenLaw(
                                    f"equality {e} does not relate the "
                                    "substituted terms"
                                )
                            try:
                                if class_of(a) != class_of(b):
                                    raise _BrokenLaw(
                                        f"equality {e} equates known-distinct terms"
                                    )
                            except KeyError:
                                pass  # an unmapped term is never known-distinct
                            result = node[1]
                            if frm in result:
                                result = (result - {frm}) | {to}
                        else:
                            result = Subst(node[1], frm, to, e) if build else None
                    else:
                        raise ValueError  # a malformed node
                elif size == 1:  # a leaf: assume or subrefl
                    head = node[0].split()
                    kind = head[0] if head else None
                    if kind == "assume":
                        if len(head) != 2:
                            raise ValueError  # a malformed node
                        i = int(head[1])
                        if len(head[1]) > limit:
                            raise ValueError  # a malformed node
                        if not judging:
                            result = Assume(i) if build else None
                        elif 0 <= i < n_hyps:
                            result = frozenset(hypotheses[i])
                        else:
                            raise _BrokenLaw(f"hypothesis index {i} out of range")
                    elif kind == "subrefl":
                        if len(head) < 2:
                            raise ValueError  # a malformed node
                        terms = frozenset(map(name_id, head[1:]))
                        if not judging:
                            result = SubRefl(terms) if build else None
                        elif len(terms) <= k:
                            result = terms
                        else:
                            raise _BrokenLaw(
                                f"sub-reflexivity allows at most {k} terms, "
                                f"got {len(terms)}"
                            )
                    else:
                        raise ValueError  # a malformed node
                else:
                    raise ValueError  # a malformed node
            except _BrokenLaw as broken:  # its traceback holds this frame
                path = [(len(f) - 1) // 2 for f in stack]
                failure = ProofCheckError, path, str(broken)
                judging, result = False, None
            except (KeyError, ValueError):
                # the node's syntax error, or, if it has none, a malformed
                # log entry it cites
                fault = _fault(node, name_id, limit)
                if fault is not None:
                    ci, at = _closing(chunks, rest, stretches, cuts)
                    raise _refusal(chunks, ci, at, stack, node, *fault)
                message = "malformed hypotheses, partition or equalities"
                failure, judging, result = (ValueError, message), False, None
            if stack:
                node = stack.pop()
                node.append(result)
                node.append(stretch)
            elif not done and not stretch.strip():
                node, done, root = None, True, result
            else:  # a second proof closes, or a token follows the proof
                at = _closing(chunks, rest, stretches, cuts)[1] + 1
                if done:
                    raise ProofSyntaxError(at, "trailing input after proof")
                at += 1 + len(stretch) - len(stretch.lstrip())
                raise ProofSyntaxError(at, "proof must start with '('")
    if node is not None:  # the text ends inside a node: at its head, if any
        opening = node[0]
        at, message = len(opening) - len(opening.lstrip()), "unclosed '('"
        if at == len(opening):  # else at its '(', or its first child's
            at, message = (-1, message) if len(node) == 1 else (at, _NO_HEAD)
        raise _refusal(chunks, len(chunks) - 1, len(text), stack, node, 0, at, message)
    if not done:
        raise ProofSyntaxError(len(text) + 1, "empty proof")
    if failure is not None:
        error, *args = failure
        raise error(*args)
    return root


# a part of a node, as a syntax error names it
_PROOF, _TERM = "a sub-proof", "a term name"
# each constructor's parts, the last repeated if "..." follows it, and the
# syntax error of a node with too few or too many
_SHAPES = {
    "assume": (("a hypothesis index",), "assume takes one hypothesis index"),
    "subrefl": ((_TERM, ...), "subrefl needs at least one term"),
    "trans": ((_PROOF, _PROOF), "trans takes two sub-proofs"),
    "project": (
        (_PROOF, _TERM, ...),
        "project takes a sub-proof and at least one term",
    ),
    "subst": (
        (_PROOF, _TERM, _TERM, "an equality index"),
        "subst takes a sub-proof, two terms, and an equality index",
    ),
}
_NO_HEAD = "expected a proof constructor"


def _fault(node: list, name_id: Callable[[str], int], limit: int) -> tuple | None:
    """The syntax error of a node whose ')' `_judge` reads, as (j, k,
    message) at offset k of its stretch j (-1: the parenthesis before it),
    or None.  A node with a head is checked for its arity, then for each
    part, an atom or a sub-proof's ')', in text order."""
    parts = []  # (j, k, atom), or (j, -1, None) for sub-proof j
    for j, stretch in enumerate(node[::2]):
        if j:
            parts.append((j, -1, None))
        k = 0
        for atom in stretch.split():
            k = stretch.index(atom, k)
            parts.append((j, k, atom))
            k += len(atom)
    if not parts or parts[0][0]:  # no head: at its '(', or its first child's
        return (0, len(node[0]), _NO_HEAD) if parts else (0, -1, "empty proof node")
    (_, at, head), *parts = parts
    if head not in _SHAPES:
        return 0, at, f"unknown proof constructor {head!r}"
    kinds, arity = _SHAPES[head]
    if kinds[-1] is ...:  # the part before it repeats to the end
        kinds = kinds[:-1] + kinds[-2:-1] * (len(parts) - len(kinds) + 1)
    if len(parts) != len(kinds):
        return 0, at, arity
    for (j, k, atom), kind in zip(parts, kinds):
        if (atom is None) != (kind is _PROOF):
            return j, k, f"expected {kind}"
        if kind is _TERM and not _reads(name_id, atom):
            return j, k, f"unknown term {atom!r}"
        if kind not in (_PROOF, _TERM) and (len(atom) > limit or not _reads(int, atom)):
            return j, k, f"expected {kind}, got {atom!r}"
    return None


def _reads(read: Callable[[str], int], atom: str) -> bool:
    """Whether `read` takes `atom` without a KeyError or ValueError."""
    try:
        read(atom)
    except (KeyError, ValueError):
        return False
    return True


def _closing(chunks: list[str], rest, stretches: list[str], cuts) -> tuple[int, int]:
    """The index of the chunk `_judge` reads, and the text offset of the ')'
    before the stretch it reads, from the chunks and stretches left."""
    ci = len(chunks) - 1 - len(list(rest))
    m = len(stretches) - 1 - len(list(cuts))
    return ci, sum(map(len, chunks[:ci])) + ci + sum(map(len, stretches[:m])) + m - 1


def _refusal(chunks, ci, end, stack, node, j, k, message) -> ProofSyntaxError:
    """The ProofSyntaxError at offset k of stretch j of `node`, the node
    `_judge` reads in chunks[ci], whose last stretch ends at text offset
    `end`; but a node on `stack` with no head is met first, at its first
    sub-proof's '('."""
    depth = len(stack)
    for d, frame in enumerate(stack):
        if not frame[0].strip():
            depth, node, j, k, message = d, frame, 0, len(frame[0]), _NO_HEAD
            break
    else:
        if j == len(node) // 2:
            return ProofSyntaxError(end - len(node[-1]) + k + 1, message)
    # chunks[c] opens a node at the depth of the one chunks[c - 1] opens,
    # plus one, less the ')' between them; depths[i] is that of chunks[i + 1]
    closed = accumulate(map(str.count, islice(chunks, 1, ci), repeat(")")), initial=0)
    depths = list(map(sub, range(ci), closed))
    starts = list(accumulate(map(len, islice(chunks, ci)), initial=0))
    # `node` opens at the last chunk at its depth, and stretch j ends at
    # the '(' of its child j + 1, the (j + 1)th chunk one deeper after it
    opening = ci - depths[::-1].index(depth)
    ends = [starts[i + 1] + i for i in range(opening, ci) if depths[i] == depth + 1]
    return ProofSyntaxError(ends[j] - len(node[2 * j]) + k + 1, message)
