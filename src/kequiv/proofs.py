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
later syntax error wins.  Text it gives up on is read again only to
raise the ProofSyntaxError at its column.

An index in proof text is refused if longer than `numeral` allows, so
it means the same under any limit Python sets on the digits `int`
converts (PYTHONINTMAXSTRDIGITS).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from operator import index
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
    ProofSyntaxError, even one later in the text; for a term, a node of
    another type or an empty term list (ProofCheckError at that node), or
    another ValueError of `format_proof`, such as a term id with no name.

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
        conclusion = _judge(proof, ids.__getitem__, laws, _NUMERAL_MAX)
        if conclusion is None:
            _read(proof, ids)  # raises the syntax error, if there is one
    else:
        try:
            text = format_proof(proof, _NUMERALS)
        except ValueError:
            _refuse_textless(proof)
            raise
        # a term's index may be longer than a numeral of proof text may be
        conclusion = _judge(text, int, laws, len(text))
    if conclusion is None:
        raise ValueError("malformed hypotheses, partition or equalities")
    return conclusion


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


_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse_proof(text: str, ids: Mapping[str, int]) -> ProofTerm:
    """Parse the canonical text form back into a proof term.

    `ids` maps term names to ids.  Malformed text, an unknown name
    included, raises ProofSyntaxError with the offending column.
    """
    proof = _judge(text, ids.__getitem__, None, _NUMERAL_MAX)
    if proof is None:
        _read(text, ids)
    return proof


def _read(text: str, ids: Mapping[str, int]) -> None:
    """Raise the ProofSyntaxError of malformed `text`, at its column.

    A shift-reduce over the tokens that builds nothing; it runs only on
    text `_judge` gave up on, and returns if that text is well formed.
    """
    # tokens are referred to by index; a column is found only to raise
    tokens = _TOKEN.findall(text)

    def error(i: int, message: str) -> ProofSyntaxError:
        # the column of token i, or one past the end of the text
        m = next(islice(_TOKEN.finditer(text), i, None), None)
        return ProofSyntaxError(len(text) + 1 if m is None else m.start() + 1, message)

    # a part is the index of an atom, or of the ')' closing a sub-proof
    def as_int(i: int, what: str) -> None:
        if tokens[i] == ")":
            raise error(i, f"expected {what}")
        try:
            numeral(tokens[i])
        except ValueError:
            raise error(i, f"expected {what}, got {tokens[i]!r}") from None

    def as_terms(parts: list[int]) -> None:
        for i in parts:
            if tokens[i] == ")":
                raise error(i, "expected a term name")
            try:
                ids[tokens[i]]
            except KeyError:
                raise error(i, f"unknown term {tokens[i]!r}") from None

    def as_proofs(parts: list[int]) -> None:
        for i in parts:
            if tokens[i] != ")":
                raise error(i, "expected a sub-proof")

    def reduce(h: int, parts: list[int]) -> None:
        head = tokens[h]
        if head == "assume":
            if len(parts) != 1:
                raise error(h, "assume takes one hypothesis index")
            as_int(parts[0], "a hypothesis index")
        elif head == "subrefl":
            if not parts:
                raise error(h, "subrefl needs at least one term")
            as_terms(parts)
        elif head == "trans":
            if len(parts) != 2:
                raise error(h, "trans takes two sub-proofs")
            as_proofs(parts)
        elif head == "project":
            if len(parts) < 2:
                raise error(h, "project takes a sub-proof and at least one term")
            as_proofs(parts[:1])
            as_terms(parts[1:])
        elif head == "subst":
            if len(parts) != 4:
                raise error(
                    h, "subst takes a sub-proof, two terms, and an equality index"
                )
            as_proofs(parts[:1])
            as_terms(parts[1:3])
            as_int(parts[3], "an equality index")
        else:
            raise error(h, f"unknown proof constructor {head!r}")

    # Shift-reduce over the tokens; a frame is (h, parts), where h is the
    # index of its head, or of its '(' while it has no head yet.
    frames: list[tuple[int, list[int]]] = []
    done = False
    for i, tok in enumerate(tokens):
        if tok == "(":
            if frames and tokens[frames[-1][0]] == "(":
                raise error(i, "expected a proof constructor")
            frames.append((i, []))
        elif tok == ")":
            if not frames:
                raise error(i, "unbalanced ')'")
            h, parts = frames.pop()
            if tokens[h] == "(":
                raise error(h, "empty proof node")
            reduce(h, parts)
            if frames:
                frames[-1][1].append(i)
            elif not done:
                done = True
            else:
                raise error(i, "trailing input after proof")
        else:
            if not frames:
                raise error(i, "proof must start with '('")
            h, parts = frames[-1]
            if tokens[h] == "(":
                frames[-1] = (i, parts)
            else:
                parts.append(i)
    if frames:
        raise error(frames[-1][0], "unclosed '('")
    if not done:
        raise error(len(tokens), "empty proof")


class _BrokenLaw(Exception):
    """The message of a law broken at the node whose ')' `_judge` reads."""


def _judge(
    text: str,
    name_id: Callable[[str], int],
    laws: tuple | None,
    limit: int,
) -> ProofTerm | frozenset[int] | None:
    """Read proof `text` in one pass, or give up on it, returning None.

    With `laws` None it returns the proof term.  With `laws`, `check`'s
    (k, hypotheses, partition, equalities), it returns the judgment the
    proof establishes; the first broken law raises ProofCheckError at its
    node once the rest is read for shape, names and indices only.  It
    gives up on the text `parse_proof` refuses, and on a malformed log.
    `name_id` gives a term name's id, or raises KeyError or ValueError; an
    index is read by `int` and refused if longer than `limit`.

    A node's result, node or judgment, is worked out from its children's
    when its ')' is read.  The text is split at each '(', and a chunk
    holding a ')' is split again, into the node's opening stretch (its
    head and atoms) and the stretch after each ')' that closes in it.
    Only `project`, `subst` and the leaves split a stretch into atoms;
    elsewhere a stretch must be whitespace.
    """
    build, judging = laws is None, laws is not None
    if judging:
        k, hypotheses, partition, equalities = laws
        class_of = partition.__getitem__
        n_hyps, n_eqs = len(hypotheses), len(equalities)
    failure = None  # (path, message) of the first broken law
    # an open node is [the stretch after its '(', then per child: result,
    # the stretch after the child's ')'], so a valid node's length says its
    # shape, and an open node is reading its child (len(node) - 1) // 2
    stack: list[list] = []
    node: list | None = None
    done = False
    root = None
    chunks = text.split("(")
    if chunks[0].strip():
        return None  # text before the first '('
    for chunk in islice(chunks, 1, None):
        if node is not None:
            stack.append(node)
        elif done:
            return None  # trailing input
        if ")" not in chunk:
            node = [chunk]  # a node with sub-proofs opens
            continue
        stretches = chunk.split(")")
        node = [stretches[0]]
        for stretch in stretches[1:]:
            if node is None:
                return None  # unbalanced ')'
            size = len(node)
            try:
                if size == 5:  # two sub-proofs: trans
                    if node[0].strip() != "trans" or (node[2] + node[4]).strip():
                        return None
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
                            return None
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
                            return None
                        frm, to, e = name_id(atoms[0]), name_id(atoms[1]), int(atoms[2])
                        if len(atoms[2]) > limit:
                            return None
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
                        return None
                elif size == 1:  # a leaf: assume or subrefl
                    head = node[0].split()
                    kind = head[0] if head else None
                    if kind == "assume":
                        if len(head) != 2:
                            return None
                        i = int(head[1])
                        if len(head[1]) > limit:
                            return None
                        if not judging:
                            result = Assume(i) if build else None
                        elif 0 <= i < n_hyps:
                            result = frozenset(hypotheses[i])
                        else:
                            raise _BrokenLaw(f"hypothesis index {i} out of range")
                    elif kind == "subrefl":
                        if len(head) < 2:
                            return None
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
                        return None
                else:
                    return None
            except _BrokenLaw as broken:  # its traceback holds this frame
                path = [(len(f) - 1) // 2 for f in stack]
                failure, judging, result = (path, str(broken)), False, None
            except (KeyError, ValueError):
                return None  # an unknown term name, a malformed index or log
            if stack:
                node = stack.pop()
                node.append(result)
                node.append(stretch)
            elif stretch.strip():
                return None  # trailing input
            else:
                node, done, root = None, True, result
    if done and failure is not None:
        raise ProofCheckError(*failure)
    return root  # None if the text is unclosed or has no '('
