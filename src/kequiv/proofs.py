"""Proof text for joint-relatedness facts, and an independent checker.

A proof concludes a *judgment*: a finite, nonempty set of terms asserted to
be jointly related (every (k+1)-subset of the judgment satisfies the
relation).  The checker validates proofs purely against the hypothesis log,
the arity parameter k, the distinctness partition, and the equality log; it
shares no state with the engine that produced the proof, so it can be used
to audit the engine's answers.

A proof is text, in one canonical form:

    (assume N)
    (subrefl t1 ... tm)
    (trans P Q)
    (project P t1 ... tm)
    (subst P a b N)

where terms are rendered by name and N is a log index.  The engine's one
proof walk writes a proof's text as a list of string pieces, which
`format_proof` joins.

One pass reads proof text: `check` judges with it, so it is the only code
that applies the laws, and `parse_proof` reads with it for syntax only.
The pass runs no regular expression: it splits the text at each '(' and
then at each ')' into the stretches between parentheses, and only
`project`, `subst` and the leaves split a stretch into atoms.  After a
broken law it reads the rest for syntax only, as a later syntax error
wins.  It is also the only reader of malformed text: it raises the first
ProofSyntaxError in the text, and works out its column only then, from
where in the split text the error stands.

`checker` binds the pass to one log and gives it two tables, kept across
the texts it judges: a leaf's opening stretch (`assume 17`) to its
judgment, and a `subst` node's atom stretch (` a b 3`) to its validated
(from, to) pair.  A stretch is stored once its node has passed every
syntax check and law, and looked up only while no law is broken in the
text, so a leaf or step met again is not read again and every error is
raised as without the tables.  The bound log must not change while the
judge is in use.

An index in proof text is refused if longer than `numeral` allows, so
it means the same under any limit Python sets on the digits `int`
converts (PYTHONINTMAXSTRDIGITS).
"""

from __future__ import annotations

from itertools import accumulate, islice, repeat
from operator import sub
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "ProofCheckError",
    "ProofSyntaxError",
    "check",
    "checker",
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


class ProofSyntaxError(ValueError):
    """Malformed proof text; `column` is 1-based."""

    def __init__(self, column: int, message: str):
        self.column = column
        super().__init__(f"col {column}: {message}")


def checker(
    k: int,
    hypotheses: Sequence[Sequence[int]],
    partition: Mapping[int, int] | None = None,
    equalities: Sequence[tuple[int, int]] = (),
    *,
    ids: Mapping[str, int],
) -> Callable[[str], frozenset[int]]:
    """A judge bound to one log: it takes proof text and returns what
    `check` with these arguments returns, or raises what it raises.

    The judge keeps two tables for as long as it lives.  One maps a
    leaf's opening stretch (``assume 17``, ``subrefl a b``) to its
    judgment, so each hypothesis is frozen when a leaf first cites it;
    the other maps the atom stretch of a ``subst`` node (`` a b 3``) to
    its validated (from, to) pair.  An entry is stored once its node has
    passed every syntax check and law, and is read only until a law is
    broken in the text being judged, so a later node with the same
    stretch skips reading its atoms and its law, and every error is the
    one `check` raises.  The tables hold for the bound log alone:
    `hypotheses`, `partition`, `equalities` and `ids` must not change
    while the judge is in use.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if partition is None:
        partition = {}  # every term a class of its own
    laws = (k, hypotheses, partition, equalities, {}, {})
    name_id = ids.__getitem__

    def judge(proof: str) -> frozenset[int]:
        return _judge(proof, name_id, laws)

    return judge


def check(
    proof: str,
    k: int,
    hypotheses: Sequence[Sequence[int]],
    partition: Mapping[int, int] | None = None,
    equalities: Sequence[tuple[int, int]] = (),
    *,
    ids: Mapping[str, int],
) -> frozenset[int]:
    """Check proof text and return the judgment (term set) it establishes.

    `ids` maps the text's term names to ids.  The text is judged in one
    pass, by a fresh `checker` judge, so a leaf or ``subst`` step that
    recurs in the text is judged once.  Malformed text raises the first
    ProofSyntaxError in it, even if a law is broken before it.  A
    malformed log entry that a node cites raises ValueError, unless a
    law is broken first.

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
    return checker(k, hypotheses, partition, equalities, ids=ids)(proof)


def used_hypotheses(text: str) -> frozenset[int]:
    """The indices N of the `(assume N)` leaves of proof `text`.

    The text is split as `check` splits it: at each '(', then at
    whitespace, as `str.split` reads it.  It must be well formed, as
    `parse_proof` accepts it.
    """
    out = set()
    for chunk in islice(text.split("("), 1, None):
        head = chunk.partition(")")[0].split()
        if len(head) == 2 and head[0] == "assume":
            out.add(int(head[1]))
    return frozenset(out)


def format_proof(pieces: Iterable[str], names: Sequence[str]) -> str:
    """The canonical text of the proof that an engine query returned.

    `pieces` is the proof's text pieces, every term already named, so
    they are only joined; `names`, the term names of the session that
    answered, is not read.
    """
    return "".join(pieces)


def parse_proof(text: str, ids: Mapping[str, int]) -> str:
    """Read proof text for syntax only, and return it.

    `ids` maps term names to ids.  Malformed text, an unknown name
    included, raises the first ProofSyntaxError in it, as `check` does.
    """
    _judge(text, ids.__getitem__, None)
    return text


class _BrokenLaw(Exception):
    """The message of a law broken at the node whose ')' `_judge` reads."""


def _judge(
    text: str,
    name_id: Callable[[str], int],
    laws: tuple | None,
) -> frozenset[int] | None:
    """Read proof `text` in one pass.

    With `laws` None it reads for syntax only, and returns None.  With
    `laws`, `checker`'s (k, hypotheses, partition, equalities, leaves,
    steps), it returns the judgment the proof establishes; the first
    broken law raises ProofCheckError at its node once the rest is read
    for shape, names and indices only.  A malformed log (hypotheses,
    partition or equalities) raises ValueError in its place, if it comes
    first.  Malformed text raises the first ProofSyntaxError in the text,
    before any of these.  `name_id` gives a term name's id, or raises
    KeyError or ValueError; an index is read by `int` and refused if
    longer than `_NUMERAL_MAX`.

    A node's judgment is worked out from its children's when its ')' is
    read.  The text is split at each '(', and a chunk holding a ')' is
    split again, into the node's opening stretch (its head and atoms) and
    the stretch after each ')' that closes in it.  Only `project`, `subst`
    and the leaves split a stretch into atoms; elsewhere a stretch must be
    whitespace.  While no law is broken, a leaf whose opening stretch is
    in `leaves`, or a ``subst`` node whose atom stretch is in `steps`,
    takes what the table holds for it without reading the stretch, and
    a node that passes stores it there.  Where a syntax error is
    found, its column is worked out only to raise it (see `_refusal`).
    """
    judging = laws is not None
    if judging:
        k, hypotheses, partition, equalities, leaves, steps = laws
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
    # the judgment of the node that last closed, which stays None when
    # reading for syntax only
    result = root = None
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
                    if judging:
                        x, y = node[1], node[3]
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
                elif size == 3:  # one sub-proof: project or subst
                    kind = node[0].strip()
                    if kind == "project":
                        atoms = node[2].split()
                        if not atoms:
                            raise ValueError  # a malformed node
                        terms = frozenset(map(name_id, atoms))
                        if judging:
                            if not terms <= node[1]:
                                raise _BrokenLaw(
                                    "projection target is not a subset of the "
                                    "conclusion"
                                )
                            result = terms
                    elif kind == "subst":
                        if judging and node[2] in steps:  # judged before
                            frm, to = steps[node[2]]
                        else:
                            # three atoms, or a malformed node
                            frm, to, e = node[2].split()
                            if len(e) > _NUMERAL_MAX:
                                raise ValueError  # a malformed node
                            frm, to, e = name_id(frm), name_id(to), int(e)
                            if judging:
                                if not 0 <= e < n_eqs:
                                    raise _BrokenLaw(f"equality index {e} out of range")
                                a, b = equalities[e]
                                if not (frm == a and to == b or frm == b and to == a):
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
                                steps[node[2]] = frm, to
                        if judging:
                            result = node[1]
                            if frm in result:
                                result = (result - {frm}) | {to}
                    else:
                        raise ValueError  # a malformed node
                elif size == 1:  # a leaf: assume or subrefl
                    if judging and node[0] in leaves:  # judged before
                        result = leaves[node[0]]
                    else:
                        head = node[0].split()
                        kind = head[0] if head else None
                        if kind == "assume":
                            _, i = head  # one index, or a malformed node
                            if len(i) > _NUMERAL_MAX:
                                raise ValueError  # a malformed node
                            i = int(i)
                            if judging:
                                if not 0 <= i < n_hyps:
                                    raise _BrokenLaw(
                                        f"hypothesis index {i} out of range"
                                    )
                                result = leaves[node[0]] = frozenset(hypotheses[i])
                        elif kind == "subrefl":
                            if len(head) < 2:
                                raise ValueError  # a malformed node
                            terms = frozenset(map(name_id, head[1:]))
                            if judging:
                                if len(terms) > k:
                                    raise _BrokenLaw(
                                        f"sub-reflexivity allows at most {k} terms, "
                                        f"got {len(terms)}"
                                    )
                                result = leaves[node[0]] = terms
                        else:
                            raise ValueError  # a malformed node
                else:
                    raise ValueError  # a malformed node
            except _BrokenLaw as broken:  # its traceback holds this frame
                path = [(len(f) - 1) // 2 for f in stack]
                failure = ProofCheckError, path, str(broken)
                judging, result = False, None
            except (KeyError, ValueError, TypeError):
                # the node's syntax error, or, if it has none, a malformed
                # log entry it cites (a wrong type raises TypeError)
                fault = _fault(node, name_id)
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


def _fault(node: list, name_id: Callable[[str], int]) -> tuple | None:
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
        if kind not in (_PROOF, _TERM) and not _reads(numeral, atom):
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
