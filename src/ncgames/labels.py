"""Node labels.

A node is identified by one of three label kinds: an opaque atom, a
finite sequence of choice tokens, or a finite set of choice tokens.
The structured kinds let a game's nodes literally be the choice
histories that lead to them; sequence labels keep the order, set labels
keep only membership.  Equality is structural, and set labels ignore
the order and multiplicity of the tokens they were built from.

Labels key every map of every layer, so each label computes its hash
once, at construction, and keeps it in a slot.  The value is the one a
generated dataclass hash gives (the hash of the one-field tuple), so
sets and dicts of labels iterate in the same order.  Copying and
pickling rebuild a label through its constructor, so a loaded label
hashes under the loading process's hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Collection, Hashable, Iterable, Union

__all__ = [
    "Atom",
    "Seq",
    "SetLabel",
    "NodeLabel",
    "token_key",
    "label_key",
    "ranked_label_key",
    "render_token",
    "render_label",
]

#: Choice and player identifiers are opaque hashable tokens, strings in
#: documents.
Token = Hashable


@dataclass(frozen=True, init=False)
class Atom:
    """An unconstrained node label."""

    __slots__ = ("token", "_hash")
    token: Any

    def __init__(self, token: Any):
        _set_token(self, token)
        _set_atom_hash(self, hash((token,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Atom, (self.token,)


# the slots' own setters, past the frozen ``__setattr__``: a document's
# node list builds an atom per node
_set_token, _set_atom_hash = Atom.token.__set__, Atom._hash.__set__


@dataclass(frozen=True, init=False)
class Seq:
    """A node label that is a sequence of choice tokens."""

    __slots__ = ("choices", "_hash")
    choices: tuple

    def __init__(self, choices: Iterable = ()):
        choices = tuple(choices)
        object.__setattr__(self, "choices", choices)
        object.__setattr__(self, "_hash", hash((choices,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Seq, (self.choices,)


@dataclass(frozen=True, init=False)
class SetLabel:
    """A node label that is a finite set of choice tokens."""

    __slots__ = ("choices", "_hash")
    choices: frozenset

    def __init__(self, choices: Iterable = frozenset()):
        choices = frozenset(choices)
        object.__setattr__(self, "choices", choices)
        object.__setattr__(self, "_hash", hash((choices,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return SetLabel, (self.choices,)


NodeLabel = Union[Atom, Seq, SetLabel]


def token_key(token: Token) -> tuple:
    """Deterministic sort key for opaque tokens of mixed types."""
    return (type(token).__qualname__, str(token))


def label_key(label: NodeLabel) -> tuple:
    """Deterministic sort key for node labels of mixed kinds."""
    if isinstance(label, Atom):
        return (0, token_key(label.token))
    if isinstance(label, Seq):
        return (1, tuple(token_key(c) for c in label.choices))
    if isinstance(label, SetLabel):
        return (2, tuple(sorted(token_key(c) for c in label.choices)))
    raise TypeError(f"not a node label: {label!r}")


def _equal_tokens_share_a_key(cls: type) -> bool:
    """Whether two equal tokens, one of class ``cls``, always have the
    same ``token_key``: true for exact text and integers (equal ones
    have one class and one text) and for classes that compare by
    identity; false for ``bool`` (``True == 1``), ``float``
    (``0.0 == -0.0``) and any class with its own equality."""
    return cls is str or cls is int or cls.__eq__ is object.__eq__


def ranked_label_key(nodes: Collection[NodeLabel]) -> Callable[[NodeLabel], tuple]:
    """A sort key that orders ``nodes`` exactly as ``label_key`` does, ties
    included.

    The distinct tokens are ranked once, densely in ``token_key`` order
    (tokens with equal keys share a rank), and each label is keyed by
    its kind and its tokens' ranks, sorted for a set label.  A tree of
    choice histories then costs one ``token_key`` call per distinct
    token, not one per token of every label.  Tokens are told apart by
    equality here, so this holds only when equal tokens have equal
    keys.  For atoms alone the key is the token itself when every token
    is exactly text, whose ``label_key`` is ``(0, ("str", token))``, and
    otherwise ``label_key``, as it is when some token's class does not
    promise equal keys for equal tokens.
    """
    structured = [t for t in nodes if not isinstance(t, Atom)]
    if not structured:
        if all(type(t.token) is str for t in nodes):
            return attrgetter("token")
        return label_key
    tokens = {t.token for t in nodes if isinstance(t, Atom)}
    classes = set(map(type, tokens))
    for t in structured:
        if not isinstance(t, (Seq, SetLabel)):
            raise TypeError(f"not a node label: {t!r}")
        tokens.update(t.choices)
        classes.update(map(type, t.choices))
    if not all(map(_equal_tokens_share_a_key, classes)):
        return label_key
    keys = {c: token_key(c) for c in tokens}
    dense = {k: r for r, k in enumerate(sorted(set(keys.values())))}
    rank = {c: dense[k] for c, k in keys.items()}.__getitem__

    def key(label: NodeLabel) -> tuple:
        if isinstance(label, Seq):
            return (1, tuple(map(rank, label.choices)))
        if isinstance(label, SetLabel):
            return (2, tuple(sorted(map(rank, label.choices))))
        return (0, rank(label.token))

    return key


def render_token(token: Token) -> str:
    return str(token)


def render_label(label: NodeLabel) -> str:
    """Compact single-line rendering used by reports and error messages."""
    if isinstance(label, Atom):
        return render_token(label.token)
    if isinstance(label, Seq):
        return "(" + ",".join(render_token(c) for c in label.choices) + ")"
    if isinstance(label, SetLabel):
        return "{" + ",".join(sorted((render_token(c) for c in label.choices))) + "}"
    raise TypeError(f"not a node label: {label!r}")
