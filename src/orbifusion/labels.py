"""Label space of the irreducible modules of the Z3-orbifold affine sl2 VOA.

For a fixed positive integer level ``k`` the orbifold algebra has exactly
``9*(k+1)`` irreducible modules.  Each one is named by a triple
``(sector, i, j)`` where

* ``sector`` records the origin of the module: untwisted (``U``),
  sigma-twisted (``T1``) or sigma^2-twisted (``T2``),
* ``i`` with ``0 <= i <= k`` is the affine weight index, and
* ``j`` in ``{0, 1, 2}`` indexes the Z3-eigenspace.

Nothing in this module knows about weights or fusion; labels are pure names
plus their validity invariants.
"""

from __future__ import annotations

import enum
import re
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "Sector",
    "IrrLabel",
    "LabelSyntaxError",
    "check_level",
    "check_label",
    "check_index",
    "make_label",
    "vacuum",
    "enumerate_irreducibles",
    "parse_label",
    "FusionVector",
]

class Sector(enum.IntEnum):
    """Origin sector of a module; the integer value is its Z/3 grade."""

    U = 0
    T1 = 1
    T2 = 2

    @property
    def tag(self) -> str:
        """Lowercase token used in the textual label grammar."""
        return _TAGS[self]


# Tag and name of each sector, indexed by its value: a tuple lookup is
# cheaper than the ``tag`` property or the Enum ``name`` descriptor.
_TAGS = ("u", "t1", "t2")
_NAMES = tuple(sector.name for sector in Sector)
_TAG_SECTORS = {tag: sector for sector, tag in zip(Sector, _TAGS)}


def check_level(k: int) -> int:
    """Validate a level, returning it unchanged.

    Raises ``ValueError`` unless ``k`` is an integer with ``k >= 1``.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"level must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    return k


def check_index(i: int, k: int) -> None:
    """Raise ``ValueError`` unless ``i`` is a weight index at level ``k``.

    ``k`` must pass :func:`check_level`, and ``i`` must be an int (not a
    bool) with ``0 <= i <= k``.
    """
    check_level(k)
    if type(i) is not int:
        raise ValueError(f"weight index must be an int, got {i!r}")
    _check_range(i, k)


def _check_range(i: int, k: int) -> None:
    """The one ``0 <= i <= k`` check, for an int ``i`` at a valid level ``k``."""
    if not 0 <= i <= k:
        raise ValueError(f"i out of range: {i} not in 0..{k}")


class IrrLabel(NamedTuple):
    """Name of one irreducible module: ``(sector, i, j)``.

    Immutable; compares and sorts by ``(sector, i, j)``, which is the
    canonical catalog order (sector major, then ``i``, then ``j``).
    Construct through :func:`make_label` to get range checking.
    """

    sector: Sector
    i: int
    j: int

    def token(self) -> str:
        """Canonical machine-readable form, e.g. ``t1:0:2``."""
        sector, i, j = self
        return f"{_TAGS[sector]}:{i}:{j}"

    def pretty(self, k: int) -> str:
        """Display form, e.g. ``L(3,0)^{T1,2}`` or ``L(3,1)^2``."""
        sector, i, j = self
        if sector is Sector.U:
            return f"L({k},{i})^{j}"
        return f"L({k},{i})^{{{_NAMES[sector]},{j}}}"

    def __repr__(self) -> str:
        sector, i, j = self
        return f"IrrLabel({_NAMES[sector]}, {i}, {j})"


def check_label(label: IrrLabel, k: int) -> None:
    """Raise ``ValueError`` unless ``label`` is a well-formed label at level ``k``.

    ``k`` must pass :func:`check_level`, and ``label`` must be an
    :class:`IrrLabel` holding a :class:`Sector`, an int ``0 <= i <= k`` and
    an int ``j`` in ``{0, 1, 2}``; nothing is reduced.  A valid label costs
    one inline test of all of that, with no further call.  When the test
    fails, :func:`check_level` and then the field checks run, so the error
    and its message are theirs; an :class:`IrrLabel` subclass with valid
    fields passes them.
    """
    if type(label) is IrrLabel and type(k) is int:
        sector, i, j = label
        if type(sector) is Sector and type(i) is int and type(j) is int and 1 <= k and 0 <= i <= k and 0 <= j <= 2:
            return
    check_level(k)
    _, i, j = _typed_fields(label)
    _check_range(i, k)
    if not 0 <= j <= 2:
        raise ValueError(f"j out of range: {j} not in 0..2")


def _typed_fields(label: IrrLabel) -> IrrLabel:
    """``label`` itself once it is an :class:`IrrLabel` holding a :class:`Sector`, an int ``i`` and an int ``j``."""
    if not isinstance(label, IrrLabel):
        raise ValueError(f"not an irreducible label: {label!r}")
    sector, i, j = label
    if type(sector) is not Sector or type(i) is not int or type(j) is not int:
        raise ValueError(f"not an irreducible label: {tuple(label)!r}")
    return label


def make_label(sector: Sector, i: int, j: int, k: int) -> IrrLabel:
    """Build a validated label at level ``k``; ``j`` is reduced modulo 3.

    An int ``j`` is reduced first; everything else is checked by
    :func:`check_label`, so an int or bool ``sector`` is refused, not
    converted, and so is an ``i`` or ``j`` that is not an int.
    """
    label = IrrLabel(sector, i, j % 3 if type(j) is int else j)
    check_label(label, k)
    return label


def vacuum(k: int) -> IrrLabel:
    """The vacuum label ``u:0:0``, the unit of the fusion ring."""
    return make_label(Sector.U, 0, 0, k)


def enumerate_irreducibles(k: int) -> list[IrrLabel]:
    """All ``9*(k+1)`` labels at level ``k`` in canonical order."""
    check_level(k)
    return [
        IrrLabel(sector, i, j)
        for sector in Sector
        for i in range(k + 1)
        for j in range(3)
    ]


class LabelSyntaxError(ValueError):
    """Malformed label text; ``position`` is the offending 0-based offset."""

    def __init__(self, text: str, position: int, message: str):
        self.text = text
        self.position = position
        self._message = message
        super().__init__(f"bad label {text!r}: {message} at position {position}")

    def __reduce__(self):
        # ``args`` holds only the formatted message, so rebuild from the three fields
        return type(self), (self.text, self.position, self._message), self.__dict__


# One pattern both parses a label and, when it stops short, says where.
# Each group can match only after the one before it, so the last group
# matched (``lastindex``: tag, ':', i, ':', j) tells what was expected at
# ``end()``.  A number is ``0`` or starts with 1-9: ``0`` followed by a digit
# matches nothing, so a leading zero stops the match just before it.  Digits
# are ``[0-9]``, not ``\d``, which also matches superscripts and other scripts.
_LABEL = re.compile(r"(?:(t1|t2|u)(?:(:)(?:(0(?![0-9])|[1-9][0-9]*)(?:(:)(0(?![0-9])|[1-9][0-9]*)?)?)?)?)?")
_EXPECTED = {
    None: "expected sector tag 'u', 't1' or 't2'",
    1: "expected ':'",
    2: "expected a decimal integer",
    3: "expected ':'",
    4: "expected a decimal integer",
}


def parse_label(text: str, k: int) -> IrrLabel:
    """Parse ``u:<i>:<j>`` / ``t1:<i>:<j>`` / ``t2:<i>:<j>`` at level ``k``.

    The grammar is strict: lowercase sector tag, two colon-separated ASCII
    decimal integers without leading zeros (``0`` itself is fine), no
    whitespace, so every accepted text is the label's own
    :meth:`IrrLabel.token`.  Syntax problems raise :class:`LabelSyntaxError`
    with the offending position; for a leading zero that is the position of
    the zero.  Out-of-range indices raise ``ValueError``: ``j`` must be 0, 1
    or 2 as written (it is not reduced modulo 3, unlike in
    :func:`make_label`), and then the label must pass :func:`check_label`
    at ``k``.  A ``text`` that is not a string is a syntax error at
    position 0.

    The label read from a text does not depend on ``k``, so for an exact
    ``str`` it is memoised per text, 1024 texts at most; only successes are
    kept, so a malformed text is read again on every call.  The check
    against ``k`` runs on every call, hit or miss.
    """
    label = _read_label(text) if type(text) is str else _read_label.__wrapped__(text)
    check_label(label, k)
    return label


@lru_cache(maxsize=1024)
def _read_label(text: str) -> IrrLabel:
    """The label spelt by ``text``, without the level check: :func:`parse_label`'s syntax and ``j`` checks."""
    if not isinstance(text, str):
        raise LabelSyntaxError(text, 0, "expected a string")
    match = _LABEL.match(text)
    end, last = match.end(), match.lastindex
    if last == 5:
        if end < len(text):
            raise LabelSyntaxError(text, end, f"unexpected trailing text {text[end:]!r}")
        j = int(match[5])
        if j > 2:
            raise ValueError(f"j out of range: {j} not in 0..2")
        # the grammar fixes the sector and makes i and j non-negative ints, so nothing is reduced
        return tuple.__new__(IrrLabel, (_TAG_SECTORS[match[1]], int(match[3]), j))
    if last in (2, 4) and text.startswith("0", end):
        raise LabelSyntaxError(text, end, "unexpected leading zero")
    raise LabelSyntaxError(text, end, _EXPECTED[last])


class FusionVector:
    """Finitely supported map ``IrrLabel -> positive multiplicity``.

    An immutable value backed by one tuple of ``(label, multiplicity)``
    pairs in canonical label order, with no zero entries, so equality is
    structural and the hash is that of the tuple.  Every assignment to an
    instance is refused, so a vector can be shared: :func:`fuse_irreducible`
    hands out one vector per distinct product of a level.  The hash is
    computed when the vector is built and kept in a slot, so hashing a
    vector reads one slot.  Each key must be an :class:`IrrLabel` holding a
    :class:`Sector`, an int ``i >= 0`` and an int ``j`` in ``{0, 1, 2}``; a
    vector has no level, so ``i <= k`` is left to the functions that take
    one.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, entries: Mapping[IrrLabel, int] | Iterable[tuple[IrrLabel, int]] = ()):
        try:
            items = iter(entries.items() if isinstance(entries, Mapping) else entries)
        except TypeError:
            raise ValueError(f"not a mapping or iterable of (label, multiplicity) pairs: {entries!r}") from None
        store: dict[IrrLabel, int] = {}
        for entry in items:
            try:
                label, mult = entry
            except (TypeError, ValueError):
                raise ValueError(f"not a (label, multiplicity) pair: {entry!r}") from None
            _check_key(label)
            if type(mult) is not int:
                raise ValueError(f"multiplicity must be an int, got {mult!r} for {label.token()}")
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {label.token()}")
            if mult:
                store[label] = store.get(label, 0) + mult
        items = tuple(sorted(store.items()))
        _set_items(self, items)
        _set_hash(self, hash(items))

    @classmethod
    def _from_canonical(cls, items: tuple[tuple[IrrLabel, int], ...]) -> "FusionVector":
        """Trusted constructor for the fusion formulas: wraps ``items`` as it is.

        ``items`` must be a tuple of ``(label, multiplicity)`` pairs with
        distinct labels in canonical order and positive multiplicities; it is
        neither checked nor copied.
        """
        vector = cls.__new__(cls)
        _set_items(vector, items)
        _set_hash(vector, hash(items))
        return vector

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FusionVector is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"FusionVector is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return FusionVector, (self._items,)

    def coefficient(self, label: IrrLabel) -> int:
        """Multiplicity of ``label``; 0 when absent.

        ``label`` must pass the check every key passes, so a non-label
        (a string, ``None``, a plain tuple) raises ``ValueError``.
        """
        _check_key(label)
        for lab, mult in self._items:
            if lab == label:
                return mult
        return 0

    def items(self) -> Iterator[tuple[IrrLabel, int]]:
        """Entries in canonical label order."""
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FusionVector):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[IrrLabel]:
        return iter([lab for lab, _ in self._items])

    def __repr__(self) -> str:
        body = ", ".join(f"{lab.token()}: {m}" for lab, m in self._items)
        return f"FusionVector({{{body}}})"


def _check_key(label: IrrLabel) -> None:
    """The level-free label check of a vector's keys: :func:`check_label` without ``i <= k``."""
    _, i, j = _typed_fields(label)
    if i < 0 or not 0 <= j <= 2:
        raise ValueError(f"not an irreducible label: {tuple(label)!r}")


# The slots' own setters, which bypass the refusing ``__setattr__``.
_set_items = FusionVector._items.__set__
_set_hash = FusionVector._hash.__set__
