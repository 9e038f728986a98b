"""Permutations of {0..n-1} backed by numpy index arrays.

Composition is applied left to right: (a * b) means "apply a, then b",
so (a * b).images[i] == b.images[a.images[i]].  Points are 0-based in
code and 1-based in cycle notation, which is the only user-facing text
form.
"""

from __future__ import annotations

import re
from math import lcm
from typing import Sequence

import numpy as np

from .errors import DegreeMismatchError, NotAPermutationError, UsageError

_ARANGE: dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    arr = _ARANGE.get(n)
    if arr is None:
        arr = np.arange(n, dtype=np.intp)
        arr.setflags(write=False)
        _ARANGE[n] = arr
    return arr


def as_image_array(images) -> np.ndarray:
    """Validate an image sequence and return it as a read-only intp array."""
    arr = np.asarray(images, dtype=np.intp)
    if arr.ndim != 1 or arr.size < 1:
        raise NotAPermutationError("need a non-empty 1-d image sequence")
    n = arr.size
    seen = np.zeros(n, dtype=bool)
    if arr.min() < 0 or arr.max() >= n:
        raise NotAPermutationError("image out of range for degree %d" % n)
    seen[arr] = True
    if not seen.all():
        raise NotAPermutationError("images are not a bijection of {0..%d}" % (n - 1))
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def compose_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Raw-array composition, a first then b."""
    return b[a]


def invert_array(a: np.ndarray) -> np.ndarray:
    inv = np.empty(a.size, dtype=np.intp)
    inv[a] = _arange(a.size)
    return inv


def support_mask(a: np.ndarray) -> int:
    """The points a moves, as the set bits of an int (bit i is point i)."""
    moved = np.packbits(a != _arange(a.size), bitorder="little")
    return int.from_bytes(moved.tobytes(), "little")


def _classes(k: int, seeds: Sequence[np.ndarray], gens=()) -> np.ndarray:
    """Least point of each point's class in the finest partition of
    range(k) that joins x to s(x) for each seed s and that each gen
    permutes: root hooking both ways, then pointer jumping, to a fixpoint.
    With no gens the classes are the orbits of <seeds>, fixed points too.
    """
    label, prev = np.arange(k), None
    while not np.array_equal(label, prev):
        prev = label.copy()
        # x ~ label[x] always, so g(x) ~ g(label[x]) once g permutes classes
        for a, b in ([(_arange(k), s) for s in seeds]
                     + [(g, g[label]) for g in gens]):
            a, b = label[a], label[b]
            np.minimum.at(label, a, b)
            np.minimum.at(label, b, a)
        while not np.array_equal(label, label[label]):
            label = label[label]
    return label


class Permutation:
    """An immutable bijection of {0..n-1}."""

    __slots__ = ("images", "_hash")

    def __init__(self, images, _checked: bool = False):
        if _checked:
            self.images = images
        else:
            self.images = as_image_array(images)
        self._hash = None

    @staticmethod
    def _wrap(arr: np.ndarray) -> "Permutation":
        arr.setflags(write=False)
        return Permutation(arr, _checked=True)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise NotAPermutationError("degree must be at least 1")
        return cls._wrap(np.arange(degree, dtype=np.intp))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
        """Build a permutation from 0-based cycles."""
        arr = np.arange(degree, dtype=np.intp)
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                raise NotAPermutationError("repeated point in cycle %r" % (cycle,))
            for i, pt in enumerate(cycle):
                if not 0 <= pt < degree:
                    raise NotAPermutationError(
                        "point %d out of range for degree %d" % (pt, degree)
                    )
                arr[pt] = cycle[(i + 1) % len(cycle)]
        return cls._wrap(arr)

    @property
    def degree(self) -> int:
        return self.images.size

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.images.size != other.images.size:
            raise DegreeMismatchError(
                "cannot compose degree %d with degree %d"
                % (self.images.size, other.images.size)
            )
        return Permutation._wrap(other.images[self.images])

    def inverse(self) -> "Permutation":
        return Permutation._wrap(invert_array(self.images))

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def is_identity(self) -> bool:
        return bool((self.images == _arange(self.images.size)).all())

    def order(self) -> int:
        result = 1
        for cycle in self.cycles():
            result = lcm(result, len(cycle))
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images.size == other.images.size and bool(
            (self.images == other.images).all()
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.images.tobytes())
        return self._hash

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its smallest point."""
        seen = [False] * self.images.size
        out = []
        img = self.images
        for start in range(img.size):
            if seen[start] or img[start] == start:
                seen[start] = True
                continue
            cycle = [start]
            seen[start] = True
            pt = int(img[start])
            while pt != start:
                cycle.append(pt)
                seen[pt] = True
                pt = int(img[pt])
            out.append(tuple(cycle))
        return out

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join(
            "(" + " ".join(str(pt + 1) for pt in cycle) + ")" for cycle in cycles
        )

    def __repr__(self) -> str:
        return "Permutation[%d] %s" % (self.degree, self)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse 1-based cycle notation such as "(1 2 3)(4 5)".

    The identity is written "()".  Points may be separated by spaces or
    commas.  If degree is omitted, the largest point mentioned sets it.
    """
    stripped = text.strip()
    if not stripped:
        raise UsageError("empty permutation text")
    leftover = _CYCLE_RE.sub("", stripped).strip()
    if leftover:
        raise UsageError("unparsable permutation text %r" % text)
    cycles = []
    max_point = 0
    for body in _CYCLE_RE.findall(stripped):
        body = body.strip()
        if not body:
            continue
        try:
            points = [int(tok) for tok in re.split(r"[,\s]+", body)]
        except ValueError:
            raise UsageError("bad cycle %r in %r" % (body, text)) from None
        if any(pt < 1 for pt in points):
            raise UsageError("cycle points are 1-based in %r" % text)
        max_point = max(max_point, max(points))
        cycles.append(tuple(pt - 1 for pt in points))
    if degree is None:
        degree = max(max_point, 1)
    elif max_point > degree:
        raise UsageError(
            "cycle mentions point %d beyond degree %d" % (max_point, degree)
        )
    return Permutation.from_cycles(cycles, degree)

