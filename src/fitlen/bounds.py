"""Covers of the prime set, the bound formulas, and the aggregate check.

A cover is a set of at least three subsets of pi(G) whose pairwise
unions all equal pi(G); equivalently, the complements of its members
are pairwise disjoint, which is what the enumerator walks over.  The
weight of a cover is the sum of the Fitting lengths of the matching
Hall subgroups, and every bound evaluated here is an exact rational
compared by integer cross-multiplication, never by rounding.  Each
bound reads the Hall Fitting lengths it needs from the group's profile
when it needs them, so no Hall subgroup is profiled that no bound reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .construct import ConstructedGroup
from .errors import UsageError
from .hall import HallProfile, frak_h, hall_derived_length

PrimeSet = tuple[int, ...]

# Largest ground set (number of primes) whose covers are enumerated.
COVER_GROUND_LIMIT = 6


def _canon(subset: Iterable[int]) -> PrimeSet:
    return tuple(sorted(set(subset)))


@dataclass(frozen=True)
class Cover:
    """A family of prime subsets with all pairwise unions equal to the ground."""

    members: tuple[PrimeSet, ...]
    ground: PrimeSet

    @property
    def order_t(self) -> int:
        return len(self.members)

    @property
    def degenerate(self) -> bool:
        return self.ground in self.members

    def __str__(self) -> str:
        return "{" + " | ".join(
            ",".join(str(p) for p in m) if m else "-" for m in self.members) + "}"


def is_cover(subsets: Sequence[Iterable[int]], ground: Iterable[int]):
    """(valid, degenerate) for a candidate family.

    Duplicates collapse because a cover is a set of subsets; if fewer
    than three distinct members remain, the family is not a cover.
    """
    ground_set = _canon(ground)
    members = sorted({_canon(s) for s in subsets})
    for m in members:
        if not set(m) <= set(ground_set):
            raise UsageError("cover member %r is not a subset of %r"
                             % (m, ground_set))
    if len(members) < 3:
        return False, False
    for a, b in combinations(members, 2):
        if _canon(set(a) | set(b)) != ground_set:
            return False, False
    return True, ground_set in members


def make_cover(subsets: Sequence[Iterable[int]], ground: Iterable[int]) -> Cover:
    ok, _ = is_cover(subsets, ground)
    if not ok:
        raise UsageError("not a cover of %r: %r" % (ground, subsets))
    return Cover(tuple(sorted({_canon(s) for s in subsets})), _canon(ground))


def enumerate_covers(ground: Iterable[int], t: int,
                     include_degenerate: bool = True) -> list[Cover]:
    """All covers of the given order, each family emitted exactly once.

    Members correspond to pairwise-disjoint complements, so the walk
    chooses disjoint nonempty complement masks in increasing order; the
    degenerate variants additionally contain the ground set itself
    (empty complement).
    """
    ground_t = _canon(ground)
    w = len(ground_t)
    if t < 3:
        raise UsageError("a cover needs order at least 3, got %d" % t)
    if w > COVER_GROUND_LIMIT:
        raise UsageError(
            "cover enumeration capped at ground sets of size %d"
            % COVER_GROUND_LIMIT)
    if w == 0:
        return []
    masks = list(range(1, 1 << w))
    families: list[tuple[int, ...]] = []

    def walk(start: int, used: int, picked: list[int], want: int) -> None:
        if want == 0:
            families.append(tuple(picked))
            return
        for i in range(start, len(masks)):
            m = masks[i]
            if m & used:
                continue
            picked.append(m)
            walk(i + 1, used | m, picked, want - 1)
            picked.pop()

    covers = []

    def mask_to_member(mask: int) -> PrimeSet:
        # the member is the complement of the chosen mask
        return tuple(p for i, p in enumerate(ground_t) if not mask & (1 << i))

    walk(0, 0, [], t)
    for fam in families:
        covers.append(Cover(tuple(sorted(mask_to_member(m) for m in fam)),
                            ground_t))
    if include_degenerate:
        families.clear()
        walk(0, 0, [], t - 1)
        for fam in families:
            members = sorted(mask_to_member(m) for m in fam) + [ground_t]
            covers.append(Cover(tuple(sorted(members)), ground_t))
    covers.sort(key=lambda c: c.members)
    return covers


def weight(cover: Cover, profile: HallProfile) -> int:
    """Theta: the sum of h(G_rho) over the cover members."""
    return sum(profile.h(m) for m in cover.members)


# -- bound formulas ----------------------------------------------------------

def cover_bound(theta: int, t: int) -> Fraction:
    """(Theta - 2) / (t - 2), the cover-weight bound on h(G)."""
    if t < 3:
        raise UsageError("cover bound needs order at least 3")
    return Fraction(theta - 2, t - 2)


def triple_bound(h_sigma: int, h_tau: int, h_upsilon: int) -> int:
    """h(G_sigma) + h(G_tau) + h(G_upsilon) - 2 for a pairwise-covering triple."""
    return h_sigma + h_tau + h_upsilon - 2


def covering_triple_bound(profile: HallProfile, sigma, tau, upsilon) -> Optional[int]:
    """The three-subset bound, or None when a pairwise union misses a prime.

    The hypothesis check treats "not applicable" as distinct from any
    failure: callers get None rather than an exception.
    """
    ground = set(profile.primes)
    parts = [_canon(sigma), _canon(tau), _canon(upsilon)]
    for a, b in combinations(parts, 2):
        if set(a) | set(b) != ground:
            return None
    return triple_bound(*(profile.h(s) for s in parts))


def top_two_bound(complement_values: Sequence[int]) -> int:
    """Largest two of the h(G_{p'}) values, summed, minus one.

    Realizes the existential two-complement bound; only meaningful when
    at least four primes divide the order.
    """
    if len(complement_values) < 4:
        raise UsageError("top-two bound needs at least four primes")
    top = sorted(complement_values, reverse=True)
    return top[0] + top[1] - 1


def ell_step_bound(prev_level_max: int, ell: int) -> Fraction:
    """(ell * prev - 2) / (ell - 2): bound on the next size-graded maximum."""
    if ell < 3:
        raise UsageError("step bound needs subset size at least 3")
    return Fraction(ell * prev_level_max - 2, ell - 2)


def quadratic_bound(frak2: int, w: int) -> int:
    """w(w-1)/2 * (frak2 - 1) + 1, from iterating the step bound down to pairs."""
    if w < 3:
        raise UsageError("quadratic bound needs at least three primes")
    return w * (w - 1) // 2 * (frak2 - 1) + 1


def product_bound(s: int, r: int) -> int:
    """s * (r + 1): the older two-complements-and-a-pair bound."""
    if s < 0 or r < 0:
        raise UsageError("bound inputs must be non-negative")
    return s * (r + 1)


def two_factor_bound(h_a: int, h_b: int, d_b: int) -> int:
    """h(A) + h(B) + 4 d(B) - 1 for a Hall factorization G = AB."""
    if min(h_a, h_b, d_b) < 0:
        raise UsageError("bound inputs must be non-negative")
    return h_a + h_b + 4 * d_b - 1


def lambda_inequality_holds(w: int, lam: int) -> bool:
    """w*lam - 4 <= 2 (w-2) (lam-1), the arithmetic step in the top-two proof."""
    return w * lam - 4 <= 2 * (w - 2) * (lam - 1)


def lambda_sweep_ok(w_range=range(4, 17), lam_range=range(4, 65)) -> bool:
    return all(lambda_inequality_holds(w, lam)
               for w in w_range for lam in lam_range)


# -- the aggregate report ----------------------------------------------------

PASS = "pass"
VIOLATION = "VIOLATION"
NOT_APPLICABLE = "n/a"


@dataclass(frozen=True)
class BoundEntry:
    name: str
    inputs: str
    value: Optional[Fraction]
    bounded: Optional[int]  # the quantity the bound constrains
    status: str

    @property
    def slack(self) -> Optional[Fraction]:
        if self.value is None or self.bounded is None:
            return None
        return self.value - self.bounded


def _entry(name: str, inputs: str, value, bounded: int) -> BoundEntry:
    value = Fraction(value)
    # exact integer comparison: bounded <= num/den  <=>  bounded*den <= num
    ok = bounded * value.denominator <= value.numerator
    return BoundEntry(name, inputs, value, bounded, PASS if ok else VIOLATION)


def _na(name: str, inputs: str) -> BoundEntry:
    return BoundEntry(name, inputs, None, None, NOT_APPLICABLE)


@dataclass(frozen=True)
class BoundReport:
    group_id: str
    h_actual: int
    primes: PrimeSet
    entries: tuple[BoundEntry, ...]
    lambda_sweep_passed: bool

    @property
    def overall_pass(self) -> bool:
        return self.lambda_sweep_passed and all(
            e.status != VIOLATION for e in self.entries)

    @property
    def violations(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if e.status == VIOLATION)


def _fmt_set(sigma: Iterable[int]) -> str:
    sigma = tuple(sigma)
    return "{" + ",".join(str(p) for p in sigma) + "}" if sigma else "{}"


def check_all(cg: ConstructedGroup, t_max: Optional[int] = None) -> BoundReport:
    """Evaluate every applicable bound against the measured h(G).

    Hypothesis failures (too few primes, no covers of the requested
    order) become "n/a" entries; only genuine inequality violations make
    the report fail, and with the statements being theorems a violation
    always means an implementation bug somewhere.
    """
    primes = cg.primes
    w = len(primes)
    # no cover has more than w + 1 members: at most w complement masks
    # are pairwise disjoint, and a degenerate cover adds the ground set
    t_max = w + 1 if t_max is None else min(t_max, w + 1)
    profile = HallProfile(cg)
    h_actual = profile.h(primes)

    entries: list[BoundEntry] = []

    # cover-weight bounds, exhaustively over enumerable covers
    if 2 <= w <= COVER_GROUND_LIMIT:
        for t in range(3, t_max + 1):
            for cover in enumerate_covers(primes, t):
                theta = weight(cover, profile)
                entries.append(_entry(
                    "cover-weight", "t=%d %s theta=%d" % (t, cover, theta),
                    cover_bound(theta, t), h_actual))

    # covering-triple specializations, one per unordered prime pair
    for p, q in combinations(primes, 2):
        hp = profile.h(tuple(r for r in primes if r != p))
        hq = profile.h(tuple(r for r in primes if r != q))
        hpq = profile.h((p, q))
        entries.append(_entry(
            "covering-triple",
            "p'=%d q'=%d pair=%s" % (p, q, _fmt_set((p, q))),
            triple_bound(hp, hq, hpq), h_actual))

    # top-two complements
    if w >= 4:
        comp = [profile.h(tuple(r for r in primes if r != p)) for p in primes]
        entries.append(_entry(
            "top-two", "complements=%s" % (sorted(comp, reverse=True),),
            top_two_bound(comp), h_actual))
    else:
        entries.append(_na("top-two", "needs w >= 4, have w=%d" % w))

    # size-graded recursion and its closed forms
    if w >= 3 and w <= 4:
        frak = {size: frak_h(cg, size) for size in range(2, w + 1)}
        for ell in range(3, w + 1):
            entries.append(_entry(
                "size-step", "ell=%d prev=%d" % (ell, frak[ell - 1]),
                ell_step_bound(frak[ell - 1], ell), frak[ell]))
        entries.append(_entry(
            "quadratic", "w=%d frak2=%d" % (w, frak[2]),
            quadratic_bound(frak[2], w), h_actual))
        if w >= 4:
            entries.append(_entry(
                "top-size-double", "frak%d=%d" % (w - 1, frak[w - 1]),
                2 * frak[w - 1] - 1, h_actual))
    elif w > 4:
        frak_prev = frak_h(cg, w - 1)
        entries.append(_entry(
            "size-step", "ell=%d prev=%d" % (w, frak_prev),
            ell_step_bound(frak_prev, w), h_actual))
        entries.append(_entry(
            "top-size-double", "frak%d=%d" % (w - 1, frak_prev),
            2 * frak_prev - 1, h_actual))
    else:
        entries.append(_na("size-step", "needs w >= 3, have w=%d" % w))

    # older product bound, per unordered prime pair
    for p, q in combinations(primes, 2):
        hp = profile.h(tuple(r for r in primes if r != p))
        hq = profile.h(tuple(r for r in primes if r != q))
        r_val = profile.h((p, q))
        s_val = max(hp, hq)
        entries.append(_entry(
            "product", "p=%d q=%d s=%d r=%d" % (p, q, s_val, r_val),
            product_bound(s_val, r_val), h_actual))

    # two-Hall-factor bound over complementary splits
    if 2 <= w <= 4:
        for size in range(1, w):
            for sigma in combinations(primes, size):
                tau = tuple(r for r in primes if r not in sigma)
                h_a = profile.h(sigma)
                h_b = profile.h(tau)
                d_b = hall_derived_length(cg, tau)
                entries.append(_entry(
                    "two-factor",
                    "A=%s B=%s dB=%d" % (_fmt_set(sigma), _fmt_set(tau), d_b),
                    two_factor_bound(h_a, h_b, d_b), h_actual))

    return BoundReport(
        group_id=cg.describe(),
        h_actual=h_actual,
        primes=primes,
        entries=tuple(entries),
        lambda_sweep_passed=lambda_sweep_ok(),
    )
