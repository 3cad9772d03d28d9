"""Picard-lattice arithmetic for the two surface families.

Two integer lattices are used.  The degree-3 blown-up-plane model has rank 7
with basis L, E1..E6 and intersection form diag(1, -1, -1, -1, -1, -1, -1);
its 27 classes of (-1)-curves are the E_i, the L - E_i - E_j and the
2L - (five of the E_i).  The two-component cubic is described through its
rank-3 sublattice of real classes, spanned by the three real lines L1, L2,
L3 with L_i^2 = -1 and L_i . L_j = 1: the anticanonical pencil through a
real line splits off the other two real lines meeting at a point, which
together with adjunction fixes the form.  In both models the canonical
class, nef tests and the expected-dimension count

    R(D, beta) = -D.(K + E) + |beta| - 1      (divisor class)
    R(P, beta) = -[P].(K + E) + |beta| - 2    (conjugate pair)

are pure lattice arithmetic.

Coordinates are stored as raw coefficients in the basis: a rank-7 class
d*L - sum m_i E_i is the tuple (d, -m1, ..., -m6); a rank-3 class is
(d1, d2, d3).  The textual forms are ``d;m1,...,m6`` and ``d1,d2,d3``.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import ParseError, ValidationError


class DivisorClass:
    """Immutable integer vector in a fixed lattice basis."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Sequence[int]):
        self.coords: Tuple[int, ...] = tuple(int(c) for c in coords)
        self._hash = hash(self.coords)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_rank(other)
        return DivisorClass(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_rank(other)
        return DivisorClass(a - b for a, b in zip(self.coords, other.coords))

    def __mul__(self, n: int) -> "DivisorClass":
        return DivisorClass(n * a for a in self.coords)

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-a for a in self.coords)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def _check_rank(self, other: "DivisorClass") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"rank mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, DivisorClass) and self.coords == other.coords

    def __lt__(self, other: "DivisorClass") -> bool:
        return self.coords < other.coords

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"DivisorClass{self.coords}"


@dataclass(frozen=True)
class Lattice:
    """Intersection lattice of one surface model."""

    model: str  # "p2" or "cubic"
    rank: int
    gram: Tuple[Tuple[int, ...], ...]
    canonical: DivisorClass
    lines: Tuple[DivisorClass, ...]

    def intersect(self, a: DivisorClass, b: DivisorClass) -> int:
        ac, bc = a.coords, b.coords
        if len(ac) != self.rank or len(bc) != self.rank:
            raise ValueError("class rank does not match lattice rank")
        if self.model == "p2":
            return (
                ac[0] * bc[0]
                - ac[1] * bc[1] - ac[2] * bc[2] - ac[3] * bc[3]
                - ac[4] * bc[4] - ac[5] * bc[5] - ac[6] * bc[6]
            )
        # -1 on the diagonal, +1 off: (sum a)(sum b) - 2 sum a_i b_i.
        return (ac[0] + ac[1] + ac[2]) * (bc[0] + bc[1] + bc[2]) - 2 * (
            ac[0] * bc[0] + ac[1] * bc[1] + ac[2] * bc[2]
        )


def _p2_lines() -> Tuple[DivisorClass, ...]:
    lines = []
    for i in range(6):
        e = [0] * 7
        e[1 + i] = 1
        lines.append(DivisorClass(e))
    for i, j in itertools.combinations(range(6), 2):
        e = [1] + [0] * 6
        e[1 + i] = e[1 + j] = -1
        lines.append(DivisorClass(e))
    for omitted in range(6):
        e = [2] + [-1] * 6
        e[1 + omitted] = 0
        lines.append(DivisorClass(e))
    return tuple(lines)


P2_LATTICE = Lattice(
    model="p2",
    rank=7,
    gram=tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(7))
        for i in range(7)
    ),
    canonical=DivisorClass((-3, 1, 1, 1, 1, 1, 1)),
    lines=_p2_lines(),
)

CUBIC_LATTICE = Lattice(
    model="cubic",
    rank=3,
    gram=tuple(tuple(-1 if i == j else 1 for j in range(3)) for i in range(3)),
    canonical=DivisorClass((-1, -1, -1)),
    lines=(
        DivisorClass((1, 0, 0)),
        DivisorClass((0, 1, 0)),
        DivisorClass((0, 0, 1)),
    ),
)


def conj_class(conj_perm: Tuple[int, ...], d: DivisorClass) -> DivisorClass:
    """Apply the conjugation involution, given as a basis permutation."""
    return DivisorClass(d.coords[conj_perm[i]] for i in range(len(conj_perm)))


def conj_perm_p2(n_real: int) -> Tuple[int, ...]:
    """Basis permutation fixing L and E_1..E_{n_real}, swapping later pairs."""
    if n_real % 2 != 0:
        raise ValueError("real exceptional classes must come in count 0, 2, 4 or 6")
    perm = list(range(7))
    i = 1 + n_real
    while i + 1 < 7:
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        i += 2
    return tuple(perm)


CONJ_ID_CUBIC: Tuple[int, ...] = (0, 1, 2)


def r_dim(
    lat: Lattice,
    e_class: DivisorClass,
    class_sum: DivisorClass,
    beta_norm: int,
    pair: bool,
) -> int:
    """Expected dimension -[D].(K+E) + |beta| - (1 or 2).

    `beta_norm` is the norm of the combined vector beta_re + 2*beta_im.
    """
    return (
        -lat.intersect(class_sum, lat.canonical)
        - lat.intersect(class_sum, e_class)
        + beta_norm
        - (2 if pair else 1)
    )


def is_nef(lat: Lattice, d: DivisorClass) -> bool:
    """Nef test: zero, or non-negative on every line with K.D < 0."""
    if d.is_zero():
        return True
    if lat.intersect(lat.canonical, d) >= 0:
        return False
    return all(lat.intersect(d, line) >= 0 for line in lat.lines)


def is_nef_big(lat: Lattice, d: DivisorClass) -> bool:
    return is_nef(lat, d) and lat.intersect(d, d) > 0


def class_to_str(lat: Lattice, d: DivisorClass) -> str:
    if lat.model == "cubic":
        return ",".join(str(c) for c in d.coords)
    mults = ",".join(str(-c) for c in d.coords[1:])
    return f"{d.coords[0]};{mults}"


def parse_class(lat: Lattice, text: str) -> DivisorClass:
    """Parse ``d;m1,...,m6`` / ``d1,d2,d3``, or the shorthand ``-nK``."""
    text = text.strip()
    k_mult = _parse_antik(text)
    try:
        if k_mult is not None:
            d = lat.canonical * (-k_mult)
        elif lat.model == "cubic":
            parts = [int(p) for p in text.split(",")]
            if len(parts) != 3:
                raise ValueError
            d = DivisorClass(parts)
        else:
            head, _, tail = text.partition(";")
            mults = [int(p) for p in tail.split(",")]
            if not tail or len(mults) != 6:
                raise ValueError
            d = DivisorClass([int(head)] + [-m for m in mults])
    except ValueError:
        raise ParseError(f"cannot parse divisor class {text!r}") from None
    if not any(d.coords):
        raise ValidationError(f"{text!r} is the zero class")
    return d


def _parse_antik(text: str) -> int | None:
    if not text.startswith("-") or not text.endswith("K"):
        return None
    body = text[1:-1]
    if body == "":
        return 1
    return int(body) if body.isdigit() else None


def feasible(lat: Lattice, t: Sequence[int], slack: int = 1) -> bool:
    """Cheap necessary conditions for the raw coordinates t to be a sum of
    factor candidates (see candidate_factors).

    On the cubic every candidate has non-negative line coordinates.  On
    rank 7 the raw E_i coefficients of candidates are <= 0 except the
    once-only exceptional factors E_1, E_2 themselves, so t_0 >= 0,
    t_1, t_2 <= 1 (the `slack`) and t_i <= 0 for i >= 3.

    The conic cut (rank 7).  Write t = dL - sum m_i E_i (m_i = -t_i).
    Its intersections with the 27 conic classes -K - l, l a line, are

        (L - E_i).t                 = d - m_i
        (2L - four of the E_k).t    = -K.t - d + m_a + m_b
        (3L - 2E_i - others).t      = -K.t - m_i

    (a, b the two slots the second conic omits), so t meets every conic
    non-negatively exactly when d >= max m_i, 2d >= the sum of the four
    largest m_i and 3d >= sum m_i + max m_i: min(d, -K.t) >= max m and
    -K.t - d >= the two largest t_i.  Every sum of candidates passes.  A
    conic C = -K - l is nef, since C.l = 2 and C.l' = 1 - l.l' >= 0 for
    another line l' (distinct lines meet at most once), and it is the sum
    of two lines, l' + l'' with l + l' + l'' = -K.  So a line candidate
    meets C >= 0 as an effective class, and a nef candidate meets
    C = l' + l'' >= 0, since the nef test asks D.l' >= 0 on all 27 lines.
    That covers every candidate: the once-only E_1 and E_2 are lines, and
    a blown-down slot only makes a candidate's coordinate there zero, the
    class staying a line or nef on the rank-7 lattice.

    With slack 0 the conditions define a cone: adding a class that passes
    with slack 0 to one that passes keeps it passing.
    """
    if lat.model == "cubic":
        return t[0] >= 0 and t[1] >= 0 and t[2] >= 0
    d = t[0]
    if d < 0 or t[1] > slack or t[2] > slack:
        return False
    if t[3] > 0 or t[4] > 0 or t[5] > 0 or t[6] > 0:
        return False
    u = sorted(t[1:])
    ak = 3 * d + sum(u)
    return u[0] + min(d, ak) >= 0 and ak - d >= u[4] + u[5]


def nef_classes_up_to(
    lat: Lattice,
    conj_perm: Tuple[int, ...],
    max_antik: int,
    target: Optional[Tuple[int, ...]] = None,
    zero_slots: Tuple[int, ...] = (),
    e_slots: Tuple[int, ...] = (),
) -> Tuple[DivisorClass, ...]:
    """All conjugation-invariant nef classes D with 1 <= -K.D <= max_antik;
    with a `target` t only those with t - D feasible (see feasible), and
    on the rank-7 model only those with m_j = 0 for each j in `zero_slots`
    and, given `e_slots`, only those meeting E = L - sum_{j in e_slots} E_j
    positively.

    On the rank-7 model a nef class dL - sum m_i E_i satisfies
    0 <= m_i, m_i + m_j <= d and sum m_i <= 12d/5 (average the six conic
    inequalities 2d >= sum-minus-one), hence 3d/5 <= -K.D: the search over
    d <= 5*max_antik/3 is complete.  For each d the window fixes the total
    S = sum m_i to 3d - max_antik <= S <= min(3d - 1, 12d/5).  Each orbit
    value v keeps v + max m <= d (2v <= d on a conjugate pair), so the E_i
    and L - E_i - E_j inequalities hold by construction.  A target caps
    the degree at t_0 and m_i at -t_i (plus the slack 1 on m_1 and m_2),
    the coordinate half of feasible(t - D), and its conics L - E_i give
    m_i the floor d - t_0 - t_i, as (L - E_i).(t - D) = t_0 - d + t_i +
    m_i; a zero slot caps m_j at 0, and a conjugate pair takes the
    smaller cap and the larger floor of its two slots.  E.D = d - sum of
    m_j over `e_slots`, so E.D >= 1 caps the orbit holding the last of
    them: its slots in `e_slots` share d - 1 less the earlier ones.

    The branch cut.  Every later slot is at most d - max m and its own
    cap, so the largest total a branch can still reach is its total so
    far plus room_after at room d - max m.  The remainder r = t - D of a
    feasible leaf meets each conic 3L - 2E_i - others non-negatively:
    -K.r >= m_i(r) = M_i with M_i = -t_i - m_i.  As -K.r = -K.t - 3d + S,
    that reads S >= 3d - (-K.t) + M_i, a lower end of S for each slot
    already assigned; -K.t is the target's own degree, which may differ
    from max_antik.  So a branch whose reachable total stays below the
    window's lower end, or with a target below 3d + K.t + max M_i over
    its assigned slots, holds no kept class and is cut.  Only the last
    orbit assigns no room, so both ends hold exactly at a leaf.  A leaf
    is nef exactly when the six conic inequalities hold, 2d >= S - min m;
    a kept leaf then passes the rest of feasible(t - D) (its 2L - four
    E_k conics), and only then becomes a class.

    On the rank-3 model the nef classes are the triangles listed directly,
    in coordinate order, and a target caps each d_i at t_i, which is all of
    feasible there.
    """
    found = []
    if lat.model == "cubic":
        # D.L_i = -K.D - 2 d_i, so D is nef exactly when (d1, d2, d3) is a
        # triangle: |d1 - d2| <= d3 <= d1 + d2, each d_i <= -K.D / 2.
        top = max_antik // 2
        c1, c2, c3 = [min(top, c) for c in target or (top,) * 3]
        for d1 in range(c1 + 1):
            for d2 in range(c2 + 1):
                lo = max(abs(d1 - d2), d1 + d2 == 0)  # not the zero class
                hi = min(c3, d1 + d2, max_antik - d1 - d2)
                found.extend(DivisorClass((d1, d2, d3)) for d3 in range(lo, hi + 1))
        return tuple(found)

    # Conjugation-invariance forces m constant on swapped index pairs.
    orbits = _index_orbits(conj_perm)
    deg_top = (5 * max_antik) // 3
    slot_caps = [deg_top] * 6
    floors = [deg_top] * len(orbits)  # an orbit's value is >= d - floors[k]
    # the conic lower end of S is 3d + marks[k] - v after orbit k takes v
    marks = [None] * len(orbits)
    if target is not None:
        t0, te = target[0], target[1:]
        deg_top = min(deg_top, t0)
        slot_caps = [(i < 2) - x for i, x in enumerate(te)]
        floors = [t0 + min(te[i] for i in orbit) for orbit in orbits]
        antik_t = 3 * t0 + sum(te)
        marks = [max(-te[i] for i in orbit) - antik_t for orbit in orbits]
    for j in zero_slots:
        slot_caps[j - 1] = min(slot_caps[j - 1], 0)
    caps = [min(slot_caps[i] for i in orbit) for orbit in orbits]
    if min(caps) < 0:
        return ()  # every nef class has m_i >= 0
    e_ms = [j - 1 for j in e_slots]
    # e_share[k]: how many of the E slots the k-th orbit holds, if it is the
    # last orbit to hold any, else 0
    e_share = [0] * len(orbits)
    if e_ms:
        last = max(k for k, o in enumerate(orbits) if set(o) & set(e_ms))
        e_share[last] = len(set(orbits[last]) & set(e_ms))
    # room_after[k][r]: the most the orbits after the k-th can add when
    # every slot has room r under its cap, summed from the last orbit back
    room_after = [[0] * (deg_top + 1)]
    for o, c in zip(orbits[:0:-1], caps[:0:-1]):
        row = room_after[-1]
        room_after.append([x + len(o) * min(r, c) for r, x in enumerate(row)])
    room_after.reverse()
    for deg in range(1, deg_top + 1):
        s_lo = 3 * deg - max_antik
        s_hi = min(3 * deg - 1, (12 * deg) // 5)
        # per orbit: its slots, their count, its least and most value at
        # this degree (before v + max m <= d and the E cap), its room_after
        # row, its conic lower end of S at v = 0 (s_lo, never binding,
        # without a target) and its share of the E slots
        plan = [
            (o, len(o), max(0, deg - f), min(c, deg // len(o)), row,
             s_lo if mark is None else 3 * deg + mark, share)
            for o, f, c, row, mark, share in zip(
                orbits, floors, caps, room_after, marks, e_share)
        ]

        def rec(orbit_idx: int, m: list, max_m: int, total: int, need: int) -> None:
            if orbit_idx == len(orbits):
                if 2 * deg >= total - min(m) and (
                    target is None
                    or feasible(lat, (t0 - deg, *map(operator.add, te, m)))
                ):
                    found.append(DivisorClass([deg] + [-x for x in m]))
                return
            orbit, size, lo, top, room, conic, share = plan[orbit_idx]
            if top > deg - max_m:
                top = deg - max_m
            if share:
                # the orbit's own and the later slots of m are still 0
                e_top = (deg - 1 - sum(m[i] for i in e_ms)) // share
                if top > e_top:
                    top = e_top
            for v in range(lo, top + 1):
                new_total = total + v * size
                if new_total > s_hi:
                    break
                new_max = v if v > max_m else max_m
                new_need = conic - v if conic - v > need else need
                if new_total + room[deg - new_max] < new_need:
                    continue
                for i in orbit:
                    m[i] = v
                rec(orbit_idx + 1, m, new_max, new_total, new_need)
            for i in orbit:
                m[i] = 0

        rec(0, [0] * 6, 0, 0, s_lo)
        # rec refers to itself, a cycle that only the cyclic collector frees
        del rec
    return tuple(sorted(found))


def _index_orbits(conj_perm: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    # Orbits of the exceptional indices 1..6, shifted to 0-based m-slots.
    seen = set()
    orbits = []
    for i in range(1, 7):
        if i in seen:
            continue
        j = conj_perm[i]
        orbit = (i - 1,) if j == i else (i - 1, j - 1)
        seen.update({i, j})
        orbits.append(orbit)
    return tuple(orbits)


@functools.lru_cache(maxsize=None)
def _candidate_lines(
    lat: Lattice,
    conj_perm: Tuple[int, ...],
    e_class: DivisorClass,
    blocked: Tuple[DivisorClass, ...],
) -> Tuple[DivisorClass, ...]:
    """The lines that can be factor candidates whatever the target: the
    real ones that meet E positively and cross no blocked class, in the
    lattice's line order.  They depend on the surface only, so each
    surface filters its lines once per process."""
    return tuple(
        line for line in lat.lines
        if conj_class(conj_perm, line) == line
        and lat.intersect(line, e_class) >= 1
        and not any(lat.intersect(line, b) != 0 for b in blocked)
    )


def candidate_factors(
    lat: Lattice,
    conj_perm: Tuple[int, ...],
    e_class: DivisorClass,
    antik_budget: int,
    blocked: Tuple[DivisorClass, ...] = (),
    target: Optional[Tuple[int, ...]] = None,
) -> Tuple[DivisorClass, ...]:
    """Conjugation-invariant classes able to carry a nonzero count as factor.

    The union of (-1)-classes and nef classes of anticanonical degree at
    most `antik_budget` dominates every divisor class with irreducible
    representatives; spurious members are harmless because they evaluate
    to zero.  Classes not meeting E positively are dropped, and so is
    anything crossing a class of `blocked`, the exceptional classes of
    blown-down curves.  With a `target` t only the candidates b with
    t - b feasible are kept (see feasible): the engine passes the c = 0
    target D - E of a key, whose factor collections draw on no other
    candidate (see engine.Evaluator._table).  The class -(K+E) is kept
    here, its exclusion as a factor is enforced at the use site.

    On the rank-7 model the nef classes are cut inside the enumeration,
    not filtered after it.  A blocked E_j meets dL - sum m_i E_i in m_j,
    so it holds slot j at 0.  E = L - E_a - E_b meets it in d - m_a - m_b,
    so E.D >= 1 is the cap m_a + m_b <= d - 1 on the enumeration's slots
    a and b, with or without a target, and no class it returns fails the
    E test.  A target t enters as feasible(t - D) does: the caps and
    floors of its coordinates and L - E_i conics, and its conics
    3L - 2E_i - others, which ask -K.(t - D) >= -t_i - m_i, that is
    S >= 3d + K.t - t_i - m_i for S = sum m_i.  That lower end only grows
    as slots are assigned, and a branch's total only shrinks below the
    most it can reach, so a branch cut by it holds no class whose
    remainder meets those conics, the ones the leaf test would drop.  The
    2L - four E_k conics are still tested at the leaf.  An untargeted call
    has no remainder and keeps the window's own lower end 3d - antik_budget.
    """
    if antik_budget < 1:
        raise ValueError("anticanonical budget must be >= 1")
    out = [
        line for line in _candidate_lines(lat, conj_perm, e_class, blocked)
        if target is None
        or feasible(lat, tuple(map(operator.sub, target, line.coords)))
    ]
    zero_slots, e_slots, crossing = (), (), blocked  # crossing: filtered here
    if lat.model == "p2":
        exceptional = lat.lines[:6]  # E_j, whose slot j holds m_j
        zero_slots = tuple(
            1 + exceptional.index(b) for b in blocked if b in exceptional
        )
        crossing = tuple(b for b in blocked if b not in exceptional)
        e_slots = tuple(j for j in range(1, 7) if e_class.coords[j])
        if e_class.coords != tuple(int(j == 0) - (j in e_slots) for j in range(7)):
            raise ValueError("rank-7 E must be L minus exceptional classes")
    for d in nef_classes_up_to(
        lat, conj_perm, antik_budget, target, zero_slots, e_slots
    ):
        if lat.model == "cubic" and lat.intersect(d, e_class) < 1:
            continue
        if any(lat.intersect(d, b) != 0 for b in crossing):
            continue
        out.append(d)
    return tuple(sorted(set(out)))
