"""Real-structure surface models, conjugate-pair menus, initial tables.

A surface specification fixes everything the recursion needs: the lattice
model, the reality pattern of the exceptional classes, the twist, the
auxiliary (-1)-curve E, the set of blown-down curves, the finite menu of
conjugate-pair families with their signed weights, and the table of initial
values at expected dimension zero.

Supported models:

* ``P2[a,b]`` - the real plane blown up at a real points and b conjugate
  pairs, a + 2b <= 6.  Internally always the rank-7 degree-3 lattice; for
  a + 2b < 6 the missing points are realised by blowing down trailing
  exceptional curves of a degree-3 parent and filtering classes that cross
  them.  The exceptional classes are labelled real-first, except that the
  first two always support E = L - E1 - E2 (so the all-imaginary parent
  starts with its first conjugate pair).
* ``B1`` - the two-component real cubic, modelled on the rank-3 lattice of
  its real classes; E is one of the three real lines.
* ``B``  - the minimal two-component conic bundle, realised as ``B1`` with
  the real line L1 contracted and E in {L2, L3}.

Twists: ``0`` everywhere; ``F`` (reduce signs to the non-orientable
component) only where the real part is disconnected, i.e. on B1 and B.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from .errors import InternalCheckError, ParseError, ValidationError
from .picard import (
    CONJ_ID_CUBIC,
    CUBIC_LATTICE,
    P2_LATTICE,
    DivisorClass,
    Lattice,
    class_to_str,
    conj_class,
    conj_perm_p2,
    is_nef_big,
    nef_classes_up_to,
    parse_class,
    r_dim,
)
from .tangency import TangencyVector, is_odd_support, iweight, theta


@dataclass(frozen=True)
class PairItem:
    """One admissible conjugate-pair family, weight +1 or -1.

    `members` carries the two member classes when they live in the real
    lattice model (rank-7 surfaces); the cubic's imaginary lines have no
    real-lattice coordinates and enter through `class_sum` alone.
    """

    item_id: str
    class_sum: DivisorClass
    beta_im: TangencyVector
    weight: int
    members: Optional[Tuple[DivisorClass, DivisorClass]] = None


@dataclass(frozen=True)
class SurfaceSpec:
    """Immutable description of one surface + twist + blow-down + E choice."""

    model: str  # "P2", "B1" or "B"
    a: int  # real blown-up points (P2 models; 0 otherwise)
    b: int  # conjugate pairs of blown-up points (P2 models; 0 otherwise)
    twist: str  # "0" or "F"
    lattice: Lattice = field(repr=False)
    conj_perm: Tuple[int, ...] = field(repr=False)
    n_real: int  # real exceptional classes of the degree-3 parent
    e_class: DivisorClass
    blown_down: Tuple[int, ...]  # 1-based basis indices of contracted curves
    blocked_classes: Tuple[DivisorClass, ...] = field(repr=False)
    pair_menu: Tuple[PairItem, ...] = field(repr=False)
    surface_id: str = ""

    # -- lattice shortcuts -----------------------------------------------------

    def intersect(self, x: DivisorClass, y: DivisorClass) -> int:
        return self.lattice.intersect(x, y)

    def k_plus_e(self) -> DivisorClass:
        return self.lattice.canonical + self.e_class

    def minus_k_plus_e(self) -> DivisorClass:
        return self._mke

    @functools.cached_property
    def _mke(self) -> DivisorClass:
        # built on first use: every table build and initial lookup reads it
        return -self.k_plus_e()

    def conj(self, d: DivisorClass) -> DivisorClass:
        return conj_class(self.conj_perm, d)

    def is_real_class(self, d: DivisorClass) -> bool:
        return self.conj(d) == d

    def e_degree(self, d: DivisorClass) -> int:
        return self.lattice.intersect(d, self.e_class)

    def antik_degree(self, d: DivisorClass) -> int:
        return -self.lattice.intersect(self.lattice.canonical, d)

    def r_dim_class(self, d: DivisorClass, beta_norm: int) -> int:
        return r_dim(self.lattice, self.e_class, d, beta_norm, pair=False)

    def r_dim_pair(self, class_sum: DivisorClass, beta_norm: int) -> int:
        return r_dim(self.lattice, self.e_class, class_sum, beta_norm, pair=True)

    def class_str(self, d: DivisorClass) -> str:
        return class_to_str(self.lattice, d)

    def parse_class(self, text: str) -> DivisorClass:
        return parse_class(self.lattice, text)

    # -- relabelling orbits --------------------------------------------------------

    def orbit_map(
        self, move_e: bool = False
    ) -> Optional[Callable[[Tuple[int, ...]], Tuple[int, ...]]]:
        """The canonical relabelling of a class's coordinates, or None where
        every relabelling is the identity.

        A relabelling exchanges blow-up points of the same reality, a
        conjugate pair (E_i, E_conj(i)) moving as one unit.  The map sorts
        the coordinates within each group of interchangeable slots, so it
        picks the least member of each orbit in tuple order.  The cubic's
        rank-3 lattice has no relabelling.

        move_e False admits the relabellings that fix E = L - E1 - E2, and so
        the value of every recursion state: E1 <-> E2 when both are real, and
        any permutation of the real E_i with i >= 3 and of the pairs with
        i >= 3.  Blown-down slots stay, since the blow-down singles them
        out.  The evaluator keys its memo by this mode.

        move_e True also moves E1 and E2: any permutation of the real points
        and of the pairs that are not blown down, (E1, E2) included.  It
        keeps W(D) but not a state, and its representative has the largest
        multiplicities on E1 and E2, so the least E-degree.  The scans
        evaluate one class per orbit of this mode.
        """
        if self.lattice.model == "cubic":
            return None
        conj = self.conj_perm
        free = [i for i in range(1 if move_e else 3, 7) if i not in self.blown_down]
        heads = (1, 2) if self.n_real >= 2 and not move_e else ()
        reals = tuple(i for i in free if i <= self.n_real)
        real_groups = [slots for slots in (heads, reals) if len(slots) > 1]
        pairs = [(i, conj[i]) for i in free if conj[i] > i]
        if len(pairs) < 2:
            pairs = []
        if not real_groups and not pairs:
            return None
        # The sorted values are gathered group by group after the fixed slots,
        # then put back in slot order in one step.
        moved = [i for slots in real_groups + pairs for i in slots]
        fixed = [i for i in range(self.lattice.rank) if i not in moved]
        order = fixed + moved
        place = operator.itemgetter(*[order.index(i) for i in range(len(order))])
        real_gets = [operator.itemgetter(*slots) for slots in real_groups]
        pair_gets = [operator.itemgetter(*pair) for pair in pairs]

        def canonical(coords: Tuple[int, ...]) -> Tuple[int, ...]:
            values = [coords[i] for i in fixed]
            for get in real_gets:
                values += sorted(get(coords))
            if pair_gets:
                for unit in sorted([get(coords) for get in pair_gets]):
                    values += unit
            return place(values)

        return canonical

    # -- blow-down filtering -----------------------------------------------------

    def class_allowed(self, d: DivisorClass) -> bool:
        """True when d does not cross any blown-down curve."""
        return all(self.lattice.intersect(d, b) == 0 for b in self.blocked_classes)

    def candidate_blocked(self) -> Tuple[DivisorClass, ...]:
        """Blow-down filter applied to factor candidates.

        On the rank-7 model every class carrying a nonzero count meets the
        blown-down curves non-negatively, and the class equation then forces
        filtered factors outright, so pre-filtering candidates is a pure
        speedup.  On the contracted cubic the exceptional line itself must
        stay available as a rigid factor (it crosses itself negatively), so
        no candidate is dropped there.
        """
        return self.blocked_classes if self.model == "P2" else ()

    # -- nef cones ---------------------------------------------------------------

    # Model B needs no branch of its own: it contracts L1, and with the
    # cubic form (D.D = 2 sum_{i<j} d_i d_j - sum d_i^2) a class with
    # D.L1 = d2 + d3 - d1 = 0 is (dy + dz, dy, dz), nef when dy, dz >= 0 (it
    # meets L2 and L3 in 2 dz and 2 dy), with D.D = 4 dy dz; so the nef-big
    # classes orthogonal to L1 are those with dy, dz >= 1.

    def is_nef_big(self, d: DivisorClass) -> bool:
        return is_nef_big(self.lattice, d) and self.class_allowed(d)

    def nef_big_classes(self, max_antik: int) -> Tuple[DivisorClass, ...]:
        """Conjugation-invariant nef-and-big classes with -K.D <= max_antik."""
        lat = self.lattice  # the enumerated classes are nef already
        return tuple(
            d for d in nef_classes_up_to(lat, self.conj_perm, max_antik)
            if lat.intersect(d, d) > 0 and self.class_allowed(d)
        )

    # -- initial conditions --------------------------------------------------------

    def initial_weight(
        self, d: DivisorClass, alpha: TangencyVector, beta: TangencyVector
    ) -> int:
        """Tabulated count at expected dimension zero, 0 when no family fits."""
        if not (is_odd_support(alpha) and is_odd_support(beta)):
            raise ValidationError("initial lookup requires odd-support vectors")
        if iweight(alpha) + iweight(beta) != self.e_degree(d):
            raise ValidationError("tangency degree does not match the class")
        if self.r_dim_class(d, sum(c for _, c in beta)) != 0:
            raise ValidationError("initial lookup requires expected dimension 0")
        matches = self._matching_families(d, alpha, beta)
        if len(matches) > 1:
            raise InternalCheckError(
                f"initial families overlap on {self.class_str(d)}: {matches}"
            )
        return 1 if matches else 0

    def _matching_families(
        self, d: DivisorClass, alpha: TangencyVector, beta: TangencyVector
    ) -> Tuple[str, ...]:
        th1 = theta(1)
        found = []
        if self.lattice.model == "cubic":
            e_idx = self.e_class.coords.index(1)
            if alpha == TangencyVector.zero() and beta == th1:
                for i in range(3):
                    if i != e_idx and d == self.lattice.lines[i]:
                        found.append("1i")
            if d == self.minus_k_plus_e() and alpha == th1 and beta == th1:
                found.append("1ii")
            return tuple(found)

        e1e2_real = self.n_real >= 2
        m = [-c for c in d.coords[1:]]
        deg = d.coords[0]
        zero = TangencyVector.zero()
        mke = self.minus_k_plus_e()
        if alpha == zero and beta == th1:
            if e1e2_real and d in (self.lattice.lines[0], self.lattice.lines[1]):
                found.append("1i")
            if deg == 1:
                idx = [i for i in range(6) if m[i] == 1]
                if (
                    len(idx) == 2
                    and sum(m) == 2
                    and min(idx) >= 2
                    and self._both_real_or_conj(idx[0] + 1, idx[1] + 1)
                ):
                    found.append("1ii")
            if e1e2_real and d in (mke - self.lattice.lines[0], mke - self.lattice.lines[1]):
                found.append("1iii")
        if d == mke and alpha == th1 and beta == th1:
            found.append("1iv")
        if beta == zero:
            fam = self._pattern_family(deg, m, alpha)
            if fam:
                found.append(fam)
        return tuple(found)

    def _both_real_or_conj(self, i: int, j: int) -> bool:
        both_real = i <= self.n_real and j <= self.n_real
        conjugate = self.conj_perm[i] == j
        return both_real or conjugate

    def _pattern_family(self, deg: int, m: list, alpha: TangencyVector) -> str | None:
        """Match the two one-parameter series of rigid classes with beta = 0.

        Series A: -s(K+E) + L - s1 E1 - s2 E2 - E_i   (deg odd,  2s + 1)
        Series B: -s(K+E) - s1 E1 - s2 E2 + E_i       (deg even, 2s)
        with s1, s2 in {0, 1}, i in 3..6 real, E1 and E2 real when s1 != s2,
        and the fixed-tangency weight I(alpha) determined by (s, s1, s2).
        """
        if deg < 1:
            return None
        s, parity = divmod(deg, 2)
        s1, s2 = m[0], m[1]
        if not (0 <= s1 <= 1 and 0 <= s2 <= 1):
            return None
        if s1 != s2 and self.n_real < 2:
            return None
        tail = m[2:]
        if parity == 1:  # series A: three entries equal s, one equals s + 1
            special = [i for i in range(4) if tail[i] == s + 1]
            if len(special) != 1 or any(
                tail[i] != s for i in range(4) if i not in special
            ):
                return None
            if s1 + s2 > 2 * s:
                return None
            need = 2 * s + 1 - s1 - s2
            family = "1v"
        else:  # series B: three entries equal s, one equals s - 1
            if s < 1:
                return None
            special = [i for i in range(4) if tail[i] == s - 1]
            if len(special) != 1 or any(
                tail[i] != s for i in range(4) if i not in special
            ):
                return None
            if s1 + s2 >= 2 * s:
                return None
            need = 2 * s - s1 - s2
            family = "1vi"
        i_index = special[0] + 3  # 1-based exceptional index in 3..6
        if i_index > self.n_real:
            return None
        if iweight(alpha) != need:
            return None
        return family


# -- construction -------------------------------------------------------------


def make_surface(
    model: str,
    a: int = 0,
    b: int = 0,
    twist: str = "0",
    blowdown: Tuple[int, ...] = (),
    e_choice: Optional[str] = None,
) -> SurfaceSpec:
    if twist not in ("0", "F"):
        raise ValidationError(f"unknown twist {twist!r}, expected 0 or F")
    if model == "P2":
        return _make_p2(a, b, twist, blowdown, e_choice)
    if model in ("B1", "B"):
        return _make_cubic(model, twist, blowdown, e_choice)
    raise ValidationError(f"unknown surface model {model!r}")


def _make_p2(
    a: int, b: int, twist: str, blowdown: Tuple[int, ...], e_choice: Optional[str]
) -> SurfaceSpec:
    if a < 0 or b < 0 or b > 3 or a + 2 * b > 6:
        raise ValidationError(f"P2[{a},{b}] is out of range (need a+2b <= 6, b <= 3)")
    if twist != "0":
        raise ValidationError(
            "twist F needs a disconnected real part; P2 models admit only twist 0"
        )
    if a == 1:
        raise ValidationError(
            "P2[1,b] has no auxiliary curve through two real or two conjugate points"
        )
    if a + 2 * b == 6:
        n_real, derived = a, tuple(sorted(blowdown))
        for j in derived:
            if j < 1 or j > 6:
                raise ValidationError(
                    f"cannot blow down index {j}: the lattice has E1..E6"
                )
            if j < 3:
                raise ValidationError(
                    f"cannot blow down index {j}: indices 1, 2 support E"
                )
    else:
        if blowdown:
            raise ValidationError(
                "explicit blow-down is only accepted on degree-3 models; "
                "lower-degree models derive their own"
            )
        if a == 0:
            if b == 0:
                raise ValidationError(
                    "the unblown plane carries no auxiliary (-1)-curve"
                )
            n_real = 0
            derived = tuple(range(2 * b + 1, 7))
        else:  # a >= 2: all-real completion of the remaining points
            n_real = 6 - 2 * b
            derived = tuple(range(a + 1, 6 - 2 * b + 1))
    conj = conj_perm_p2(n_real)
    for j in derived:
        if conj[j] != j and conj[j] not in derived:
            raise ValidationError(
                f"index {j} is one of a conjugate pair; blow down both"
            )
    e_default = DivisorClass((1, -1, -1, 0, 0, 0, 0))
    if e_choice is not None and parse_class(P2_LATTICE, e_choice) != e_default:
        raise ValidationError(
            "rank-7 models support only the auxiliary curve L - E1 - E2"
        )
    blocked = tuple(P2_LATTICE.lines[j - 1] for j in derived)
    menu = _p2_pair_menu(n_real, conj, e_default, blocked)
    sid = _surface_id("P2", a, b, twist, derived, P2_LATTICE, e_default)
    spec = SurfaceSpec(
        model="P2",
        a=a,
        b=b,
        twist=twist,
        lattice=P2_LATTICE,
        conj_perm=conj,
        n_real=n_real,
        e_class=e_default,
        blown_down=derived,
        blocked_classes=blocked,
        pair_menu=menu,
        surface_id=sid,
    )
    _check_menu(spec)
    return spec


def _make_cubic(
    model: str, twist: str, blowdown: Tuple[int, ...], e_choice: Optional[str]
) -> SurfaceSpec:
    if model == "B1":
        if blowdown:
            raise ValidationError("use model B for the contracted cubic")
        derived = ()
        default_e = DivisorClass((1, 0, 0))
    else:
        derived = tuple(sorted(blowdown)) or (1,)
        if derived != (1,):
            raise ValidationError("the conic bundle contracts exactly the line L1")
        default_e = DivisorClass((0, 1, 0))
    e_cls = default_e if e_choice is None else parse_class(CUBIC_LATTICE, e_choice)
    if e_cls not in CUBIC_LATTICE.lines:
        raise ValidationError("E must be one of the three real lines")
    if any(e_cls == CUBIC_LATTICE.lines[j - 1] for j in derived):
        raise ValidationError("the blow-down removes the chosen E")
    blocked = tuple(CUBIC_LATTICE.lines[j - 1] for j in derived)
    menu = _cubic_pair_menu(twist, e_cls)
    sid = _surface_id(model, 0, 0, twist, derived, CUBIC_LATTICE, e_cls)
    spec = SurfaceSpec(
        model=model,
        a=0,
        b=0,
        twist=twist,
        lattice=CUBIC_LATTICE,
        conj_perm=CONJ_ID_CUBIC,
        n_real=0,
        e_class=e_cls,
        blown_down=derived,
        blocked_classes=blocked,
        pair_menu=menu,
        surface_id=sid,
    )
    _check_menu(spec)
    return spec


def _surface_id(
    model: str,
    a: int,
    b: int,
    twist: str,
    blown: Tuple[int, ...],
    lat: Lattice,
    e_cls: DivisorClass,
) -> str:
    name = f"P2[{a},{b}]" if model == "P2" else model
    bd = ".".join(str(j) for j in blown) or "-"
    return f"{name}/t{twist}/bd{bd}/E{class_to_str(lat, e_cls)}"


def _p2_pair_menu(
    n_real: int,
    conj: Tuple[int, ...],
    e_cls: DivisorClass,
    blocked: Tuple[DivisorClass, ...],
) -> Tuple[PairItem, ...]:
    lat = P2_LATTICE
    mke = -(lat.canonical + e_cls)
    th1 = theta(1)

    def e(i: int) -> DivisorClass:
        return lat.lines[i - 1]

    def line(i: int, j: int) -> DivisorClass:
        base = [1, 0, 0, 0, 0, 0, 0]
        base[i] = base[j] = -1
        return DivisorClass(base)

    conj_pairs = [(i, conj[i]) for i in range(1, 7) if conj[i] > i]
    items = []
    if (1, 2) in conj_pairs:
        items.append(PairItem("2i", e(1) + e(2), th1, 1, (e(1), e(2))))
        items.append(
            PairItem("2iii", (mke - e(1)) + (mke - e(2)), th1, 1, (mke - e(1), mke - e(2)))
        )
    high_pairs = [p for p in conj_pairs if p[0] >= 3]
    for i in range(3, min(n_real, 6) + 1):
        for j, k in high_pairs:
            members = (line(i, j), line(i, k))
            items.append(
                PairItem(f"2ii.{i}.{j}{k}", members[0] + members[1], th1, 1, members)
            )
    for (p, pc), (q, qc) in itertools.combinations(high_pairs, 2):
        for mem in ((line(p, q), line(pc, qc)), (line(p, qc), line(pc, q))):
            items.append(
                PairItem(
                    f"2iv.{_idx(mem[0])}.{_idx(mem[1])}", mem[0] + mem[1], th1, -1, mem
                )
            )
    kept = []
    for it in items:
        crosses = any(
            lat.intersect(member, blk) != 0
            for member in it.members
            for blk in blocked
        )
        if not crosses:
            kept.append(it)
    return tuple(kept)


def _idx(d: DivisorClass) -> str:
    return "".join(str(i) for i in range(1, 7) if d.coords[i] != 0)


def _cubic_pair_menu(twist: str, e_cls: DivisorClass) -> Tuple[PairItem, ...]:
    # Four pairs of conjugate lines cross E; each pair sums to -(K+E) and
    # its two lines meet at one real point.  Under the twist the two pairs
    # meeting away from the marked component flip sign to +1.
    class_sum = -(CUBIC_LATTICE.canonical + e_cls)
    th1 = theta(1)
    weights = {"0": (-1, -1, -1, -1), "F": (-1, -1, 1, 1)}[twist]
    return tuple(
        PairItem(f"pair{i}", class_sum, th1, w)
        for i, w in zip((2, 3, 4, 5), weights)
    )


def _check_menu(spec: SurfaceSpec) -> None:
    for item in spec.pair_menu:
        if spec.e_degree(item.class_sum) < 1:
            raise ValidationError(f"menu item {item.item_id} misses E")
        beta_norm = 2 * sum(c for _, c in item.beta_im)
        if spec.r_dim_pair(item.class_sum, beta_norm) != 0:
            raise ValidationError(f"menu item {item.item_id} has wrong dimension")
        if not spec.is_real_class(item.class_sum):
            raise ValidationError(f"menu item {item.item_id} is not conj-invariant")
        if item.members is not None and spec.conj(item.members[0]) != item.members[1]:
            raise ValidationError(f"menu item {item.item_id} members not conjugate")


# -- surface DSL ----------------------------------------------------------------


def parse_surface(
    surface: str,
    twist: str = "0",
    blowdown: str = "",
    e_choice: Optional[str] = None,
) -> SurfaceSpec:
    """Build a spec from CLI-style text: ``P2[a,b]`` / ``B1`` / ``B``."""
    surface = surface.strip()
    bd: Tuple[int, ...] = ()
    if blowdown.strip():
        try:
            bd = tuple(int(p) for p in blowdown.split(","))
        except ValueError:
            raise ParseError(f"cannot parse blow-down list {blowdown!r}") from None
    if surface in ("B1", "B"):
        return make_surface(surface, twist=twist, blowdown=bd, e_choice=e_choice)
    if surface.startswith("P2[") and surface.endswith("]"):
        body = surface[3:-1]
        try:
            a_str, b_str = body.split(",")
            a, b = int(a_str), int(b_str)
        except ValueError:
            raise ParseError(f"cannot parse surface {surface!r}") from None
        return make_surface("P2", a, b, twist=twist, blowdown=bd, e_choice=e_choice)
    raise ParseError(f"unknown surface {surface!r} (expected P2[a,b], B1 or B)")
