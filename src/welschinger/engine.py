"""Memoized exact evaluator of the curve-count recursion.

A state ("key") is a real divisor class D together with two odd-support
tangency vectors: alpha fixes intersection points with the auxiliary curve
E, beta lets them move.  The number of free point constraints is the
expected dimension n = -D.(K+E) + |beta| - 1.  The recursion expresses the
signed count at n > 0 through states of smaller n:

* the first sum converts one moving tangency of each available order into
  a fixed one (k-th summand: alpha + theta_k, beta - theta_k);
* the split sum runs over ways the counted curves can degenerate into the
  auxiliary curve plus a collection of components.  A summand chooses
  multiplicities consumed by fixed points (alpha0 <= alpha), by moving
  points (beta0 <= beta, weight 2^|beta0|/beta0!), a number l >= 0 of
  components on the two pencil members tangent to E (weight l + 1), an
  unordered collection of divisor-class factors, each decorated with its
  own (alpha_i, beta_i) and a marked moving branch gamma_i = theta_j, and
  a subset of the finite conjugate-pair menu.  The class equation

      D - E = sum [D_i] - (2l + I(alpha0) + I(beta0)) (K + E)

  together with the marked-branch balance sum(beta_i - gamma_i) =
  beta - beta0 pins the combinatorics; the factor dimensions then satisfy
  sum n_i = n - 1 - |beta0|, which makes the combined coefficient
  2^|beta0| (n-1)! / (prod n_i! * beta0!) a genuine multinomial.  Both
  identities are enforced, not assumed: any violation raises.

All arithmetic is exact (Python integers); the only divisions are inside
integer multinomials and by the stabilizer of repeated factors, checked to
leave no remainder.

One generator, Evaluator._summands, is the only encoding of a recursion
step: it yields each summand as a plain tuple with its integer
contribution.  eval sums the contributions, with the split sum folded
into one summand per search a state makes (its weight S, see
_split_terms); only expand, which the trace prints, asks for a summand per
factor collection and turns those into TermRecord/FactorRecord objects.

Values are memoized per relabelling orbit, by the surface's one map,
SurfaceSpec.orbit_map.  Its mode move_e False admits the relabellings that
fix E = L - E1 - E2, and so a state's value: swapping E1 and E2 when both
are real, permuting the other real points, and permuting whole conjugate
pairs with i >= 3, blown-down points left in place.  (The scans' mode
move_e True also moves E1 and E2: it keeps W(D) but not a state.)  The
memo is keyed by the image, so a state is computed once per orbit and its
relabelled members read it back.  The factor options carry their keys
already mapped.  Only the keys change: the recursion still enumerates raw
classes, so terms, traces and values are those of the raw state.  The
symmetry factor of a factor collection therefore compares the picks
themselves, never their memo keys: two factors of one orbit share a key
but are different factors.  On the cubic the map is the identity and the
key stays the raw coordinates.  `canonicalize=False` keys the memo by raw
classes, the oracle the relabelling checks need.

The surface's constants (the orbit map, the pair subsets, K + E, and the
forms whose dot products with a class's coordinates are its E-, -K and
-(K + E) degrees) are SurfaceSpec's cached properties, built once per spec.

A persistent store (store.py) is read on demand: a memo miss of the full
route formats the key, with the function that also writes the store, and
adopts a stored value into the memo.  Its keys are orbit representatives;
a record of another member of an orbit, as a raw-keyed memo writes them,
is valid but never read.

On the two-component cubic with the component twist a second route runs
through the same recursion with restricted summands: l = 0 only, no pair
items, and rigid factors restricted to real lines.  It keeps its own memo,
and never reads the store, so cross-route equality is a genuine check
rather than a cache read-back.

Each route also keeps one factor table: a block of picks for every
candidate class, sorted by (-K degree, coords).  Candidacy depends
only on the class and its degree, so the candidates under a smaller
anticanonical budget are the table's prefix of degree <= budget.  A block
b enters a complete collection of a key only if t - b is feasible
(picard.feasible: a coordinate fit and the 27 conic inequalities), where
t = D - E is the key's c = 0 target, and the key's target covers those of
every state below it (the proof is at _table).  So the first table a route
builds holds only the candidates of the target of the key that asked for
it, at its budget: a cold evaluation enumerates once, and only what it can
use.  A state the table does not cover switches it to the whole cone at
the larger budget, reusing the blocks already built; a whole-cone table
grows by the blocks of its new degrees, so a warm evaluator ends with the
whole cone.
A class's options depend on the class only through its E-degree and its
dimensions n_i = (-K.D - E.D - 1) + |beta|, so each E-degree has one
sorted template of tangency decorations (alpha, beta and the marked
branches), built once per process and shared by every surface; a block
stamps its class's n_i onto the template's rows as a flat list of picks,
one per option and marked branch, each with the index where a collection
holding it continues.

Each route admits the split targets of a class D once, for every state
(D, alpha, beta), in _split_terms.  A target T = D - E + c (K + E) - P
depends only on D, c = 2l + I(alpha0) + I(beta0) and the pair subset P,
so the route lists, per c, the targets that are zero, or that have both
degrees >= 1 and are feasible (picard.feasible).  A state's (alpha0,
beta0, l) summands read that list and test only the beta balance
I(beta - beta0) <= E.T - 1 of a nonzero T.
Only _split_terms decides which targets a state can split into; the
search takes what it is handed.

The factor search walks the route's whole table: at a node with
remainder t, the blocks from the node's block index on in table order,
and their picks from that index on.  It descends into a block b only when
the blocks can still finish t with it: t - b is zero, or some block at
or after b, in table order, finishes t - b in turn.  The test depends
only on t and the table, so it runs once per (table, remainder): each
table keeps a fit memo, per remainder the blocks it can be finished with
and their remainders t - b (_fitting), built recursively through the same
memo, and a node reads its remainder's entry from its own block index on
(bisect).  Before it recurses, an entry drops the blocks that fail a test
every sum of blocks passes: b = t where b uses up the E-degree or the -K
degree, else t - b feasible, the coordinate fit first (rank 7: b_0 <=
t_0, b_1 >= t_1 - 1, b_2 >= t_2 - 1, b_i >= t_i for i >= 3; rank 3: b_i
<= t_i), then on rank 7 the conic half.  So the search never enters a
remainder no later block finishes, and reads no factor value of the
blocks it would have walked there: a cold P2[6,0] -3K evaluates 355
states, a cold twisted-cubic -6K 2 319.  A pick whose remainder would
fail the beta balance I(beta_rem) <= E.t_rem - 1 is skipped before the
search descends into it.

A block's picks are tested the same way: whether a pick fits the node's n
budget and alpha budget, and whether its factor's value is nonzero,
depends on the block and those two budgets only.  So each block keeps a
live-pick memo (_live_picks): per (n budget, alpha budget packed), or per
n budget alone where no pick fixes a tangency (every block of E-degree 1),
the tuple of the indices of the picks that pass, ascending, and a node walks
its entry from the node's pick index on (bisect), testing only the beta
fit.  The n budget is clamped to the block's largest n_i, and a node
whose n budget is below the block's least n_i skips the block, so
budgets that admit the same picks share an entry.  Building an entry
reads only values the search reads anyway, in another order (the proof
is at _collections).  Blocks are kept as the same objects across table
switches and growth, so their entries are too; each route builds its own
blocks and so its own entries.

The search holds its remaining alpha budget and beta target packed
(tangency.pack): one integer per vector, an 8-bit field per odd order
with a guard bit, so that a pick's fit is one subtraction and mask and
its remainder one integer subtraction.  The template rows and options
carry their packed vectors next to the TangencyVector ones, and the
process lists the v0 <= v of a tangency vector v, with |v0|, I(v0) and
v - v0 packed, once for all states (_split_list): their alpha0 and beta0
choices.
Only the search sees the packed form: keys, summands, records and the
store hold TangencyVector objects.

Each route also keeps a search memo: the weight S of a search, one
integer that sums its complete factor collections, each with the search's
part of its coefficient, its weights and its factors' values
(_split_terms), keyed by (T, alpha budget, beta target), T the
coordinates of the search's target and the two tangency budgets packed;
the n budget is not in the key, as T and the beta target fix it.
A state (D, alpha, beta) and its first-sum children (D, alpha + theta_k,
beta - theta_k) repeat each other's searches: the child's alpha0 +
theta_k and beta0 - theta_k give the parent's c = 2l + I(alpha0) +
I(beta0), budgets and n - 1 - |beta0|.  The first search runs and every
later one reads its S; a zero S is kept too.  A target that
_split_terms does not admit is never searched and gets no entry.  The
table the search walks stays out of the key: every table that covers a
state reaching T holds every block of every complete collection of T, as
the same object and in the one table order (the proof is at
_split_terms), so a result does not depend on who asked.  The memo costs
one integer for every distinct search, not per state: the collections are
folded as their search ends and then dropped.  expand searches its key's
split sum afresh, without the memo, and leaves it as it was; its records
come from the collections, never from S, which can be zero for a search
that has collections.  The search keys and the fit memos share one tuple
per distinct target or remainder (the route's targets), and a fit memo
holds one flat tuple per remainder, block indices then remainders; it
goes with its table when a switch or growth replaces it.
In exchange a repeated search costs one lookup instead of its nodes.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import InternalCheckError, ValidationError
from .picard import DivisorClass, candidate_factors, class_to_str, feasible
from .store import Store
from .surfaces import SurfaceSpec
from .tangency import (
    GUARD,
    TangencyVector,
    entries_str,
    enumerate_le,
    is_odd_support,
    iweight,
    multinomial,
    norm,
    odd_partitions,
    pack,
    theta,
)

# One summand of a recursion step, as _summands yields it: (kind, k, l,
# alpha0, beta0, chosen factors, pair ids, coefficient, contribution).  A
# split summand of one factor collection (records) lists the collection's
# picks, the blocks' own (option, gamma row, restart index) tuples (see
# _Block), in pick order; a factor's value is the route's memo entry under
# its option's memo key.  Its coefficient is the state's part 2^|beta0|
# C(n-1; ns, beta0) C(alpha; alpha0) (l + 1) times the collection's
# _weight.  A folded split summand stands for every collection of one
# search: it lists no factors, its coefficient is the state's part, and its
# contribution carries the search's weight S (see _split_terms).
Summand = Tuple[
    str, Optional[int], int, TangencyVector, TangencyVector, tuple,
    Tuple[str, ...], int, int,
]


@dataclass(frozen=True)
class EvalKey:
    """Canonical evaluation state (surface id, D, alpha, beta)."""

    surface_id: str
    d: DivisorClass
    alpha: TangencyVector
    beta: TangencyVector


def make_key(
    spec: SurfaceSpec,
    d: DivisorClass,
    alpha: TangencyVector,
    beta: TangencyVector,
) -> EvalKey:
    if not spec.is_real_class(d):
        raise ValidationError(f"class {spec.class_str(d)} is not conjugation-invariant")
    if not (is_odd_support(alpha) and is_odd_support(beta)):
        raise ValidationError("tangency vectors must have odd support")
    if iweight(alpha) + iweight(beta) != spec.e_degree(d):
        raise ValidationError(
            f"I(alpha)+I(beta) = {iweight(alpha) + iweight(beta)} "
            f"!= D.E = {spec.e_degree(d)}"
        )
    if not spec.class_allowed(d):
        raise ValidationError(f"class {spec.class_str(d)} crosses a blown-down curve")
    return EvalKey(spec.surface_id, d, alpha, beta)


@dataclass(frozen=True)
class FactorRecord:
    d: DivisorClass
    alpha: TangencyVector
    beta: TangencyVector
    gamma: TangencyVector
    n_i: int
    value: int


@dataclass(frozen=True)
class TermRecord:
    """One summand of the recursion right-hand side."""

    kind: str  # "first_sum", "split" or "initial"
    k: Optional[int]
    l: int
    alpha0: TangencyVector
    beta0: TangencyVector
    factors: Tuple[FactorRecord, ...]
    pair_ids: Tuple[str, ...]
    coefficient: int
    contribution: int

    def to_dict(self, spec: SurfaceSpec) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "l": self.l,
            "alpha0": str(self.alpha0),
            "beta0": str(self.beta0),
            "factors": [
                {
                    "class": spec.class_str(f.d),
                    "alpha": str(f.alpha),
                    "beta": str(f.beta),
                    "gamma": str(f.gamma),
                    "n": f.n_i,
                    "value": str(f.value),
                }
                for f in self.factors
            ],
            "pair_ids": list(self.pair_ids),
            "coefficient": str(self.coefficient),
            "contribution": str(self.contribution),
        }


@dataclass(frozen=True)
class _Option:
    """One decorated way a candidate class can appear as a factor."""

    cls: DivisorClass
    alpha: TangencyVector
    palpha: int  # alpha packed (tangency.pack), 0 when alpha = 0
    beta: TangencyVector
    n_i: int
    memo_key: tuple = ()


@dataclass(frozen=True)
class _Block:
    """One candidate class and its picks, for the factor search."""

    coords: Tuple[int, ...]
    e_deg: int
    antik: int
    # (option, its template's gamma row, index where a collection holding
    # the pick continues), in (option, gamma) order; see Evaluator._picks
    picks: Tuple[Tuple[_Option, tuple, int], ...]
    n_min: int  # the least and the largest n_i of the picks
    n_max: int
    a_step: int  # n_max + 1, or 0 when no pick fixes a tangency (alpha_i = 0)
    # live-pick memo: a * a_step + n for the n budget n clamped to n_max and
    # the packed alpha budget a -> the indices into picks that
    # Evaluator._live_picks(n, a) keeps; see Evaluator._collections
    live: Dict[int, tuple] = field(default_factory=dict, compare=False, repr=False)


@dataclass(eq=False)
class _Route:
    """Which summands one route through the recursion admits, its memo and
    its factor table."""

    memo: Dict[tuple, int]
    l_max: float  # largest l of the split sum: math.inf or 0
    # admitted subsets of the pair menu: (item ids, class-sum coords, its
    # E-degree, its -K degree, weight)
    pair_subsets: Tuple[Tuple[Tuple[str, ...], Tuple[int, ...], int, int, int], ...]
    rigid_lines_only: bool  # rigid factors must be real lines other than E
    # (budget, c = 0 target or None for the whole cone, blocks of every
    # candidate of -K degree <= budget the target can hold, the blocks' fit
    # memo: remainder coords -> Evaluator._fitting of it); only ever
    # replaced whole, see Evaluator._table
    table: tuple = field(default_factory=lambda: (0, None, (), {}))
    store: Optional[Store] = None  # read on a memo miss; full route only
    # (target coords, alpha budget, beta target) -> the weight S of that
    # search; see Evaluator._split_terms
    searches: Dict[tuple, int] = field(default_factory=dict)
    # one tuple object per distinct search target or remainder, shared by
    # the search memo's keys and the fit memos
    targets: Dict[tuple, tuple] = field(default_factory=dict)
    # raw D coords -> the split targets every state of class D admits, per
    # c: (T, E.T, -K.T, pair ids, weight); see Evaluator._split_targets
    split_targets: Dict[tuple, tuple] = field(default_factory=dict)


def _symmetry_factor(chosen) -> int:
    """Order of the stabilizer of a canonically sorted factor collection:
    the product of multiplicities! over repeated identical decorated
    (class, alpha, beta, gamma) picks.

    Each (class, alpha, beta, gamma) of a table is one pick tuple, so the
    same object means the same raw decorated factor.  The memo keys do not:
    two options of one relabelling orbit share their memo key, and counting
    them as repeats would divide by a wrong stabilizer."""
    sym = 1
    run = 1
    for i in range(1, len(chosen)):
        if chosen[i] is chosen[i - 1]:
            run += 1
            sym *= run
        else:
            run = 1
    return sym


@functools.lru_cache(maxsize=None)
def _option_template(e_deg: int) -> Tuple[tuple, ...]:
    """The decorations any candidate class of E-degree `e_deg` can carry, in
    canonical (alpha, beta) order.  A row is (alpha, alpha packed, beta,
    |beta|, gammas, alpha key, beta key, whether alpha = 0 and beta =
    theta_1); the gammas are (gamma, beta - gamma packed, I(beta - gamma),
    beta_j) per order j in the support of beta.  The packed forms
    (tangency.pack) are what the factor search compares and subtracts; the
    vectors go into the records.  Beta stays nonzero:
    I(beta) = e_deg - I(alpha) >= 1.  Nothing here depends on the surface,
    so the rows are shared."""
    th1 = theta(1)
    rows = []
    for ia in range(e_deg):
        for av in odd_partitions(ia):
            for bv in odd_partitions(e_deg - ia):
                gammas = tuple(
                    (theta(j), pack(bv - theta(j)), iweight(bv) - j, bv[j])
                    for j in bv.support()
                )
                rows.append(
                    (av, pack(av), bv, norm(bv), gammas, av.key(),
                     bv.key(), not av and bv == th1)
                )
    rows.sort(key=lambda row: (row[5], row[6]))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _split_list(v: TangencyVector) -> tuple:
    """The (v0, |v0|, I(v0), pack(v) - pack(v0)) for each v0 <= v, in
    enumerate_le order: the alpha0 and beta0 lists of
    Evaluator._split_terms, built once per process."""
    p_v = pack(v)
    return tuple(
        (v0, norm(v0), iweight(v0), p_v - pack(v0)) for v0 in enumerate_le(v)
    )


def _multinomial_exact(total: int, parts: List[int], context: str) -> int:
    """(total)! / prod(parts!) with sum(parts) == total, division-free."""
    result = 1
    remaining = total
    for p in parts:
        if p < 0 or p > remaining:
            raise InternalCheckError(
                f"dimension bookkeeping failed ({context}): parts {parts} vs {total}"
            )
        result *= math.comb(remaining, p)
        remaining -= p
    if remaining != 0:
        raise InternalCheckError(
            f"dimension bookkeeping failed ({context}): parts {parts} sum < {total}"
        )
    return result


def _weight(chosen: tuple, ns: int, a_rest: TangencyVector) -> int:
    """The search's part of the coefficient of the factor collection chosen
    (see Evaluator._split_terms): C(ns; n_i) multinomial(a_rest; alpha_i) /
    sym * prod bweight, for the n budget ns and the alpha budget a_rest.
    The division by the stabilizer order sym is exact, and checked."""
    weight = _multinomial_exact(
        ns, [opt.n_i for opt, _, _ in chosen], "sum n_i = n-1-|beta0|"
    )
    parts = [opt.alpha for opt, _, _ in chosen if opt.palpha]
    if parts:
        weight *= multinomial(a_rest, parts)
    sym = _symmetry_factor(chosen)
    if sym > 1:
        weight, rem = divmod(weight, sym)
        if rem:
            raise InternalCheckError("symmetrized weight is not an integer")
    for _, row, _ in chosen:
        weight *= row[3]  # bweight, beta_j for the marked branch gamma = theta_j
    return weight


class Evaluator:
    """Shared-store evaluator bound to one surface specification.

    Thread-safety: every memo (values, searches, split targets, the tables'
    fit memos, the blocks' live-pick memos and the table of their distinct
    entries) belongs to one evaluator and changes only by idempotent
    dictionary inserts under canonical value-determining keys, so concurrent
    use converges to identical contents: two threads that make the same
    search at once store equal ints S (see _split_terms), two that build one
    split-target entry store equal tuples, and two that build one block's
    live entry store equal tuples of ints, indices into that block's picks.
    The spec's constants and the process's split lists are built from the
    spec or the vector alone, so a race builds equal ones.  A
    route's factor table is never mutated in place: a switch to the whole
    cone or a growth replaces the route's (budget, target, blocks, fit
    memo), the memo new and empty, in one assignment, so a reader holds the
    old table or the new one, each complete for its budget and target.  A
    search keeps the blocks and fit memo it was handed as one pair, so a
    nested evaluation that replaces the table cannot make its indices point
    into another table.
    """

    def __init__(
        self,
        spec: SurfaceSpec,
        store: Optional[Store] = None,
        canonicalize: bool = True,
    ):
        self.spec = spec
        self.hits = 0
        self.misses = 0
        # memo keys are orbit representatives; off, the memo is keyed by raw
        # classes (the oracle the relabelling checks need)
        self._canon = spec.state_map if canonicalize else None
        self._full = _Route({}, math.inf, spec.pair_subsets, False)
        # The reduced route of the twisted cubic; pair_subsets[0] is the empty one.
        self._reduced = _Route({}, 0, spec.pair_subsets[:1], True)
        self._zero_coords = (0,) * spec.lattice.rank
        self._indices: Tuple[int, ...] = ()  # shared by the fit memos, see _fitting
        # one tuple object per distinct live-pick entry, see _live_picks
        self._live_entries: Dict[tuple, tuple] = {}
        if store:
            self.preload(store)

    # -- public API --------------------------------------------------------------

    def eval(self, key: EvalKey) -> int:
        if key.surface_id != self.spec.surface_id:
            raise ValidationError(
                f"key for {key.surface_id} evaluated on {self.spec.surface_id}"
            )
        return self._value(self._full, key.d, key.alpha, key.beta)

    def expand(self, key: EvalKey) -> List[TermRecord]:
        """The exact top-level summands whose contributions total eval(key):
        the initial or first-sum records in recursion order, then the split
        records sorted."""
        if key.surface_id != self.spec.surface_id:
            raise ValidationError("trace key does not match the evaluator surface")
        route = self._full
        records: List[TermRecord] = []
        split: List[TermRecord] = []
        for kind, k, l, alpha0, beta0, chosen, pair_ids, coeff, contribution in (
            self._summands(route, key.d, key.alpha, key.beta, records=True)
        ):
            factors = tuple(
                FactorRecord(
                    opt.cls, opt.alpha, opt.beta, row[0], opt.n_i,
                    route.memo[opt.memo_key],
                )
                for opt, row, _ in chosen
            )
            record = TermRecord(
                kind, k, l, alpha0, beta0, factors, pair_ids, coeff, contribution
            )
            (split if kind == "split" else records).append(record)
        split.sort(
            key=lambda t: (
                t.l,
                t.alpha0.key(),
                t.beta0.key(),
                t.pair_ids,
                tuple(
                    (f.d.coords, f.alpha.key(), f.beta.key(), f.gamma.key())
                    for f in t.factors
                ),
            )
        )
        return records + split

    def eval_cubic_fast(self, key: EvalKey) -> int:
        """Reduced recursion on the two-component cubic, component twist only."""
        if self.spec.lattice.model != "cubic" or self.spec.twist != "F":
            raise ValidationError(
                "the reduced recursion applies to the cubic with twist F only"
            )
        if key.surface_id != self.spec.surface_id:
            raise ValidationError("key does not match the evaluator surface")
        return self._value(self._reduced, key.d, key.alpha, key.beta)

    def cache_stats(self) -> dict:
        """Memo size and lookups of the full route, the one the store holds.

        `hits` and `misses` count the lookups made through _value: the top
        key, first-sum children, store adoptions and factor values the
        search does not find in the memo.  The factor search reads the
        values it finds straight from the memo and counts none of those
        reads, so `hits` leaves out most reuse of factor values."""
        return {
            "entries": len(self._full.memo), "hits": self.hits, "misses": self.misses
        }

    # -- persistent-store bridge ----------------------------------------------------

    def preload(self, store: Store) -> None:
        """Attach a string-keyed store to the full route, which looks its
        records of this surface up on memo misses."""
        self._full.store = store

    def dump(self, store: Optional[Store] = None) -> Store:
        """Serialize the in-memory memo into a string-keyed store."""
        if store is None:
            store = {}
        for key, value in self._full.memo.items():
            store[self._store_key(key)] = value
        return store

    def _store_key(self, key: tuple) -> str:
        """The store's string form of a memo key (coords, alpha, beta)."""
        coords, a_key, b_key = key
        d_str = class_to_str(self.spec.lattice, DivisorClass(coords))
        a_str, b_str = entries_str(a_key), entries_str(b_key)
        return f"{self.spec.surface_id}|{d_str}|{a_str}|{b_str}"

    # -- main recursion ------------------------------------------------------------

    def _value(
        self,
        route: _Route,
        d: DivisorClass,
        alpha: TangencyVector,
        beta: TangencyVector,
    ) -> int:
        canon = self._canon
        key = (canon(d.coords) if canon else d.coords, alpha.key(), beta.key())
        counted = route is self._full  # cache_stats covers the full route only
        cached = route.memo.get(key)
        if cached is None and route.store:
            cached = route.store.get(self._store_key(key))
            if cached is not None:
                route.memo[key] = cached
        if cached is not None:
            self.hits += counted
            return cached
        self.misses += counted
        value = 0
        for summand in self._summands(route, d, alpha, beta):
            value += summand[-1]
        route.memo[key] = value
        return value

    def _summands(
        self,
        route: _Route,
        d: DivisorClass,
        alpha: TangencyVector,
        beta: TangencyVector,
        records: bool = False,
    ) -> Iterator[Summand]:
        """One recursion step at (d, alpha, beta): its summands, whose
        contributions total the state's value.  None below dimension 0; at
        dimension 0 the one initial summand, a table lookup; above it the
        first sum in beta order, then the split sum, folded per search
        unless records asks for a summand per factor collection."""
        # n = -D.(K + E) + |beta| - 1
        n = sum(map(operator.mul, d.coords, self.spec.dim_form)) + norm(beta) - 1
        if n < 0:
            return
        if n == 0:
            weight = self.spec.initial_weight(d, alpha, beta)
            yield ("initial", None, 0, alpha, beta, (), (), 1, weight)
            return
        zero = TangencyVector.zero()
        for k, _ in beta:
            child = self._value(route, d, alpha + theta(k), beta - theta(k))
            yield ("first_sum", k, 0, zero, zero, (), (), 1, child)
        yield from self._split_terms(route, d, alpha, beta, n, records)

    def _split_terms(
        self,
        route: _Route,
        d: DivisorClass,
        alpha: TangencyVector,
        beta: TangencyVector,
        n: int,
        records: bool = False,
    ) -> Iterator[Summand]:
        """The split sum at (d, alpha, beta) of dimension n, by
        (alpha0, beta0, l, pair subset).  The route admits the targets of
        class d once per (c, pair subset), for every state of that class
        (_split_targets), and each (alpha0, beta0, l) tests only its beta balance
        against them.  With records, a summand per factor collection, each
        from a fresh search; else one summand per (alpha0, beta0, l, pair
        subset) with a nonzero weight S, as follows.

        A collection's coefficient factors into a part of the state and a
        part of the search.  With ns = n - 1 - |beta0| the search's n
        budget, a_rest = alpha - alpha0 its alpha budget, and (n_i,
        alpha_i) the factors' dimensions and fixed tangencies:

            (n-1)! / (prod n_i! beta0!) = C(n-1; ns, beta0) C(ns; n_i),
            multinomial(alpha; alpha0, alpha_i)
                = C(alpha; alpha0) multinomial(a_rest; alpha_i).

        So a collection's coefficient is the state's part 2^|beta0|
        C(n-1; ns, beta0) C(alpha; alpha0) (l + 1) times the search's part
        w = C(ns; n_i) multinomial(a_rest; alpha_i) / sym * prod bweight
        (_weight), and the summand's contribution is the state's part *
        pair weight * S, where S = the sum over the search's collections
        of w * prod value (_fold).  The division by the stabilizer order sym
        is exact: a rigid option (n_i = 0, alpha_i = 0) appears at most
        once, so each group of identical factors has n_i >= 1 or alpha_i !=
        0, and permuting its factors permutes their nonempty sets of
        labelled points.  That action on the assignments of the ns moving
        and the a_rest fixed labelled points to the factors, which C(ns;
        n_i) multinomial(a_rest; alpha_i) counts, is free, so sym divides
        the count; _weight divides before it multiplies by the weights, and
        still refuses a remainder.

        S depends on the search only, so it is computed once per route:
        the search memo keeps it under (T, alpha budget, beta target), for
        T the search's target, and serves it to every state that asks
        again.  A summand (alpha0, beta0) with beta0 >= theta_k and the
        summand (alpha0 + theta_k, beta0 - theta_k) of the first-sum child
        (d, alpha + theta_k, beta - theta_k) have the same c, the same
        budgets and so the same searches.  The key leaves out the n budget
        ns = n - 1 - |beta0|, as T and the beta target fix it: with
        n = -D.(K + E) + |beta| - 1, E.(K + E) = -2, (K + E)^2 = 0 and
        P.(K + E) = 0 for every pair item P (on every model here),
        -T.(K + E) = -D.(K + E) - 2, so ns = -T.(K + E) + |beta - beta0|.

        The table a state hands the search stays out of that key, since
        the result does not depend on it.  Let T = t + c (K + E) - P be
        the target of a search of a state with c = 0 target t = D - E.

        * A block b of a complete collection of T fits t: T - b is the sum
          of the collection's other blocks, so it is feasible, and then
          t - b = (T - b) - c (K + E) + P is feasible by the argument in
          _table.  That holds for every state that reaches T, whatever its
          t.
        * Its -K degree is at most -K.T <= -K.t, the state's budget, as
          -K.(K + E) = -2 and -K.P >= 0.  So b is in the table that covers
          t at that budget (the proof at _table): every state's table holds
          every block of every complete collection of T.  A table may hold
          more, blocks of larger degree or of the whole cone, but no
          complete collection of T uses them.
        * A table switch or growth keeps the blocks it had, as the same
          objects, and every table is in (-K degree, coords) order.  So any
          two states' tables are ordered subsequences of one sequence, with
          the same objects.

        The search finds exactly the collections whose blocks are all in
        its table, each as its picks in table order, which is that one
        sequence's order: the fit memo it reads lists a remainder's blocks
        by their index in that same table, ascending.  Those lists keep
        only the blocks with which a remainder can be finished (_fitting),
        and lose no block of a complete collection of T: the blocks after
        any pick of it finish that pick's remainder, a non-decreasing run
        from the pick's block on, so each of them passes the fit test
        where the search meets it, and by induction on the number of
        blocks left every block of the collection is in the lists the
        search walks.  So the same key gives the same tuple of the same
        pick objects from any state, and _symmetry_factor, which tests
        picks for identity, counts the same repeats: the same S.
        """
        spec = self.spec
        d_minus_e = tuple(map(operator.sub, d.coords, spec.e_class.coords))
        budget = sum(map(operator.mul, d.coords, spec.antik_form)) - 1  # -K.(D - E)
        table = self._table(route, budget, d_minus_e) if budget >= 1 else ((), {})
        admitted = self._split_targets(route, d, d_minus_e, budget)
        n1 = n - 1
        i_beta = iweight(beta)
        # The search takes its alpha budget and beta target packed
        # (tangency.pack), alpha - alpha0 and beta - beta0.
        beta0s = _split_list(beta)
        searches = route.searches
        for alpha0, _, ia0, a_budget in _split_list(alpha):
            for beta0, nb0, ib0, bm_target in beta0s:
                if nb0 > n1:
                    continue
                ns_target = n1 - nb0
                ibm = i_beta - ib0
                coeff = 0  # the state's part, computed at the first S != 0
                # c = 2l + I(alpha0) + I(beta0) for l = 0, 1, ...
                for l, row in enumerate(admitted[ia0 + ib0::2]):
                    if l > route.l_max:
                        break
                    for t, te, ak, pair_ids, p_weight in row:
                        # a nonzero T needs the beta balance I(beta - beta0)
                        # <= E.T - 1
                        if te and ibm >= te:
                            continue
                        if records:
                            found = self._collections(
                                route, t, te, ak, a_budget, bm_target, ibm,
                                ns_target, table,
                            )
                            if not found:
                                continue
                        else:
                            # T and the beta target fix the n budget ns (the
                            # proof is in the docstring), so the key leaves
                            # it out
                            key = (t, a_budget, bm_target)
                            s = searches.get(key)
                            if s is None:
                                s = searches[key] = self._fold(
                                    route, self._collections(
                                        route, t, te, ak, a_budget, bm_target,
                                        ibm, ns_target, table,
                                    ), ns_target, alpha - alpha0,
                                )
                            if not s:
                                continue
                        if not coeff:
                            coeff = 1 << nb0
                            if alpha0:
                                coeff *= multinomial(alpha, [alpha0])
                            coeff *= _multinomial_exact(
                                n1, [ns_target] + [cnt for _, cnt in beta0],
                                "n - 1 = ns + |beta0|",
                            )
                        c_l = coeff * (l + 1)  # the weight of l pencil components
                        if not records:
                            yield (
                                "split", None, l, alpha0, beta0, (), pair_ids, c_l,
                                c_l * p_weight * s,
                            )
                            continue
                        a_rest = alpha - alpha0
                        for chosen in found:
                            c = c_l * _weight(chosen, ns_target, a_rest)
                            value = c * p_weight
                            # the search read every factor's value
                            for opt, _, _ in chosen:
                                value *= route.memo[opt.memo_key]
                            yield (
                                "split", None, l, alpha0, beta0, chosen, pair_ids, c,
                                value,
                            )

    def _split_targets(
        self, route: _Route, d: DivisorClass, d_minus_e: Tuple[int, ...], budget: int
    ) -> tuple:
        """The split targets of every state of class d on the route, listed
        once per route and class."""
        admitted = route.split_targets.get(d.coords)
        if admitted is not None:
            return admitted
        # Per c from 0 while E.(D - E + c (K + E)) >= 0 (E.(K + E) = -2),
        # the (T, E.T, -K.T, pair ids, weight) for T = D - E + c (K + E) -
        # P, P a pair subset's class sum, built on the coordinates with
        # their two degrees: those with T = 0, or with both degrees >= 1 and
        # T feasible (picard.feasible).  Only these reach the search.
        spec = self.spec
        zero_t = self._zero_coords
        ke, ke_antik, e_form = spec.ke_coords, spec.ke_antik, spec.e_form
        te_base = sum(map(operator.mul, d.coords, e_form)) + 1  # E.(D - E)
        intern = route.targets.setdefault
        admitted = []
        for c in range(te_base // 2 + 1):
            t = tuple([x + c * y for x, y in zip(d_minus_e, ke)])
            te = te_base - 2 * c
            if sum(map(operator.mul, t, e_form)) != te:
                raise InternalCheckError("degree bookkeeping failed on T")
            ak = budget + c * ke_antik
            row = []
            for pair_ids, p_coords, p_te, p_ak, p_weight in route.pair_subsets:
                tp = tuple(map(operator.sub, t, p_coords))
                tp_te, tp_ak = te - p_te, ak - p_ak
                if tp == zero_t or (
                    tp_te >= 1 and tp_ak >= 1 and feasible(spec.lattice, tp)
                ):
                    row.append((intern(tp, tp), tp_te, tp_ak, pair_ids, p_weight))
            admitted.append(tuple(row))
        admitted = route.split_targets[d.coords] = tuple(admitted)
        return admitted

    def _fold(
        self,
        route: _Route,
        collections: Iterable[Tuple[Tuple[_Option, tuple, int], ...]],
        ns: int,
        a_rest: TangencyVector,
    ) -> int:
        """The weight S of one search (see _split_terms): the sum over its
        collections of _weight * prod value, for the n budget ns and the
        alpha budget a_rest."""
        memo = route.memo
        total = 0
        for chosen in collections:
            weight = _weight(chosen, ns, a_rest)
            # the search read every factor's value, so the memo holds it
            for opt, _, _ in chosen:
                weight *= memo[opt.memo_key]
            total += weight
        return total

    def _collections(
        self,
        route: _Route,
        t_root: Tuple[int, ...],
        te0: int,
        ak0: int,
        a_budget: int,
        bm_target: int,
        ibm0: int,
        ns_target: int,
        table: Tuple[Tuple[_Block, ...], Dict[tuple, tuple]],
    ) -> List[Tuple[Tuple[_Option, tuple, int], ...]]:
        """The unordered factor collections that match one search's budgets
        exactly.  The search consults no memo of searches; _split_terms
        keeps each search's weight S.

        The target is given by its coordinates t_root, its E-degree te0 and
        its -K degree ak0.  The alpha budget and the beta target
        sum(beta_i - gamma_i) come packed (tangency.pack), with ibm0 the
        target's I.  _split_terms hands over only admitted targets: zero,
        or feasible with both degrees >= 1 and the beta balance
        ibm0 <= te0 - 1.  te0 and ak0 are linear in t_root, ibm0 is
        I(bm_target), and t_root and bm_target fix ns_target, so the search
        memo's key (in _split_terms) leaves them out; why it leaves out the
        table, the (blocks, fit memo) pair _table returns, is in
        _split_terms.  A collection is a tuple of the blocks' picks in
        non-decreasing canonical order, each unordered collection once.
        Rigid options (n_i = 0 with no fixed tangencies) appear at most once
        each; the blocks of the reduced route further restrict them to real
        lines other than E carrying a single simple moving branch.

        A node walks its remainder's fit list (_fitting), which holds only
        the blocks with which the remainder can still be finished, and
        loses no block of a complete collection (the proof is in
        _split_terms): a value is read when its block is in the node's fit
        list.  On rank 7 that list also meets the floors b_i >= t_i - 1 on
        slots 1 and 2 of the asking state's t = D - E, which every block
        of a complete collection meets (_split_terms) but a block that only
        fits a remainder can miss.  E_2 and E_1, where a table holds them,
        are its first blocks, of -K degree 1 with coords (0, 0, 1, 0, ...)
        < (0, 1, 0, ...) < every other candidate, and only they are
        positive on slot 1 or 2.
        * A kept block b other than E_1 and E_2 leaves r - b zero or a sum
          of later blocks, r the node's remainder, so b_i >= r_i for
          i = 1, 2.  The picks so far hold E_i at most once, as its one
          option is rigid, so r_i >= T_i - 1 for the search's target
          T = t + c (K + E) - P, where T_i = t_i - P_i as K + E is 0 on
          slots 1 and 2.  Of the pair sums only E_1 + E_2 has P_i > 0, and
          it exists only where E_1 and E_2 are conjugate, when neither is
          a candidate: then r_i >= T_i = t_i - 1, and else
          r_i >= T_i - 1 >= t_i - 1.  Either way b_i >= t_i - 1.
        * For b = E_1 or E_2, b_i is 0 or 1 >= t_i - 1, as t_i <= 1 for
          every state that searches.

        At a block it reads the value of every pick from the node's pick
        index on that fits the node's n and alpha budgets, before testing
        the beta fit, and descends into the picks whose value is nonzero
        and whose beta fits.  The live-pick memo (_live_picks) keeps the
        indices of the picks of the block that pass the first three tests,
        under the node's n budget and alpha budget, for every block, one
        pick or many, and an entry is built from the block's first pick on;
        the search walks it from the first index >= the node's pick index
        p0.  Such a build reads no value the search without the memo does
        not read:
        * a pick at or after p0 that fits the budgets is read there anyway;
        * a pick before p0 occurs only when the node is in the block its
          parent descended from (bi == b0).  Follow the chain of ancestors
          that descended from this block up to the first one, whose node
          came from an earlier block or is the root: that node walked the
          block from its first pick, with budgets at least as large, since
          a descent only takes n_i >= 0 and alpha_i >= 0 off them.  So it
          read the value of every pick that fits the later node's budgets,
          in the same search.
        An entry built in one search and read in another holds values read
        in the first.  A read under the live-pick memo is therefore a read
        of the same state the search without it makes, at another time: the
        set of states evaluated is the same, and only the order of the
        reads, and with it the order of insertion into the value memo,
        changes.  The store is written sorted, so its bytes do not.
        """
        blocks, fits = table
        zero_t = self._zero_coords
        live_picks = self._live_picks
        guard = GUARD
        complete = []

        def dfs(
            b0: int, p0: int, t_rem: Tuple[int, ...], te_rem: int, ak_rem: int,
            a_rem: int, bm_rem: int, ibm_rem: int, ns_rem: int, acc: list,
        ):
            if t_rem == zero_t:
                if not bm_rem and ns_rem == 0:
                    complete.append(tuple(acc))
                return
            # te_rem >= 1, ak_rem >= 1, ibm_rem <= te_rem - 1 and t_rem's fit
            # entry hold already: _split_terms admitted the root, whose entry
            # is built below, and _fitting kept every descent, with its entry.
            fit = fits[t_rem]
            # the block indices, then their remainders
            n_fit = len(fit) >> 1
            # x <= bm_rem iff (bm_guard - x) & guard == guard, for packed x
            bm_guard = bm_rem | guard
            for i in range(bisect_left(fit, b0, 0, n_fit), n_fit):
                bi = fit[i]
                blk = blocks[bi]
                if ns_rem < blk.n_min:
                    continue  # no pick fits n
                # The live picks: those that fit n and alpha and have a
                # nonzero value, from the restart index p0 in the block b0.
                # A value is read before the branch is tested, so a state
                # is evaluated whenever its option fits n and alpha.
                n_max = blk.n_max
                n = ns_rem if ns_rem < n_max else n_max
                key = a_rem * blk.a_step + n  # (n, a_rem), one int
                live = blk.live.get(key)
                if live is None:
                    live = blk.live[key] = live_picks(route, blk, n, a_rem)
                if bi == b0 and p0:
                    live = live[bisect_left(live, p0):]
                picks = blk.picks
                # A pick keeps the beta balance of a nonzero remainder,
                # ibm_d >= ibm_lo; the zero remainder must use up beta.
                new_te = te_rem - blk.e_deg
                ibm_lo = ibm_rem - new_te + 1 if new_te else ibm_rem
                for j in live:
                    pick = picks[j]
                    opt, row, p_next = pick
                    _, p_bm, ibm_d, _ = row
                    if (
                        ibm_d > ibm_rem or ibm_d < ibm_lo
                        or (bm_guard - p_bm) & guard != guard
                    ):
                        continue
                    acc.append(pick)
                    dfs(
                        bi, p_next, fit[n_fit + i], new_te, ak_rem - blk.antik,
                        a_rem - opt.palpha, bm_rem - p_bm, ibm_rem - ibm_d,
                        ns_rem - opt.n_i, acc,
                    )
                    acc.pop()

        if t_root != zero_t and t_root not in fits:
            self._fitting(route, blocks, fits, t_root, te0, ak0)
        dfs(0, 0, t_root, te0, ak0, a_budget, bm_target, ibm0, ns_target, [])
        # dfs refers to itself, a cycle that would keep the evaluator and the
        # table it closes over alive until the cyclic collector runs
        del dfs
        return complete

    # -- factor enumeration ----------------------------------------------------------

    def _table(
        self, route: _Route, budget: int, target: Optional[Tuple[int, ...]]
    ) -> Tuple[Tuple[_Block, ...], Dict[tuple, tuple]]:
        """The route's factor table and its fit memo, made to cover the
        candidates of -K degree <= `budget` that a key with c = 0 target
        `target` can use (None: every candidate, the whole cone).

        A block b enters a complete collection of the key (D, alpha, beta)
        only if t - b is feasible (picard.feasible), t = D - E.  The
        collection sums to a target T = t + c (K + E) - P with c >= 0 and P
        a pair subset's class sum, so t - b = (T - b) - c (K + E) + P, where
        T - b is a sum of candidates and feasible.  On rank 7 every pair
        member is a line and so meets each conic C = -K - l >= 0, and
        (K + E).C = -2 + E.C <= 0 as E.C = 1 - E.l <= 2: all three terms
        meet C >= 0.  On the coordinates K + E = (-2, 0, 0, 1, 1, 1, 1), and
        P_0 >= 0 and P_i <= 0 for i >= 3, so (t - b)_0 >= 0 and
        (t - b)_i <= 0 for i >= 3; every pair sum has P_1 <= 0 except
        E_1 + E_2, and where E_1 and E_2 are conjugate no candidate has
        b_1 > 0, so (t - b)_1 <= 1 (alike on slot 2).  On rank 3 every
        candidate and pair sum is >= 0 and K + E <= 0, so b <= T <= t.

        The first table a route builds holds the candidates of the key that
        asked for it.  A later request is covered when its budget is no
        larger and its target t' leaves w = t - t' feasible with slack 0
        (rank 3: t' <= t): then t - b = (t' - b) + w is feasible for each
        block b of t'.  The states below a key stay covered: a factor b has
        target b - E, and t - (b - E) = (t - b) + E, with E.C >= 0 and E =
        (1, -1, -1, 0, ...) (rank 3: E >= 0); first-sum children keep D.  A request not
        covered switches the table to the whole cone at the larger budget;
        the blocks already built are reused, not stamped again, and the
        table is replaced whole, with a new, empty fit memo (see _fitting).
        Blocks ascend in (-K degree, coords), so a fit stops at the first
        block over its remainder's degree.
        """
        built, built_target, blocks, fits = route.table
        if budget <= built:
            if built_target is None:
                return blocks, fits
            if target is not None and feasible(self.spec.lattice, tuple(
                map(operator.sub, built_target, target)), slack=0
            ):
                return blocks, fits
        if built:
            budget, target = max(budget, built), None
        spec = self.spec
        mke = spec.minus_k_plus_e()
        old = {b.coords: b for b in blocks}
        new = []
        for cls in candidate_factors(
            spec.lattice, spec.conj_perm, spec.e_class, budget,
            blocked=spec.candidate_blocked(), target=target,
        ):
            # No candidate b lacks picks: its option alpha = 0, beta =
            # (E.b) theta_1 has n = -K.b - 1, >= 1 off the lines (no nef class
            # has -K.D = 1) and rigid and simple on a line (lines meet E at
            # most once).  So a whole-cone table holds all but -(K + E).
            blk = old.get(cls.coords)
            if blk is None:
                if cls == mke:
                    continue
                e_deg = sum(map(operator.mul, cls.coords, spec.e_form))
                antik = sum(map(operator.mul, cls.coords, spec.antik_form))
                picks = self._picks(cls, e_deg, antik, route.rigid_lines_only)
                n_is = [opt.n_i for opt, _, _ in picks]
                n_max = max(n_is)
                # a block whose picks fix no tangency keys its live picks by n
                a_step = n_max + 1 if any(opt.palpha for opt, _, _ in picks) else 0
                blk = _Block(cls.coords, e_deg, antik, picks, min(n_is), n_max, a_step)
            new.append(blk)
        new.sort(key=lambda b: (b.antik, b.coords))
        blocks, fits = tuple(new), {}
        route.table = (budget, target, blocks, fits)
        return blocks, fits

    def _picks(
        self, cls: DivisorClass, e_deg: int, antik: int, rigid_lines_only: bool
    ) -> Tuple[Tuple[_Option, tuple, int], ...]:
        """The picks of one candidate class, in canonical (option, gamma)
        order: the template of its E-degree stamped with its dimensions, one
        pick per option and marked branch.  A collection holding a pick
        continues from it, so a factor can repeat, except for a rigid option
        (n_i = 0, alpha = 0), which appears at most once."""
        base = antik - e_deg - 1  # n_i = base + |beta|
        coords = cls.coords
        line = coords in self.spec.other_line_coords
        key_coords = self._canon(coords) if self._canon else coords
        picks: List[Tuple[_Option, tuple, int]] = []
        for av, pa, bv, nb, gammas, a_key, b_key, simple in _option_template(e_deg):
            n_i = base + nb
            if n_i < 0:
                continue
            if rigid_lines_only and n_i == 0 and not (line and simple):
                continue
            opt = _Option(cls, av, pa, bv, n_i, memo_key=(key_coords, a_key, b_key))
            first = len(picks)
            rigid = n_i == 0 and not pa
            picks.extend(
                (opt, row, first + len(gammas) if rigid else first + j)
                for j, row in enumerate(gammas)
            )
        return tuple(picks)

    def _fitting(
        self, route: _Route, blocks: Tuple[_Block, ...], fits: Dict[tuple, tuple],
        t: Tuple[int, ...], te: int, ak: int,
    ) -> tuple:
        """The fit memo's entry for the nonzero search remainder t, E.t = te
        and -K.t = ak, stored into fits: one tuple of the indices, ascending,
        of the blocks b with which t can be finished, followed by their
        remainders t - b, interned through the route's targets.

        A block b of index i is kept when t - b is zero, or when the entry
        of t - b, built the same way through fits, ends with an index >= i:
        then a non-decreasing run of blocks from b on sums to t.  Each step
        takes -K.b >= 1 off the remainder, so the recursion ends, and an
        entry lists exactly the blocks with which t can be finished by a
        non-decreasing run of the table's blocks.  A block is first held to
        cheaper tests that every sum of blocks passes, so that no entry is
        built for a remainder that cannot be one: -K.b <= ak, E.b <= te,
        t - b zero where either of its degrees is zero (every block has
        both degrees >= 1), and t - b feasible (picard.feasible, see
        _split_terms) otherwise."""
        zero_t = self._zero_coords
        intern = route.targets.setdefault
        # one int object per table index, for every entry: enumerate makes
        # a new one past 256 each time
        indices = self._indices
        if len(indices) < len(blocks):
            indices = self._indices = tuple(range(len(blocks)))
        cubic = len(t) == 3  # the cubic's lattice has rank 3
        if cubic:
            t0, t1, t2 = t
        else:
            t0, t1, t2, t3, t4, t5, t6 = t
            s1, s2 = t1 - 1, t2 - 1
        index, kids = [], []
        for bi, blk in zip(indices, blocks):
            new_ak = ak - blk.antik
            if new_ak < 0:
                break
            new_te = te - blk.e_deg
            if new_te < 0:
                continue
            c = blk.coords
            if new_te == 0 or new_ak == 0:
                if c != t:
                    continue
                new_t = zero_t
            elif cubic:
                if c[0] > t0 or c[1] > t1 or c[2] > t2:
                    continue
                new_t = (t0 - c[0], t1 - c[1], t2 - c[2])
            else:
                if (
                    c[0] > t0 or c[1] < s1 or c[2] < s2 or c[3] < t3
                    or c[4] < t4 or c[5] < t5 or c[6] < t6
                ):
                    continue
                new_t = (
                    t0 - c[0], t1 - c[1], t2 - c[2], t3 - c[3],
                    t4 - c[4], t5 - c[5], t6 - c[6],
                )
                # the conic half of picard.feasible, inlined
                u = sorted(new_t[1:])
                d_new = new_t[0]
                if (
                    u[0] + (d_new if d_new < new_ak else new_ak) < 0
                    or new_ak - d_new < u[4] + u[5]
                ):
                    continue
            new_t = intern(new_t, new_t)
            if new_te and new_ak:  # t - b is not zero
                sub = fits.get(new_t)
                if sub is None:
                    sub = self._fitting(route, blocks, fits, new_t, new_te, new_ak)
                if not sub or sub[(len(sub) >> 1) - 1] < bi:
                    continue  # no block from b on finishes t - b
            index.append(bi)
            kids.append(new_t)
        entry = fits[t] = tuple(index + kids)
        return entry

    def _live_picks(self, route: _Route, blk: _Block, n: int, a: int) -> tuple:
        """The live-pick memo's entry for the block blk under the n budget n
        <= blk.n_max and the packed alpha budget a: the indices, ascending,
        of the picks with n_i <= n, alpha_i <= a and a nonzero value, one
        tuple object per distinct entry of the evaluator.  Each value is
        read as the search reads it, from the memo or by evaluating the
        factor's state."""
        a_guard = a | GUARD
        memo = route.memo
        live = []
        for pi, (opt, _, _) in enumerate(blk.picks):
            if opt.n_i > n:
                continue
            p_a = opt.palpha
            if p_a and (a_guard - p_a) & GUARD != GUARD:
                continue
            value = memo.get(opt.memo_key)
            if value is None:
                value = self._value(route, opt.cls, opt.alpha, opt.beta)
            if value:
                live.append(pi)
        live = tuple(live)
        return self._live_entries.setdefault(live, live)
