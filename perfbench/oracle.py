"""Independent oracles for the benchmark's checks.

Nothing here calls the program: the nef-and-big enumeration, the
relabelling orbits and the reference values are written out from the
definitions, so a check that compares the program with them is not a
read-back of the program's own helpers.

Classes are raw coordinate tuples in the program's basis: on the rank-7
plane model ``(d, -m1, ..., -m6)`` for ``d*L - sum m_i E_i``; on the cubic
``(d1, d2, d3)`` in the basis of the three real lines.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Tuple

Coords = Tuple[int, ...]

# The published reference table: (surface, twist, row) -> value.  The conic
# bundle columns are evaluated on the pulled-back classes (2,1,1) and (4,2,2).
GOLDEN: Dict[Tuple[str, str, str], int] = {}
for _row, _values in (
    ("-K", (8, 6, 4, 2, 0, 4, 0, 4)),
    ("-2K", (1000, 522, 236, 78, 0, 512, 0, 160)),
):
    for (_surface, _twist), _v in zip(
        (("P2[6,0]", "0"), ("P2[4,1]", "0"), ("P2[2,2]", "0"), ("P2[0,3]", "0"),
         ("B", "0"), ("B", "F"), ("B1", "0"), ("B1", "F")),
        _values,
    ):
        GOLDEN[(_surface, _twist, _row)] = _v


def anticanonical(surface: str, n: int) -> Coords:
    """Coordinates of -nK on a surface of the reference table (not B)."""
    if surface == "B1":
        return (n, n, n)
    return (3 * n,) + (-n,) * 6


def golden_value(surface: str, twist: str, coords: Coords):
    """The reference value when coords is -K or -2K of a table column."""
    for n, row in ((1, "-K"), (2, "-2K")):
        if surface != "B" and coords == anticanonical(surface, n):
            return GOLDEN.get((surface, twist, row))
    return None


def parse_p2(surface: str) -> Tuple[int, int]:
    """``P2[a,b]`` -> (a, b)."""
    a, b = surface[3:-1].split(",")
    return int(a), int(b)


# -- nef and big classes -----------------------------------------------------


def _p2_line_degrees(d: int, m: Tuple[int, ...]) -> Iterator[int]:
    """D.C for the 27 lines C of the cubic surface (E_i, L-E_i-E_j,
    2L minus five E_k); D is nef exactly when all of them are >= 0."""
    yield from m
    for i, j in itertools.combinations(range(6), 2):
        yield d - m[i] - m[j]
    total = sum(m)
    for i in range(6):
        yield 2 * d - (total - m[i])


def p2_nef_big(coords: Coords) -> bool:
    d = coords[0]
    m = tuple(-x for x in coords[1:])
    return all(x >= 0 for x in _p2_line_degrees(d, m)) and d * d > sum(x * x for x in m)


def cubic_nef_big(coords: Coords) -> bool:
    """Nef on the three real lines (L_i^2 = -1, L_i.L_j = 1) and D^2 > 0."""
    d1, d2, d3 = coords
    on_lines = (d2 + d3 - d1, d1 + d3 - d2, d1 + d2 - d3)
    square = -(d1 * d1 + d2 * d2 + d3 * d3) + 2 * (d1 * d2 + d1 * d3 + d2 * d3)
    return min(on_lines) >= 0 and square > 0


def antik(surface: str, coords: Coords) -> int:
    if surface == "B1":
        return sum(coords)
    return 3 * coords[0] + sum(coords[1:])


def nef_big_orbits(surface: str, bound: int) -> List[Coords]:
    """Orbit representatives of the real nef-and-big classes with
    1 <= -K.D <= bound, sorted.

    On P2[a,b] the real points are E1..Ea and each conjugate pair shares
    one multiplicity.  Every multiplicity of a nef class is at most d and
    -K.D = 3d - sum m >= 3d - 12d/5, so d <= 5*bound/3 bounds the search.
    """
    if surface == "B1":
        return sorted(
            c for c in itertools.product(range(bound + 1), repeat=3)
            if 1 <= sum(c) <= bound and cubic_nef_big(c)
        )
    a, b = parse_p2(surface)
    out = []
    for d in range(1, 5 * bound // 3 + 1):
        for real in itertools.combinations_with_replacement(range(d, -1, -1), a):
            for pairs in itertools.combinations_with_replacement(range(d, -1, -1), b):
                coords = _assemble(d, real, pairs)
                if 1 <= antik(surface, coords) <= bound and p2_nef_big(coords):
                    out.append(coords)
    return sorted(out)


def nef_big_classes(surface: str, bound: int) -> List[Coords]:
    """Every real nef-and-big class with 1 <= -K.D <= bound, sorted."""
    return sorted(
        c for rep in nef_big_orbits(surface, bound) for c in orbit_members(surface, rep)
    )


# -- relabelling orbits --------------------------------------------------------


def _blocks(surface: str, coords: Coords) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    a, b = parse_p2(surface)
    m = tuple(-x for x in coords[1:])
    return m[:a], tuple(m[a + 2 * i] for i in range(b))


def _assemble(d: int, real, pairs) -> Coords:
    m = tuple(real) + tuple(v for p in pairs for v in (p, p))
    return (d,) + tuple(-x for x in m)


def orbit_representative(surface: str, coords: Coords) -> Coords:
    """Largest multiplicities first within the real points and within the
    conjugate pairs; the cubic has no relabelling symmetry."""
    if surface == "B1":
        return tuple(coords)
    real, pairs = _blocks(surface, coords)
    return _assemble(coords[0], sorted(real, reverse=True), sorted(pairs, reverse=True))


def orbit_members(surface: str, coords: Coords) -> List[Coords]:
    """All relabellings: permutations of the real points and of whole pairs."""
    if surface == "B1":
        return [tuple(coords)]
    real, pairs = _blocks(surface, coords)
    return sorted({
        _assemble(coords[0], r, p)
        for r in itertools.permutations(real)
        for p in itertools.permutations(pairs)
    })


def class_text(surface: str, coords: Coords) -> str:
    """The CLI's class syntax: ``d;m1,...,m6`` or ``d1,d2,d3``."""
    if surface == "B1":
        return ",".join(str(c) for c in coords)
    return f"{coords[0]};" + ",".join(str(-c) for c in coords[1:])
