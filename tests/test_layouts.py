from itertools import combinations

import pytest

from fissile.layouts import (
    LayoutLattice,
    enumerate_layouts,
    layout_geq,
    layout_key,
    layout_meet,
    resolve_block,
)
from fissile.simplicial import layout_complex


def brute_layouts(ground):
    """Oracle: filter all antichains of nonempty subsets for disjointness."""
    ground = tuple(sorted(ground))
    subsets = []
    for k in range(1, len(ground) + 1):
        subsets.extend(combinations(ground, k))
    out = set()
    for r in range(len(subsets) + 1):
        for chosen in combinations(subsets, r):
            flat = [x for b in chosen for x in b]
            if len(flat) == len(set(flat)):
                out.add(tuple(sorted(chosen)))
    return sorted(out)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 15)])
def test_enumeration_counts_and_oracle(n, count):
    ground = tuple(range(1, n + 1))
    got = enumerate_layouts(ground)
    assert len(got) == count
    assert got == brute_layouts(ground)


def test_enumeration_bound():
    with pytest.raises(ValueError):
        enumerate_layouts(tuple(range(1, 7)))
    assert len(enumerate_layouts((1, 2, 3, 4))) == 52


def test_geq_cases():
    top = layout_key([(1, 2)])
    for a in enumerate_layouts((1, 2)):
        assert layout_geq(top, a)
        assert layout_geq(a, ())
    assert not layout_geq(layout_key([(1,), (2,)]), top)


def test_meet_cases():
    e3 = (1, 2, 3)
    for a in enumerate_layouts(e3):
        assert layout_meet(a, a) == a
        assert layout_meet(a, ()) == ()
    assert layout_meet(
        layout_key([(1, 2)]), layout_key([(1,), (2, 3)])
    ) == layout_key([(1,), (2,)])


def test_resolve_block():
    a = layout_key([(1, 2), (3,)])
    assert resolve_block(a, (1,)) == (1, 2)
    assert resolve_block(layout_key([(1, 2, 3)]), (2, 3)) == (1, 2, 3)
    with pytest.raises(KeyError):
        resolve_block(layout_key([(1,), (2,)]), (1, 2))


def test_partial_order_axioms_exhaustive():
    for n in (1, 2, 3):
        layouts = enumerate_layouts(tuple(range(1, n + 1)))
        for a in layouts:
            assert layout_geq(a, a)
        for a in layouts:
            for b in layouts:
                if a != b:
                    assert not (layout_geq(a, b) and layout_geq(b, a))
                for c in layouts:
                    if layout_geq(a, b) and layout_geq(b, c):
                        assert layout_geq(a, c)


def test_meet_is_greatest_lower_bound():
    for n in (1, 2, 3):
        layouts = enumerate_layouts(tuple(range(1, n + 1)))
        for a in layouts:
            for b in layouts:
                m = layout_meet(a, b)
                assert layout_geq(a, m) and layout_geq(b, m)
                for c in layouts:
                    if layout_geq(a, c) and layout_geq(b, c):
                        assert layout_geq(m, c)


def test_top_is_greatest():
    lat = LayoutLattice((1, 2, 3))
    for a in lat.layouts:
        assert lat.geq(lat.top, a)


def test_meet_matches_complex_intersection():
    # the union of faces over the meet equals the intersection of the unions
    for n in (2, 3):
        ground = tuple(range(1, n + 1))
        for a in enumerate_layouts(ground):
            for b in enumerate_layouts(ground):
                m = layout_meet(a, b)
                inter = set(layout_complex(a).simplices) & set(
                    layout_complex(b).simplices
                )
                assert set(layout_complex(m).simplices) == inter
