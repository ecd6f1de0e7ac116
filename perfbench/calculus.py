"""Seeded cases for the ``calculus`` workload.

Every case is one checked operation of the exact calculus that never
touches the simplicial engine, the witnesses or the wedge construction:
triangular-transform round trips, limit lifting, the fissilizer, defect
subgroup families, the cover identities, the Magnus expansion of
Brunnian words and membership in the ideals of the subset-monoid ring.
``make_batch`` draws the inputs (set-up); ``run_case``
computes the output, and ``check_case`` checks the identity it must satisfy.
"""

import random

from fissile import brunnian, identities
from fissile.chained import SubsetMonoid, ideal_membership, omega, ring_product
from fissile.canon import jsonable
from fissile.ensembles import Ensemble, augmentation, singleton
from fissile.fissilizer import (
    FunctionFacePresheaf,
    ProductLayoutPresheaf,
    check_fissilizer_defect,
    defect_subgroup_family,
    fissilize,
    is_fissile,
)
from fissile.posets import Section, lift_limit, nabla, nabla_inverse

# Every batch holds the same number of cases of each kind and size, so that
# batches cost about the same; the seed draws the contents of each case.
SIZES = {
    "nabla": (1, 2, 3),
    "lift": (1, 2, 3),
    "fissilize": (1, 2, 3),
    "defect": (1, 2),
    "identities": tuple((a, i) for a in (1, 2, 3) for i in (0, 1, 2)),
    "ideal": (1, 2, 3),
    "magnus": (2, 3),
}
KINDS = tuple(SIZES)


class Ground:
    """The layout presheaf of 0/1-valued functions on ``{1..n}``."""

    def __init__(self, n):
        self.lp = ProductLayoutPresheaf(FunctionFacePresheaf(tuple(range(1, n + 1))))
        self.poset = self.lp.lattice.poset()
        self.top = self.lp.top
        self.universe = self.lp.face.enumerate(self.lp.face.ground)

    def restrict(self, p, q, s):
        return self.lp.restrict(s, p, q)

    def extend(self, p, q, s):
        return self.lp.extend(s, p, q)


def _random_ensemble(rng, pool, n_terms, coeff):
    out = Ensemble.zero()
    for _ in range(n_terms):
        out = out + rng.randint(-coeff, coeff) * singleton(rng.choice(pool))
    return out


def _random_brunnian(rng, alphabet):
    """A product of conjugated nested commutators in every letter."""
    word = ()
    for _ in range(rng.randint(1, 3)):
        perm = list(alphabet)
        rng.shuffle(perm)
        nesting = rng.choice(brunnian.enumerate_nestings(len(alphabet)))
        core = brunnian.nested_commutator(nesting, [brunnian.generator(i) for i in perm])
        conj = brunnian.reduce_word(
            [(rng.choice(alphabet), rng.choice((1, -1))) for _ in range(rng.randint(0, 3))]
        )
        piece = core if rng.random() < 0.5 else brunnian.invert(core)
        word = brunnian.concat(word, conj, piece, brunnian.invert(conj))
    return word


def make_batch(seed, index, size):
    """The inputs of batch ``index`` for ``seed``: a list of (kind, args)."""
    rng = random.Random(f"calculus/{seed}/{index}")
    grounds = {n: Ground(n) for n in (1, 2, 3)}
    monoids = {n: SubsetMonoid(tuple(range(1, n + 1))) for n in (1, 2, 3)}
    cases = []
    for c in range(size):
        kind = KINDS[c % len(KINDS)]
        sizes = SIZES[kind]
        n = sizes[c // len(KINDS) % len(sizes)]
        if kind == "nabla":
            g = grounds[n]
            fam = Section()
            for a in g.lp.lattice.layouts:
                val = _random_ensemble(
                    rng, g.lp.enumerate_universe(a), rng.randint(0, 3), 3
                )
                if val:
                    fam[a] = val
            args = (g, fam)
        elif kind == "lift":
            g = grounds[n]
            w = _random_ensemble(rng, g.lp.enumerate_universe(g.top), rng.randint(1, 4), 3)
            compat = Section()
            for a in g.lp.lattice.layouts:
                if a != g.top:
                    val = g.restrict(g.top, a, w)
                    if val:
                        compat[a] = val
            args = (g, compat)
        elif kind == "fissilize":
            g = grounds[n]
            args = (g, _random_ensemble(rng, g.universe, rng.randint(0, 4), 3))
        elif kind == "defect":
            g = grounds[n]
            args = (g, _random_ensemble(rng, g.universe, rng.randint(1, 3), 2))
        elif kind == "identities":
            args = n
        elif kind == "ideal":
            monoid = monoids[n]
            level = rng.randint(0, len(monoid.ground))
            tops = [j for j in monoid.elements if len(j) >= level]
            target = Ensemble.zero()
            for _ in range(rng.randint(1, 3)):
                target = target + rng.randint(-2, 2) * ring_product(
                    monoid, singleton(rng.choice(monoid.elements)), omega(rng.choice(tops))
                )
            args = (monoid, target, level)
        else:
            alphabet = tuple(range(1, n + 1))
            args = (alphabet, _random_brunnian(rng, alphabet))
        cases.append((kind, args))
    return cases


def run_case(kind, args):
    """Compute the case's output."""
    if kind == "nabla":
        g, fam = args
        back = nabla_inverse(g.poset, g.restrict, nabla(g.poset, g.restrict, fam))
        forth = nabla(g.poset, g.restrict, nabla_inverse(g.poset, g.restrict, fam))
        return back, forth
    if kind == "lift":
        g, compat = args
        return lift_limit(g.poset, g.restrict, g.extend, compat)
    if kind == "fissilize":
        g, q = args
        return fissilize(g.lp, q)
    if kind == "defect":
        g, q = args
        return defect_subgroup_family(g.lp, [q])
    if kind == "identities":
        max_a, max_i = args
        return list(identities.run_all(max_a, max_i))
    if kind == "ideal":
        return ideal_membership(*args)
    alphabet, word = args
    n = len(alphabet)
    return (
        brunnian.magnus(word, n),
        brunnian.magnus(brunnian.invert(word), n),
        brunnian.lcs_degree(word, n),
    )


def check_case(kind, args, out):
    """Whether the output satisfies the identity the case checks."""
    if kind == "nabla":
        fam = args[1]
        back, forth = out
        return back == fam and forth == fam
    if kind == "lift":
        g, compat = args
        return all(
            g.restrict(g.top, a, out) == compat.value(a)
            for a in g.lp.lattice.layouts
            if a != g.top
        )
    if kind == "fissilize":
        g = args[0]
        return is_fissile(g.lp, out) and augmentation(out) == 1 and fissilize(g.lp, out) == out
    if kind == "defect":
        g, q = args
        rep = check_fissilizer_defect(g.lp, q, out)
        return rep.hypothesis_ok and rep.conclusion is True
    if kind == "identities":
        return all(ok is True for *_, ok in out)
    if kind == "ideal":
        monoid, target, _ = args
        return out is not None and out.check(monoid, target)
    alphabet, word = args
    series, inverse, depth = out
    n = len(alphabet)
    return (
        series * inverse == brunnian.MagnusSeries.one(n)
        and brunnian.is_brunnian(word, alphabet)
        and (depth is None or depth >= n)
    )


def _ensemble_json(s):
    return [[jsonable(el), c] for el, c in sorted(s.terms.items(), key=lambda kv: repr(kv[0]))]


def report_line(kind, out, ok):
    """The JSON-ready record of one case as it is written to the report."""
    if kind == "nabla":
        payload = [[jsonable(a), _ensemble_json(v)] for a, v in sorted(out[0].items())]
    elif kind in ("lift", "fissilize"):
        payload = _ensemble_json(out)
    elif kind == "defect":
        payload = [
            [jsonable(a), [_ensemble_json(gen) for gen in gens.generators]]
            for a, gens in sorted(out.items())
        ]
    elif kind == "identities":
        payload = [list(row) for row in out]
    elif kind == "ideal":
        payload = [out.level, jsonable(out.combination)]
    else:
        series, _, depth = out
        payload = [sorted([list(m), c] for m, c in series.terms.items()), depth]
    return {"kind": kind, "ok": ok, "output": payload}
