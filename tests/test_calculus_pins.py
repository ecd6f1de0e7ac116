"""Pinned outputs of the exact layout calculus.

The report lines of ``fissile verify nabla``, ``verify lift`` and
``verify fissilizer`` at ``--max-e 3`` (without their ``ms``), and one
sha256 over seeded outputs of the fissilizer, the defect subgroup family,
the triangular transform both ways, limit lifting, ideal membership
certificates, ω, the subset lists and the cover identities.  Any change to
the arithmetic of any of them changes a pin.  The inputs are drawn with
the stdlib ``random`` only.  The draws of every ``verify`` suite at its
default seed are pinned as well, so that a suite cannot come to test other
inputs while its report lines stay the same.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest

from fissile import identities, suites
from fissile.chained import SubsetMonoid, ideal_membership, omega, ring_product, subsets_of
from fissile.cli import main
from fissile.ensembles import Ensemble, singleton
from fissile.fissilizer import (
    FunctionFacePresheaf,
    ProductLayoutPresheaf,
    defect_subgroup_family,
    fissilize,
)
from fissile.posets import Section, lift_limit, nabla, nabla_inverse

VERIFY_LINES = {
    "nabla": [
        {"case": {"cases": 100, "check": check, "ground": n}, "suite": "nabla", "verdict": "pass"}
        for n in (1, 2, 3)
        for check in ("round-trip", "restriction-square")
    ],
    "lift": [
        {"case": {"cases": 100, "check": "lift-restricts-back", "ground": n}, "suite": "lift", "verdict": "pass"}
        for n in (1, 2, 3)
    ],
    "fissilizer": [
        {"case": {"cases": 200, "check": check, "ground": n}, "suite": "fissilizer", "verdict": "pass"}
        for n in (1, 2, 3)
        for check in ("output-fissile", "output-affine", "fixes-fissile")
    ]
    + [
        {"case": {"cases": 50, "check": "defect-family", "ground": n}, "suite": "fissilizer", "verdict": "pass"}
        for n in (1, 2)
    ],
}

CALCULUS_DIGEST = "dd1546c80265dc20ea44e99510f1736447570bb77d7beec9e060d2adcbbefb23"


def test_verify_lines_are_pinned():
    for suite, expected in VERIFY_LINES.items():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert main(["verify", suite, "--max-e", "3"]) == 0
        out = out.getvalue()
        lines = [json.loads(line) for line in out.strip().splitlines()]
        for line in lines:
            del line["ms"]
        assert lines == expected, suite


def _text(s):
    if isinstance(s, Ensemble):
        return repr(sorted((repr(el), c) for el, c in s.terms.items()))
    if isinstance(s, dict):
        return repr(sorted((repr(k), _text(v)) for k, v in s.items()))
    return repr(s)


def _random_ensemble(rng, pool, n_terms, coeff):
    out = Ensemble.zero()
    for _ in range(n_terms):
        out = out + rng.randint(-coeff, coeff) * singleton(rng.choice(pool))
    return out


def calculus_outputs(seed=11):
    """Yield one text per seeded output, in a fixed order."""
    rng = random.Random(seed)
    for n in (1, 2, 3):
        lp = ProductLayoutPresheaf(FunctionFacePresheaf(tuple(range(1, n + 1))))
        poset = lp.lattice.poset()
        top = lp.top
        universe = lp.face.enumerate(lp.face.ground)

        def restrict(p, q, s):
            return lp.restrict(s, p, q)

        def extend(p, q, s):
            return lp.extend(s, p, q)

        for _ in range(12):
            q = _random_ensemble(rng, universe, rng.randint(0, 4), 3)
            yield _text(fissilize(lp, q))
            if n <= 2:
                fam = defect_subgroup_family(lp, [q])
                yield repr(sorted((repr(a), [_text(g) for g in gens.generators]) for a, gens in fam.items()))
            family = Section()
            for a in lp.lattice.layouts:
                val = _random_ensemble(rng, lp.enumerate_universe(a), rng.randint(0, 2), 3)
                if val:
                    family[a] = val
            yield _text(nabla(poset, restrict, family))
            yield _text(nabla_inverse(poset, restrict, family))
            w = _random_ensemble(rng, lp.enumerate_universe(top), rng.randint(1, 4), 3)
            compat = Section()
            for a in lp.lattice.layouts:
                if a != top and restrict(top, a, w):
                    compat[a] = restrict(top, a, w)
            yield _text(lift_limit(poset, restrict, extend, compat))
            a = rng.choice(lp.lattice.layouts)
            yield _text(extend(top, a, _random_ensemble(rng, lp.enumerate_universe(a), 3, 2)))
    for n in (1, 2, 3):
        monoid = SubsetMonoid(tuple(range(1, n + 1)))
        for j in monoid.elements:
            yield repr(subsets_of(j)) + _text(omega(j))
        for _ in range(8):
            level = rng.randint(0, n)
            tops = [j for j in monoid.elements if len(j) >= level]
            target = Ensemble.zero()
            for _ in range(rng.randint(1, 3)):
                target = target + rng.randint(-2, 2) * ring_product(
                    monoid, singleton(rng.choice(monoid.elements)), omega(rng.choice(tops))
                )
            cert = ideal_membership(monoid, target, level)
            yield repr(None if cert is None else (cert.level, cert.combination))
    yield repr(list(identities.run_all(3, 2)))


def test_seeded_calculus_outputs_are_pinned():
    digest = hashlib.sha256()
    for text in calculus_outputs():
        digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == CALCULUS_DIGEST


# (draws, sha256 of the JSON draw log) of each suite run with its defaults
SUITE_DRAWS = {
    "identities": (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "nabla": (8735, "1f395042768c73f22754cbcd6e8663157e6694190f2cf407453178129d0184c0"),
    "lift": (1811, "fdad79f0782f068f8c075ed7e774d9d57d8a63cb3fac998e7dd11fb8527bfc9c"),
    "fissilizer": (3559, "f89540679312686cd967a13fdb82816003db0ecc86d9eac2fd543d687a9610f2"),
    "simplicial": (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "retractions": (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    "witnesses": (5407, "1e76f6d53383e190bf3d7b3a85863ddf20577a7480d69fef685d3d19233547d2"),
    "brunnian": (10845, "4932d5ebcfb56140006b4f32873733c733047e9400da2e09e2435f7b05fbca76"),
}


class LoggedRandom(random.Random):
    """A ``random.Random`` that logs every draw into ``self.log``: the method,
    its arguments and its outcome, a chosen element as its position and a
    shuffle as the positions its elements came from.  A draw that reaches
    the generator outside the logged methods fails."""

    def __init__(self, seed, log):
        self.log, self.depth = log, 0
        super().__init__(seed)
        log.append(["seed", seed])

    def _logged(self, draw, *args):
        self.depth += 1
        try:
            return draw(self, *args)
        finally:
            self.depth -= 1

    def _randbelow(self, n):
        assert self.depth, "a draw outside the logged methods"
        return super()._randbelow(n)

    def randint(self, a, b):
        out = self._logged(random.Random.randint, a, b)
        self.log.append(["randint", a, b, out])
        return out

    def choice(self, seq):
        out = self._logged(random.Random.choice, seq)
        self.log.append(["choice", len(seq), next(i for i, x in enumerate(seq) if x is out)])
        return out

    def random(self):
        out = self._logged(random.Random.random)
        self.log.append(["random", repr(out)])
        return out

    def shuffle(self, x):
        before = list(x)
        self._logged(random.Random.shuffle, x)
        self.log.append(["shuffle", [next(i for i, y in enumerate(before) if y is v) for v in x]])


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_suite_draws_are_pinned(name, monkeypatch):
    log = []
    monkeypatch.setattr(
        suites, "random", SimpleNamespace(Random=lambda seed: LoggedRandom(seed, log))
    )
    assert all(ok for _case, ok in suites.SUITES[name]())
    text = json.dumps(log, separators=(",", ":"))
    assert (len(log), hashlib.sha256(text.encode()).hexdigest()) == SUITE_DRAWS[name]
