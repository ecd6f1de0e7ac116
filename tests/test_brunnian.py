import random
from itertools import product

import pytest

from fissile import brunnian
from fissile.brunnian import (
    MagnusSeries,
    commutator,
    concat,
    delete,
    enumerate_nestings,
    generator,
    invert,
    is_brunnian,
    lcs_degree,
    left_comb,
    magnus,
    nested_commutator,
    nesting_weight,
    reduce_word,
)


def random_word(rng, alphabet, length):
    return reduce_word(
        [(rng.choice(alphabet), rng.choice((1, -1))) for _ in range(length)]
    )


def test_reduce_cases():
    assert reduce_word([(1, 1), (1, -1)]) == ()
    assert reduce_word([(1, 1), (2, 1), (2, -1), (1, 1)]) == ((1, 1), (1, 1))


def test_reduce_idempotent():
    rng = random.Random(51)
    for _ in range(100):
        w = random_word(rng, (1, 2, 3), rng.randint(0, 10))
        assert reduce_word(w) == w


def test_inverse_and_concat():
    rng = random.Random(52)
    for _ in range(50):
        w = random_word(rng, (1, 2), rng.randint(0, 8))
        assert concat(w, invert(w)) == ()


def test_delete_identity_and_empty():
    rng = random.Random(53)
    for _ in range(30):
        w = random_word(rng, (1, 2, 3), rng.randint(0, 8))
        assert delete((1, 2, 3), w) == w
        assert delete((), w) == ()


def test_delete_monoid_action():
    rng = random.Random(54)
    subsets = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    for _ in range(60):
        w = random_word(rng, (1, 2, 3), rng.randint(0, 8))
        j = rng.choice(subsets)
        k = rng.choice(subsets)
        assert delete(k, delete(j, w)) == delete(tuple(set(j) & set(k)), w)


def test_delete_homomorphic():
    rng = random.Random(55)
    for _ in range(40):
        v = random_word(rng, (1, 2), rng.randint(0, 6))
        w = random_word(rng, (1, 2), rng.randint(0, 6))
        assert delete((1,), concat(v, w)) == concat(delete((1,), v), delete((1,), w))


def test_brunnian_basic():
    c = commutator(generator(1), generator(2))
    assert is_brunnian(c, (1, 2))
    assert not is_brunnian(generator(1), (1, 2))
    assert is_brunnian((), (1, 2))


def erased(word, kept):
    """A deletion by hand, without ``delete`` or ``reduce_word``: erase the
    letters outside kept, then cancel adjacent inverse pairs until nothing
    changes."""
    w = [(g, e) for g, e in word if g in kept]
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]:
                del w[i : i + 2]
                changed = True
                break
    return w


def brute_brunnian(word, alphabet):
    from itertools import combinations

    return not any(
        erased(word, kept)
        for r in range(len(alphabet))
        for kept in combinations(alphabet, r)
    )


def test_brunnian_exhaustive_short_words():
    # every word of length <= 8 in two letters, against the deletion oracle
    alphabet = (1, 2)
    letters = [(g, e) for g in alphabet for e in (1, -1)]
    count = 0
    for length in range(0, 9):
        if length > 4:
            # sample deterministically to keep the loop tight
            rng = random.Random(100 + length)
            pool = [
                tuple(rng.choice(letters) for _ in range(length))
                for _ in range(400)
            ]
        else:
            pool = list(product(letters, repeat=length))
        for raw in pool:
            w = reduce_word(raw)
            assert is_brunnian(w, alphabet) == brute_brunnian(w, alphabet)
            count += 1
    assert count > 500


def test_nestings_enumeration_catalan():
    assert [len(enumerate_nestings(s)) for s in (1, 2, 3, 4)] == [1, 1, 2, 5]
    for s in (1, 2, 3, 4):
        for t in enumerate_nestings(s):
            assert nesting_weight(t) == s


def test_nested_commutator_shapes():
    w = generator(1)
    assert nested_commutator("*", [w]) == w
    got = nested_commutator(("*", "*"), [generator(1), generator(2)])
    assert got == commutator(generator(1), generator(2))
    comb = nested_commutator(
        left_comb(3), [generator(1), generator(2), generator(3)]
    )
    assert comb == commutator(commutator(generator(1), generator(2)), generator(3))
    assert is_brunnian(comb, (1, 2, 3))


def test_nested_commutator_arity_mismatch():
    with pytest.raises(ValueError):
        nested_commutator(("*", "*"), [generator(1)])


@pytest.mark.optimized
def test_nested_commutator_arity_check_raises(monkeypatch):
    # a leaf count that lies past the first check leaves words unconsumed
    monkeypatch.setattr(brunnian, "nesting_weight", lambda t: 3)
    with pytest.raises(ValueError, match="nested commutator arity"):
        nested_commutator("*", [generator(i) for i in (1, 2, 3)])


@pytest.mark.optimized
def test_magnus_constant_term_check_raises(monkeypatch):
    monkeypatch.setattr(MagnusSeries, "constant_term", lambda self: 0)
    with pytest.raises(ValueError, match="Magnus constant term"):
        lcs_degree(generator(1), 2)


def test_nested_commutators_of_distinct_generators_brunnian():
    for s in (2, 3, 4):
        gens = [generator(i) for i in range(1, s + 1)]
        for t in enumerate_nestings(s):
            w = nested_commutator(t, gens)
            assert is_brunnian(w, tuple(range(1, s + 1)))


def test_magnus_generator_and_inverse():
    assert magnus(generator(1), 3).terms == {(): 1, (1,): 1}
    assert magnus(invert(generator(1)), 2).terms == {(): 1, (1,): -1, (1, 1): 1}


def test_magnus_commutator():
    got = magnus(commutator(generator(1), generator(2)), 2)
    assert got.terms == {(): 1, (1, 2): 1, (2, 1): -1}


def test_magnus_multiplicative():
    rng = random.Random(56)
    for _ in range(40):
        v = random_word(rng, (1, 2), rng.randint(0, 5))
        w = random_word(rng, (1, 2), rng.randint(0, 5))
        assert magnus(concat(v, w), 3) == magnus(v, 3) * magnus(w, 3)


def test_magnus_inverse_is_inverse():
    rng = random.Random(57)
    for _ in range(30):
        w = random_word(rng, (1, 2, 3), rng.randint(0, 5))
        assert magnus(concat(w, invert(w)), 3) == MagnusSeries.one(3)


def generator_series(i, exp, degree):
    """Reference: the truncated series of one letter, 1 + X_i for x_i and
    the alternating series of X_i for its inverse."""
    if exp == 1:
        return MagnusSeries(degree, {(): 1, (i,): 1})
    return MagnusSeries(degree, {(i,) * k: (-1) ** k for k in range(degree + 1)})


def test_magnus_equals_the_product_of_generator_series():
    # the left fold of the general product, term for term and in order
    rng = random.Random(58)
    words = [()] + [random_word(rng, (1, 2, 3), rng.randint(1, 9)) for _ in range(60)]
    assert {e for w in words for _, e in w} == {1, -1}
    for w in words:
        for d in (1, 2, 3, 4):
            want = MagnusSeries.one(d)
            for g, e in w:
                want = want * generator_series(g, e, d)
            got = magnus(w, d)
            assert got.degree == d
            assert list(got.terms.items()) == list(want.terms.items())


def substitute_zero(series, killed):
    """The series with every monomial that mentions a killed generator
    dropped."""
    return MagnusSeries(
        series.degree,
        {mon: c for mon, c in series.terms.items() if not set(mon) & set(killed)},
    )


def test_magnus_substitution_commutes_with_deletion():
    rng = random.Random(58)
    alphabet = (1, 2, 3)
    for _ in range(40):
        w = random_word(rng, alphabet, rng.randint(0, 6))
        keep = tuple(
            sorted(rng.sample(alphabet, rng.randint(0, 3)))
        )
        killed = set(alphabet) - set(keep)
        assert substitute_zero(magnus(w, 3), killed) == magnus(delete(keep, w), 3)


def test_lcs_degrees():
    assert lcs_degree(generator(1), 4) == 1
    assert lcs_degree(commutator(generator(1), generator(2)), 4) == 2
    for s in (2, 3, 4):
        comb = nested_commutator(
            left_comb(s), [generator(i) for i in range(1, s + 1)]
        )
        assert lcs_degree(comb, s) == s
    assert lcs_degree((), 4) is None


def random_brunnian_word(rng, alphabet):
    s = len(alphabet)
    out = ()
    for _ in range(rng.randint(1, 3)):
        perm = list(alphabet)
        rng.shuffle(perm)
        t = rng.choice(enumerate_nestings(s))
        core = nested_commutator(t, [generator(i) for i in perm])
        conj = random_word(rng, alphabet, rng.randint(0, 3))
        sign = rng.choice((1, -1))
        piece = core if sign == 1 else invert(core)
        out = concat(out, conj, piece, invert(conj))
    return out


def test_brunnian_words_sit_deep():
    rng = random.Random(59)
    for n in (2, 3):
        alphabet = tuple(range(1, n + 1))
        for _ in range(60):
            w = random_brunnian_word(rng, alphabet)
            assert is_brunnian(w, alphabet)
            d = lcs_degree(w, n)
            assert d is None or d >= n
            # every surviving monomial must mention every generator
            series = magnus(w, n)
            for mon in series.terms:
                if mon:
                    assert set(mon) == set(alphabet)


def test_arity_and_constant_term_checks_raise_under_optimize(run_optimized):
    run_optimized(
        f"{__file__}::test_nested_commutator_arity_check_raises",
        f"{__file__}::test_magnus_constant_term_check_raises",
    )
