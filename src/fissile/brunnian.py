"""Reduced words in a free group, deletion actions, vanishing under every
proper deletion, nested commutators, and lower-central depth through the
truncated noncommutative power-series expansion."""

from itertools import combinations


def reduce_word(letters):
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    stack = []
    for gen, exp in letters:
        if exp not in (1, -1):
            raise ValueError("exponents must be +1 or -1")
        if stack and stack[-1][0] == gen and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((gen, exp))
    return tuple(stack)


def invert(word):
    return reduce_word([(g, -e) for g, e in reversed(word)])


def concat(*words):
    out = []
    for w in words:
        out.extend(w)
    return reduce_word(out)


def commutator(u, v):
    return concat(u, v, invert(u), invert(v))


def generator(i):
    return ((i, 1),)


def delete(keep, word):
    """Erase the generators outside the kept subset, then reduce."""
    keep = set(keep)
    return reduce_word([(g, e) for g, e in word if g in keep])


def is_brunnian(word, alphabet) -> bool:
    """The word dies under deletion of any proper subset of the alphabet."""
    alphabet = tuple(sorted(set(alphabet)))
    for r in range(len(alphabet)):
        for keep in combinations(alphabet, r):
            if delete(keep, word):
                return False
    return True


# -- nestings -----------------------------------------------------------------

LEAF = "*"


def nesting_weight(t):
    if t == LEAF:
        return 1
    left, right = t
    return nesting_weight(left) + nesting_weight(right)


def enumerate_nestings(s):
    """All binary bracketings with s leaves, in a deterministic order."""
    if s < 1:
        raise ValueError("weight must be positive")
    if s == 1:
        return [LEAF]
    out = []
    for left_size in range(1, s):
        for left in enumerate_nestings(left_size):
            for right in enumerate_nestings(s - left_size):
                out.append((left, right))
    return out


def left_comb(s):
    t = LEAF
    for _ in range(s - 1):
        t = (t, LEAF)
    return t


def nested_commutator(t, words):
    """Bracket the words following the tree shape; a leaf consumes a word."""
    words = list(words)
    if nesting_weight(t) != len(words):
        raise ValueError("leaf count must match the number of words")

    def rec(node, start):
        if node == LEAF:
            return words[start], start + 1
        left, right = node
        u, mid = rec(left, start)
        v, end = rec(right, mid)
        return commutator(u, v), end

    out, end = rec(t, 0)
    if end != len(words):
        raise ValueError(
            f"nested commutator arity: the tree took {end} of {len(words)} words"
        )
    return out


# -- truncated power series -----------------------------------------------------


class MagnusSeries:
    """Noncommutative polynomial in the generators, truncated by degree.

    Monomials are tuples of generator indices; coefficients are ints.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        self.degree = degree
        self.terms = {}
        if terms:
            for mon, c in terms.items():
                if c and len(mon) <= degree:
                    self.terms[mon] = c

    @staticmethod
    def one(degree):
        return MagnusSeries(degree, {(): 1})

    def __eq__(self, other):
        return (
            isinstance(other, MagnusSeries)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        for mon, c in other.terms.items():
            out[mon] = out.get(mon, 0) + c
        return MagnusSeries(self.degree, out)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if len(m1) + len(m2) > self.degree:
                    continue
                mon = m1 + m2
                out[mon] = out.get(mon, 0) + c1 * c2
        return MagnusSeries(self.degree, out)

    def min_positive_degree(self):
        degs = [len(mon) for mon, c in self.terms.items() if mon and c]
        return min(degs) if degs else None

    def constant_term(self):
        return self.terms.get((), 0)


def magnus(word, degree) -> MagnusSeries:
    """Multiplicative expansion of a reduced word, truncated by degree.

    The series is right-multiplied by one letter at a time: by 1 + X_g, or
    by the alternating series of X_g for g^-1, each truncated.  Terms are
    visited as ``MagnusSeries.__mul__`` by that letter's series would visit
    them, so the result equals that product term for term, in the same
    order."""
    if degree < 1:
        raise ValueError("truncation degree must be at least 1")
    terms = {(): 1}
    for g, e in word:
        out = {}
        get = out.get
        for mon, c in terms.items():
            out[mon] = get(mon, 0) + c
            if e == 1:
                if len(mon) < degree:
                    mon += (g,)
                    out[mon] = get(mon, 0) + c
            else:
                for _ in range(degree - len(mon)):
                    mon += (g,)
                    c = -c
                    out[mon] = get(mon, 0) + c
        terms = {mon: c for mon, c in out.items() if c}
    return MagnusSeries(degree, terms)


def lcs_degree(word, degree):
    """Minimal degree of a nonconstant expansion term, or None when every
    term up to the truncation vanishes (the word sits at least that deep)."""
    if not word:
        return None
    series = magnus(word, degree)
    if series.constant_term() != 1:
        raise ValueError("Magnus constant term: the expansion does not start at 1")
    return series.min_positive_degree()
