import base64
import hashlib
import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fissile.canon import ckey, jsonable, morph_id
from fissile.simplicial import (
    constant_morphism,
    inclusion,
    quotient,
    standard_simplex,
    thick_simplex,
)


def disjoint_basepoint(u):
    """u with a free basepoint adjoined (quotient by the empty subset)."""
    return quotient(u, [set() for _ in range(u.bound + 1)], label=("plus", u.label))


def reference_ckey(x):
    """The key as ``json.dumps`` writes the ``jsonable`` structure."""
    return json.dumps(jsonable(x), sort_keys=True, separators=(",", ":")).encode()


def _morphisms():
    simplex = standard_simplex(1, 2)
    thick = thick_simplex(("a", "b"), 2)
    based = disjoint_basepoint(simplex)
    return [
        inclusion(simplex, simplex),
        inclusion(thick, thick),
        constant_morphism(thick, simplex, (1,)),
        inclusion(based, based),
    ]


MORPHISMS = _morphisms()

ATOMS = st.one_of(
    st.integers(),
    st.integers(min_value=2**63),
    st.integers(max_value=-(2**63)),
    st.booleans(),
    st.none(),
    st.text(),
    st.text(alphabet='"\\,: é \U0001f600'),
    st.sampled_from(MORPHISMS),
)
HASHABLE = st.recursive(
    ATOMS,
    lambda inner: st.lists(inner, max_size=4).map(tuple)
    | st.frozensets(inner, max_size=4),
    max_leaves=20,
)
VALUES = st.recursive(
    HASHABLE,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_ckey_matches_reference_encoding(x):
    assert ckey(x) == reference_ckey(x)


def test_ckey_matches_reference_on_fixed_values():
    for x in (
        (True, False, 1, -1, 0, None),
        ("quote\"", "back\\slash", "é", " ", "\U0001f600"),
        frozenset({(1, 2), (3,), frozenset({"b", "a"}), "a, b", "a,"}),
        [frozenset(), (), []],
        tuple(MORPHISMS),
    ):
        assert ckey(x) == reference_ckey(x)


def test_morphism_key_is_its_payload_key():
    for m in MORPHISMS:
        assert ckey(m) == ckey(m.canonical_payload())
        assert morph_id(m) == morph_id(["morphism", [list(r) for r in m.table_key()]])


def test_morph_id_is_the_base64url_sha256_of_the_key():
    for x in (*MORPHISMS, ["morphism", []], "é"):
        mid = morph_id(x)
        assert len(mid) == 43
        assert set(mid) <= set(string.ascii_letters + string.digits + "-_")
        assert base64.urlsafe_b64decode(mid + "=") == hashlib.sha256(ckey(x)).digest()


@pytest.mark.parametrize("x", [object(), (1, object()), frozenset({object()})])
def test_ckey_rejects_values_without_encoding(x):
    with pytest.raises(TypeError):
        ckey(x)
