"""Canonical encodings shared by every universe in the package.

Elements of the free abelian groups handled here are opaque values: ints,
strings, None, nested tuples of those, or objects exposing a
``canonical_payload()`` method.  Two elements are equal exactly when their
canonical byte keys are equal, which is what makes dict-backed formal sums
safe.
"""

import base64
import json


def jsonable(x):
    """Convert a canonical value to a JSON-serializable structure."""
    if x is None or isinstance(x, (int, str, bool)):
        return x
    if isinstance(x, (tuple, list)):
        return [jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted((jsonable(v) for v in x), key=lambda v: json.dumps(v))
    payload = getattr(x, "canonical_payload", None)
    if payload is not None:
        return jsonable(payload())
    raise TypeError(f"no canonical encoding for {type(x)!r}")


def unjsonable(x):
    """Inverse of :func:`jsonable` (lists come back as tuples)."""
    if isinstance(x, list):
        return tuple(unjsonable(v) for v in x)
    return x


def _encode(j) -> bytes:
    return json.dumps(j, sort_keys=True, separators=(",", ":")).encode()


def ckey(x) -> bytes:
    """Deterministic byte key of a canonical value."""
    return _encode(jsonable(x))


def ckey_b64(x) -> str:
    return base64.b64encode(ckey(x)).decode("ascii")


def jsonable_b64(j) -> str:
    """``ckey_b64`` of the value whose :func:`jsonable` form is j."""
    return base64.b64encode(_encode(j)).decode("ascii")

