"""Canonical encodings shared by every universe in the package.

Elements of the free abelian groups handled here are opaque values: ints
(bools among them), strings, None, nested tuples and lists of those,
frozensets of those, or objects exposing a ``canonical_payload()`` method.
Two elements are equal exactly when their canonical byte keys are equal,
which is what makes dict-backed formal sums safe.

Every key comes from one prebuilt C encoder object, the one that a
compact ``json.JSONEncoder`` would build inside each ``encode`` (that
``encode`` is the fallback where the C module is missing).  It writes
ints, bools, None and ASCII-escaped strings itself, and tuples as lists;
its ``default`` hook turns a frozenset into its :func:`jsonable` member
list, a ``canonical_payload()`` object into its payload, and refuses
anything else with a TypeError.  So each key is the text of exactly the
structure :func:`jsonable` builds, with the same separators, and has the
bytes of ``json.dumps(jsonable(x), sort_keys=True, separators=(",",
":"))``: the sort acts on dicts only, and no canonical value holds one.
Floats and dicts, which no canonical value holds either, are written as
they come rather than refused.
"""

import base64
import hashlib
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


def _payload(x):
    """The value the encoder writes for x, which it cannot write itself."""
    if isinstance(x, frozenset):
        return jsonable(x)
    payload = getattr(x, "canonical_payload", None)
    if payload is None:
        raise TypeError(f"no canonical encoding for {type(x)!r}")
    return payload()


_ENCODER = json.JSONEncoder(
    separators=(",", ":"), check_circular=False, default=_payload
)
# the C encoder object that ``_ENCODER.encode`` would build on every call
_ITERENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None, _payload, json.encoder.encode_basestring_ascii, None, ":", ",",
    False, False, True,
)


def ckey(x) -> bytes:
    """Deterministic byte key of a canonical value."""
    if _ITERENCODE is None:
        return _ENCODER.encode(x).encode()
    return "".join(_ITERENCODE(x, 0)).encode()


def morph_id(x) -> str:
    """The name of x in a file: the unpadded base64url text of the sha256
    of its key, 43 characters whatever the size of x."""
    digest = hashlib.sha256(ckey(x)).digest()
    return base64.urlsafe_b64encode(digest).decode("ascii").rstrip("=")
