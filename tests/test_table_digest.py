"""Identity of the in-memory tables: every face and degeneracy table of
every simplicial set and every morphism table that the (2, 2) q run builds,
pinned by one digest.  The artifact digests pin only the written morphism
rows; this one also pins the tables that never reach a file.

Each form is read as its object is built: no set or morphism is changed
after it is validated, so its label and basepoint are the ones its
validation saw."""

import hashlib

from fissile.canon import ckey
from fissile.simplicial import FiniteSimplicialSet, SMorphism
from fissile.wedge import construct_p, construct_q

TABLES_DIGEST = "cd113d25bead23fb2c568a1d03233edea914f4ecb69228dff4933c1dbfd303b1"
# the distinct forms under the digest, so a failure tells whether tables
# were added or dropped (a count moves) or changed (only the digest moves);
# a subset of the 80 set and 940 morphism forms built while the builder
# also evaluated its intermediate witnesses: the 88 morphisms left out
# are maps into spaces at l that only those evaluations composed
SET_FORMS, MORPHISM_FORMS = 80, 852


def _recording(monkeypatch, cls, form, forms):
    init = cls.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        forms.add(form(self))

    monkeypatch.setattr(cls, "__init__", record)


def _rows(table):
    return [sorted(level.items(), key=ckey) for level in table]


def _set_form(s):
    return ckey((s.label, s.basepoint, s.simplices, _rows(s.faces), _rows(s.degens)))


def _morphism_form(m):
    return ckey((m.domain.label, m.codomain.label, m.table_key()))


def test_every_table_of_the_q_run_unchanged(monkeypatch):
    set_forms, morphism_forms = set(), set()
    _recording(monkeypatch, FiniteSimplicialSet, _set_form, set_forms)
    _recording(monkeypatch, SMorphism, _morphism_form, morphism_forms)
    construct_q(construct_p((1, 2), (1, 2)))
    h = hashlib.sha256()
    for form in sorted(set_forms | morphism_forms):
        h.update(form + b"\n")
    assert (len(set_forms), len(morphism_forms)) == (SET_FORMS, MORPHISM_FORMS)
    assert h.hexdigest() == TABLES_DIGEST
