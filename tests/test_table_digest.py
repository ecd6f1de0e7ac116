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

TABLES_DIGEST = "ee43c047b0b507472fb4cec78bd3cf764dd24dc56f401618faeabfcd64e5dd3a"
# the distinct forms under the digest, so a failure tells whether tables
# were added or dropped (a count moves) or changed (only the digest moves);
# with zero blocks dropped where restrictions create them, 55 forms that
# only zero blocks needed (their decompositions and values) are no longer
# built, and 96 block values composed by the zero-block checks are: 74 of
# them forms that evaluating every compacted witness's blocks also builds,
# 22 those tables with the codomain W(I) in place of a space at l.  With
# one wedge, and one label, per tuple of summands, 2 sets and 10 morphisms
# that were built under a second wedge label are built once.  The full
# wedge is one object labelled ("WL", I), so the copy of it that the wedge
# at I was is no longer built, nor a table on ("plusbase", E) into that
# copy beside the same table into the full wedge.  A tower builds its
# reduced cone on first use, and no contraction reads the tower at I, so
# its cone is no longer built: the forms before that change, less the forms
# after it, were exactly the set ("redcone", ("suspension", ("thick", (),
# 3))) and its inclusion, and no form was added (77, 882 before)
SET_FORMS, MORPHISM_FORMS = 76, 881


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
