"""Identity of the in-memory tables: every face and degeneracy table of
every simplicial set and every morphism table that the (2, 2) q run builds,
pinned by one digest.  The artifact digests pin only the written morphism
rows; this one also pins the tables that never reach a file."""

import hashlib

from fissile.canon import ckey
from fissile.simplicial import FiniteSimplicialSet, SMorphism
from fissile.wedge import construct_p, construct_q

TABLES_DIGEST = "7a4067231a1d5e9cb26d08219e6a28b04d14d489a919d2d820956ae90cff9c22"
# the distinct forms under the digest, so a failure tells whether tables
# were added or dropped (a count moves) or changed (only the digest moves);
# a superset of the 1,061 built when wedge_witness, the action and iota
# tabulated their maps key by key: the 67 more are the gluings that replace
# those tables (summand shifts, the block inclusions of each iota) and the
# composites glued by them (a shift after an f, an insertion after a
# suspension map)
SET_FORMS, MORPHISM_FORMS = 108, 1128


def _recording(monkeypatch, cls, built):
    init = cls.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", record)


def _rows(table):
    return [sorted(level.items(), key=ckey) for level in table]


def test_every_table_of_the_q_run_unchanged(monkeypatch):
    sets, morphisms = [], []
    _recording(monkeypatch, FiniteSimplicialSet, sets)
    _recording(monkeypatch, SMorphism, morphisms)
    construct_q(construct_p((1, 2), (1, 2)))
    # labels and basepoints set after construction count too, so the forms
    # are read once the run is over
    set_forms = {
        ckey((s.label, s.basepoint, s.simplices, _rows(s.faces), _rows(s.degens)))
        for s in sets
    }
    morphism_forms = {
        ckey((m.domain.label, m.codomain.label, m.table_key())) for m in morphisms
    }
    h = hashlib.sha256()
    for form in sorted(set_forms | morphism_forms):
        h.update(form + b"\n")
    assert (len(set_forms), len(morphism_forms)) == (SET_FORMS, MORPHISM_FORMS)
    assert h.hexdigest() == TABLES_DIGEST
