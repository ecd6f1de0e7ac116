"""Identity of the in-memory tables: every face and degeneracy table of
every simplicial set and every morphism table that the (2, 2) q run builds,
pinned by one digest.  The artifact digests pin only the written morphism
rows; this one also pins the tables that never reach a file."""

import hashlib

from fissile.canon import ckey
from fissile.simplicial import FiniteSimplicialSet, SMorphism
from fissile.wedge import construct_p, construct_q

TABLES_DIGEST = "069c82166c15e4a57c28ff41b35431c8f3191e04d34c918493123cc468b74420"
# the distinct forms under the digest, so a failure tells whether tables
# were added or dropped (a count moves) or changed (only the digest moves);
# a subset of the 84 set and 944 morphism forms built while suspensions
# were quotients of full 1-cones: the 4 sets and 4 morphisms left out are
# those 1-cones and their projections onto the suspensions
SET_FORMS, MORPHISM_FORMS = 80, 940


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
