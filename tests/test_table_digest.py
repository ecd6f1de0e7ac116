"""Identity of the in-memory tables: every face and degeneracy table of
every simplicial set and every morphism table that the (2, 2) q run builds,
pinned by one digest.  The artifact digests pin only the written morphism
rows; this one also pins the tables that never reach a file."""

import hashlib

from fissile.canon import ckey
from fissile.simplicial import FiniteSimplicialSet, SMorphism
from fissile.wedge import construct_p, construct_q

TABLES_DIGEST = "243ed44baa781688e8e330fe0c78eab03e5c53d20b804bb9584dfc6394bead3a"
# the distinct forms under the digest, so a failure tells whether tables
# were added or dropped (a count moves) or changed (only the digest moves);
# 1,067 morphism forms when every block's glued product was composed with
# its own f, a superset of these 1,061: six composites into ("WL", (2,))
# have terms that cancel once summed per decomposition, so are not built
SET_FORMS, MORPHISM_FORMS = 108, 1061


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
