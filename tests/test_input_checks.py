"""Malformed circuit files and queries that do not fit their database are
rejected with an error, never read as something else: a format error (CLI
exit 2), or an unknown relation (a domain error, CLI exit 1)."""

import pytest

from kcomp.cli import main
from kcomp.cq import Database, answer_count, answer_enum, compile_cq, parse_cq
from kcomp.errors import ArityMismatch, InputFormatError, UnknownRelation
from kcomp.nnf_io import read_nnf
from kcomp.provenance import provenance_dnf, provenance_read_once
from kcomp.relational import read_rel

REL_HEAD = "rel 1 3 2\nattr x 2 0 1\nmode full\nI 0 0\nI 0 1\n"


def test_read_nnf_rejects_negative_child_ids():
    with pytest.raises(InputFormatError):
        read_nnf("nnf 3 2 1\nL 1\nL -1\nA 2 -1 -2\n")
    with pytest.raises(InputFormatError):
        read_nnf("nnf 3 2 1\nL 1\nL -1\nO 0 2 0 -1\n")


def test_read_rel_rejects_negative_child_ids():
    with pytest.raises(InputFormatError):
        read_rel(REL_HEAD + "U 2 -1 -2\n")
    assert read_rel(REL_HEAD + "U 2 0 1\n").size == 2


def test_read_rel_rejects_mode_line_without_mode():
    with pytest.raises(InputFormatError):
        read_rel("rel 1 1 0\nattr x 2 0 1\nmode\nI 0 0\n")


def test_read_rel_rejects_default_index_out_of_range():
    with pytest.raises(InputFormatError):
        read_rel("rel 1 1 0\nattr x 2 0 1\nmode zero 2\nI 0 0\n")
    with pytest.raises(InputFormatError):
        read_rel("rel 1 1 0\nattr x 2 0 1\nmode zero -1\nI 0 0\n")


def test_negative_child_id_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.nnf"
    path.write_text("nnf 3 2 1\nL 1\nL -1\nA 2 -1 -2\n")
    assert main(['count', '--nnf', str(path)]) == 2
    assert capsys.readouterr().err.startswith('error:')


DB = {'R': {('a', 'b'), ('b', 'c')}, 'S': {('c', 'd')}, 'T': set()}


@pytest.mark.parametrize('text', ["Q(x) :- R(x, y, z).", "Q(x) :- R(x).",
                                  "Q(x, w) :- R(x, y), S(y, z, w)."])
def test_atom_arity_must_match_the_relation(text):
    query = parse_cq(text)
    with pytest.raises(ArityMismatch):
        compile_cq(query, Database(DB))
    with pytest.raises(ArityMismatch):
        answer_count(query, Database(DB))


def test_relation_without_facts_takes_any_arity():
    query = parse_cq("Q(x) :- R(x, y), T(y, z, w).")
    assert list(answer_enum(query, Database(DB))) == []
    assert compile_cq(query, Database(DB)).size == 0


@pytest.mark.parametrize('text', ["Q(x) :- R(x, y, z).", "Q(x) :- R(x)."])
def test_cq_count_arity_mismatch_exits_2(tmp_path, capsys, text):
    query = tmp_path / "q.cq"
    query.write_text(text + "\n")
    db = tmp_path / "db.tsv"
    db.write_text("R\ta\tb\nR\tb\tc\n")
    code = main(['cq-count', '--query', str(query), '--db', str(db)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith('error:') and err.count('\n') == 1
    assert 'Traceback' not in err


@pytest.mark.parametrize('text, error', [("Q() :- R(x).", ArityMismatch),
                                         ("Q() :- Z(x).", UnknownRelation)])
def test_provenance_builders_check_the_relations(text, error):
    query = parse_cq(text)
    with pytest.raises(error):
        provenance_dnf(query, Database(DB))
    with pytest.raises(error):
        provenance_read_once(query, Database(DB))


@pytest.mark.parametrize('text, code', [("Q() :- R(x).", 2), ("Q() :- Z(x).", 1)])
def test_provenance_commands_check_the_relations(tmp_path, capsys, text, code):
    query = tmp_path / "q.cq"
    query.write_text(text + "\n")
    db = tmp_path / "db.tsv"
    db.write_text("R\ta\tb\nR\tb\tc\n")
    tid = tmp_path / "db.tid"
    tid.write_text("R\ta\tb\t1/2\tn\nR\tb\tc\t1/2\tn\n")
    for argv in (['prov', '--kind', 'dnf', '--db', str(db)],
                 ['pqe', '--mode', 'approx', '--tid', str(tid)]):
        assert main(argv + ['--query', str(query)]) == code
        err = capsys.readouterr().err
        assert err.startswith('error:') and err.count('\n') == 1
