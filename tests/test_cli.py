import json
from fractions import Fraction

import pytest

from kcomp.circuits import CircuitBuilder
from kcomp.cli import main
from kcomp.nnf_io import write_nnf

from test_circuits import DEMO_ROWS, demo_decision


@pytest.fixture
def demo_nnf(tmp_path):
    path = tmp_path / "demo.nnf"
    path.write_text(write_nnf(demo_decision()))
    return str(path)


@pytest.fixture
def toy_files(tmp_path):
    query = tmp_path / "q.cq"
    query.write_text("Q() :- R(x), S(y).\n")
    db = tmp_path / "db.tsv"
    db.write_text("R\ta\nR\ta2\nS\tb\n")
    tid = tmp_path / "db_tid.tsv"
    tid.write_text("R\ta\t1/2\tn\nR\ta2\t1/2\tn\nS\tb\t1/2\tn\n")
    return {'query': str(query), 'db': str(db), 'tid': str(tid)}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_demo(demo_nnf, capsys):
    code, out, _ = run_cli(capsys, 'count', '--nnf', demo_nnf)
    assert code == 0 and out.strip() == '6'


def test_enum_demo(demo_nnf, capsys):
    code, out, _ = run_cli(capsys, 'enum', '--nnf', demo_nnf)
    assert code == 0
    assert set(out.split()) == {'0100', '0101', '0110', '0111', '1100', '1101'}


def test_check_class(demo_nnf, capsys):
    code, out, _ = run_cli(capsys, 'check-class', '--nnf', demo_nnf)
    assert code == 0
    assert 'decision=true' in out and 'decomposable=true' in out


def test_wmc_uniform(demo_nnf, capsys):
    code, out, _ = run_cli(capsys, 'wmc', '--nnf', demo_nnf, '--p', '1/2')
    assert code == 0 and out.strip() == '3/8'


def test_sample_deterministic(demo_nnf, capsys):
    code1, out1, _ = run_cli(capsys, 'sample', '--nnf', demo_nnf,
                             '--seed', '7', '--count', '5')
    code2, out2, _ = run_cli(capsys, 'sample', '--nnf', demo_nnf,
                             '--seed', '7', '--count', '5')
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.split()) == 5


def test_best_with_probability_zero_and_one(demo_nnf, tmp_path, capsys):
    # every demo model has a 0 and a 1 bit, so its best weight is 0 either way
    for p in ('0', '1'):
        code, out, _ = run_cli(capsys, 'best', '--nnf', demo_nnf, '--p', p)
        bits, weight = out.split()
        assert code == 0 and bits in DEMO_ROWS and weight == '0'
    b = CircuitBuilder(2)
    path = tmp_path / "x1.nnf"
    path.write_text(write_nnf(b.finish(b.literal(0))))
    code, out, _ = run_cli(capsys, 'best', '--nnf', str(path), '--p', '1')
    assert code == 0 and out.split() == ['11', '1']


def test_compile_cnf_round_trip(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    out_path = tmp_path / "f.nnf"
    code, out, _ = run_cli(capsys, 'compile-cnf', '--cnf', str(cnf),
                           '--out', str(out_path))
    assert code == 0 and 'nodes=' in out
    code, out, _ = run_cli(capsys, 'count', '--nnf', str(out_path))
    assert code == 0 and out.strip() == '2'


def test_approx_dnf(tmp_path, capsys):
    dnf = tmp_path / "f.dnf"
    dnf.write_text("1 2\n2 3\n")
    code, out, _ = run_cli(capsys, 'approx-dnf', '--dnf', str(dnf),
                           '--seed', '3', '--epsilon', '0.1', '--delta', '0.33')
    assert code == 0
    estimate = Fraction(out.strip())
    assert Fraction(9, 10) * Fraction(3, 8) <= estimate <= Fraction(11, 10) * Fraction(3, 8)


def test_cq_pipeline(tmp_path, capsys):
    query = tmp_path / "q.cq"
    query.write_text("Q(x, y) :- R(x, y), S(y).\n")
    db = tmp_path / "db.tsv"
    db.write_text("R\ta\tb\nR\ta\tc\nS\tb\n")
    code, out, _ = run_cli(capsys, 'cq-count', '--query', str(query),
                           '--db', str(db))
    assert code == 0 and out.strip() == '1'
    code, out, _ = run_cli(capsys, 'cq-enum', '--query', str(query),
                           '--db', str(db))
    assert code == 0 and out.strip() == 'a\tb'
    code, out, _ = run_cli(capsys, 'cq-access', '--query', str(query),
                           '--db', str(db), '--index', '1')
    assert code == 0 and out.strip() == 'a\tb'
    code, _, err = run_cli(capsys, 'cq-access', '--query', str(query),
                           '--db', str(db), '--index', '2')
    assert code == 1    # past the last answer: domain error


def test_cq_access_index_zero_is_usage_error(toy_files, capsys):
    code, _, _ = run_cli(capsys, 'cq-access', '--query', toy_files['query'],
                         '--db', toy_files['db'], '--index', '0')
    assert code == 2


def test_cq_compile_emits_circuit(tmp_path, toy_files, capsys):
    code, out, err = run_cli(capsys, 'cq-compile', '--query', toy_files['query'],
                             '--db', toy_files['db'])
    assert code == 0
    assert out.startswith('rel ')


def test_pqe_exact(toy_files, capsys):
    code, out, _ = run_cli(capsys, 'pqe', '--query', toy_files['query'],
                           '--tid', toy_files['tid'], '--mode', 'exact')
    assert code == 0 and out.strip() == '3/8'


def test_pqe_json_round_trip(toy_files, capsys):
    code, text_out, _ = run_cli(capsys, 'pqe', '--query', toy_files['query'],
                                '--tid', toy_files['tid'])
    code2, json_out, _ = run_cli(capsys, 'pqe', '--query', toy_files['query'],
                                 '--tid', toy_files['tid'], '--format', 'json')
    assert code == code2 == 0
    obj = json.loads(json_out)
    assert str(Fraction(obj['numerator'], obj['denominator'])) == text_out.strip()


def test_ur(toy_files, capsys):
    code, out, _ = run_cli(capsys, 'ur', '--query', toy_files['query'],
                           '--db', toy_files['db'])
    assert code == 0 and out.strip() == '3'
    code, out, _ = run_cli(capsys, 'ur', '--query', toy_files['query'],
                           '--tid', toy_files['tid'])
    assert code == 0 and out.strip() == '3'
    code, _, _ = run_cli(capsys, 'ur', '--query', toy_files['query'])
    assert code == 2


def test_shapley_symmetric(toy_files, capsys):
    code, out, _ = run_cli(capsys, 'shapley', '--query', toy_files['query'],
                           '--tid', toy_files['tid'])
    assert code == 0
    lines = dict(line.split('\t') for line in out.strip().splitlines())
    assert lines['R(a)'] == lines['R(a2)']


def test_prov_kinds(toy_files, capsys):
    code, out, _ = run_cli(capsys, 'prov', '--query', toy_files['query'],
                           '--db', toy_files['db'], '--kind', 'dnf')
    assert code == 0
    assert sorted(out.strip().splitlines()) == ['R(a) & S(b)', 'R(a2) & S(b)']
    code, out, _ = run_cli(capsys, 'prov', '--query', toy_files['query'],
                           '--db', toy_files['db'], '--kind', 'read-once')
    assert code == 0 and out.startswith('(and')
    code, out, _ = run_cli(capsys, 'prov', '--query', toy_files['query'],
                           '--db', toy_files['db'], '--kind', 'circuit')
    assert code == 0 and out.startswith('nnf ')


def test_tree_commands(tmp_path, capsys):
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps({
        "default": "e",
        "root": {"label": "a", "prob": "1/2", "children": [
            {"label": "a", "prob": "1/2"},
            {"label": "a", "prob": "1/2"}]}}))
    automaton = tmp_path / "a.json"
    internal = []
    for s1 in (0, 1):
        for s2 in (0, 1):
            for lab in ('a', 'e'):
                internal.append([s1, s2, lab, int(s1 or s2 or lab == 'a')])
    automaton.write_text(json.dumps({
        "states": [0, 1], "accepting": [1],
        "leaf": {"a": 1, "e": 0}, "internal": internal}))
    code, out, _ = run_cli(capsys, 'tree-pqe', '--tree', str(tree),
                           '--automaton', str(automaton))
    assert code == 0 and out.strip() == '7/8'

    annotated = tmp_path / "a2.json"
    leaf = [[["a", 1], 1], [["a", 0], 0], [["e", 1], 1], [["e", 0], 0]]
    internal = []
    for s1 in (0, 1, 2):
        for s2 in (0, 1, 2):
            for lab in ('a', 'e'):
                for bit in (0, 1):
                    internal.append([s1, s2, [lab, bit], min(2, s1 + s2 + bit)])
    annotated.write_text(json.dumps({
        "states": [0, 1, 2], "accepting": [1], "leaf": leaf,
        "internal": internal}))
    code, out, _ = run_cli(capsys, 'tree-enum', '--tree', str(tree),
                           '--automaton', str(annotated))
    assert code == 0
    assert sorted(out.split()) == ['001', '010', '100']


@pytest.mark.parametrize('command', ['tree-pqe', 'tree-enum'])
@pytest.mark.parametrize('automaton', [
    {"states": [0, {"a": 1}], "accepting": [1], "leaf": {"a": 1}, "internal": []},
    {"states": [0, 1], "accepting": [[1]], "leaf": {"a": 1}, "internal": []},
    {"states": [0, 1], "accepting": [1], "leaf": {"a": {"s": 1}}, "internal": []},
    {"states": [0, 1], "accepting": [1], "leaf": {"a": 1},
     "internal": [[0, [1], "a", 1]]},
    {"states": [0, 1], "accepting": [1], "leaf": [[{"a": 0}, 1]], "internal": []},
    {"states": [0, 1], "accepting": [1], "leaf": {"a": [[1]]}, "internal": [],
     "nondeterministic": True},
    {"states": [0, 1], "accepting": [1], "leaf": {"a": 1}, "internal": [],
     "nondeterministic": True}])
def test_automaton_states_and_targets_must_be_scalars(tmp_path, capsys, command,
                                                      automaton):
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps({"label": "a", "prob": "1/2"}))
    path = tmp_path / "a.json"
    path.write_text(json.dumps(automaton))
    code, out, err = run_cli(capsys, command, '--tree', str(tree),
                             '--automaton', str(path))
    assert code == 2 and out == ''
    assert err.startswith('error: ') and err.count('\n') == 1, err
    assert 'Traceback' not in err


def test_approx_dnf_estimate_at_most_one(tmp_path, capsys):
    # 35 disjoint two-literal terms: the term probabilities add up to 8.75
    # while P(DNF) = 1 - (3/4)^35 is just below 1
    dnf = tmp_path / "wide.dnf"
    dnf.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 70, 2)))
    code, out, _ = run_cli(capsys, 'approx-dnf', '--dnf', str(dnf),
                           '--seed', '1', '--p', '1/2')
    assert code == 0
    assert Fraction(1, 4) <= Fraction(out.strip()) <= 1


def test_malformed_inputs_exit_2(tmp_path, toy_files, capsys):
    bad_cnf = tmp_path / "bad.cnf"
    bad_cnf.write_text("p cnf 2 3\n1 0\n")
    code, _, _ = run_cli(capsys, 'compile-cnf', '--cnf', str(bad_cnf))
    assert code == 2
    bad_tsv = tmp_path / "bad.tsv"
    bad_tsv.write_text("onlyrelname\n")
    code, _, _ = run_cli(capsys, 'cq-count', '--query', toy_files['query'],
                         '--db', str(bad_tsv))
    assert code == 2
    bad_tid = tmp_path / "bad_tid.tsv"
    bad_tid.write_text("R\ta\t2\tn\n")
    code, _, _ = run_cli(capsys, 'pqe', '--query', toy_files['query'],
                         '--tid', str(bad_tid))
    assert code == 2
    code, _, _ = run_cli(capsys, 'count', '--nnf', str(tmp_path / "missing.nnf"))
    assert code == 2


def test_domain_errors_exit_1(tmp_path, capsys):
    query = tmp_path / "hard.cq"
    query.write_text("Q() :- R(x), S(x, y), T(y).\n")
    tid = tmp_path / "hard_tid.tsv"
    tid.write_text("R\ta\t1/2\tx\nS\ta\tb\t1/2\tn\nT\tb\t1/2\tn\n")
    code, out, err = run_cli(capsys, 'shapley', '--query', str(query),
                             '--tid', str(tid), '--fact', 'R a')
    assert code == 1 and out == ''
    assert len(err.splitlines()) == 1
    assert err.startswith('error: ') and 'exogenous' in err
    # a non-hierarchical query is no domain error in exact mode
    tid.write_text("R\ta\t1/2\tn\nS\ta\tb\t1/2\tn\nT\tb\t1/2\tn\n")
    code, out, err = run_cli(capsys, 'pqe', '--query', str(query),
                             '--tid', str(tid), '--mode', 'exact')
    assert code == 0 and out.strip() == '1/8' and err == ''


def test_usage_error_unknown_command(capsys):
    assert main(['no-such-command']) == 2


def test_rel_circuit_file_round_trip(tmp_path, toy_files, capsys):
    out_path = tmp_path / "c.rel"
    code, _, _ = run_cli(capsys, 'cq-compile', '--query', toy_files['query'],
                         '--db', toy_files['db'], '--out', str(out_path))
    assert code == 0
    from kcomp.relational import read_rel, write_rel
    text = out_path.read_text()
    assert write_rel(read_rel(text)) == text


def test_json_round_trips_more_commands(demo_nnf, toy_files, capsys):
    # count
    code, text_out, _ = run_cli(capsys, 'count', '--nnf', demo_nnf)
    code2, json_out, _ = run_cli(capsys, 'count', '--nnf', demo_nnf,
                                 '--format', 'json')
    assert code == code2 == 0
    assert str(json.loads(json_out)['count']) == text_out.strip()
    # wmc
    code, text_out, _ = run_cli(capsys, 'wmc', '--nnf', demo_nnf, '--p', '1/3')
    code2, json_out, _ = run_cli(capsys, 'wmc', '--nnf', demo_nnf, '--p', '1/3',
                                 '--format', 'json')
    obj = json.loads(json_out)
    assert str(Fraction(obj['numerator'], obj['denominator'])) == text_out.strip()
    # shapley
    code, text_out, _ = run_cli(capsys, 'shapley', '--query', toy_files['query'],
                                '--tid', toy_files['tid'])
    code2, json_out, _ = run_cli(capsys, 'shapley', '--query', toy_files['query'],
                                 '--tid', toy_files['tid'], '--format', 'json')
    text_lines = dict(ln.split('\t') for ln in text_out.strip().splitlines())
    for raw in json_out.strip().splitlines():
        obj = json.loads(raw)
        value = Fraction(obj['numerator'], obj['denominator'])
        assert str(value) == text_lines[obj['fact']]


def test_boolean_query_enum_and_access(tmp_path, capsys):
    query = tmp_path / "b.cq"
    query.write_text("Q() :- R(x), S(y).\n")
    db = tmp_path / "b.tsv"
    db.write_text("R\ta\nS\tb\n")
    code, out, _ = run_cli(capsys, 'cq-enum', '--query', str(query),
                           '--db', str(db))
    assert code == 0 and out.strip() == '()'
    code, out, _ = run_cli(capsys, 'cq-access', '--query', str(query),
                           '--db', str(db), '--index', '1')
    assert code == 0 and out.strip() == '()'
    empty = tmp_path / "e.tsv"
    empty.write_text("R\ta\n")
    code, _, _ = run_cli(capsys, 'cq-count', '--query', str(query),
                         '--db', str(empty))
    assert code == 1   # S never declared: unknown relation


def test_cq_db_directory_form(tmp_path, capsys):
    query = tmp_path / "q.cq"
    query.write_text("Q(x, y) :- R(x, y), S(y).\n")
    dbdir = tmp_path / "dbdir"
    dbdir.mkdir()
    (dbdir / "R.tsv").write_text("a\tb\na\tc\n")
    (dbdir / "S.tsv").write_text("b\n")
    code, out, _ = run_cli(capsys, 'cq-count', '--query', str(query),
                           '--db', str(dbdir))
    assert code == 0 and out.strip() == '1'


def test_help_exits_zero(capsys):
    assert main(['--help']) == 0
    capsys.readouterr()


def test_count_rejects_nondeterministic_circuit(tmp_path, capsys):
    from test_circuits import demo_dnnf
    path = tmp_path / "plain.nnf"
    path.write_text(write_nnf(demo_dnnf()))
    code, _, err = run_cli(capsys, 'count', '--nnf', str(path))
    assert code == 1
    # enumeration has no determinism requirement
    code, out, _ = run_cli(capsys, 'enum', '--nnf', str(path))
    assert code == 0 and len(out.split()) == 6


def test_input_too_deep_for_recursion_is_one_line_domain_error(tmp_path, capsys):
    # a caterpillar tree 1500 levels deep nests deeper than the recursive
    # tree reader can go
    depth = 1500
    leaf = '{"label": "a"}'
    tree = tmp_path / "deep.json"
    tree.write_text('{"label": "a", "children": [' * depth + leaf
                    + (', ' + leaf + ']}') * depth)
    automaton = tmp_path / "a.json"
    automaton.write_text(json.dumps({
        "states": [0, 1], "accepting": [1], "leaf": {"a": 1},
        "internal": [[s1, s2, 'a', s1 | s2] for s1 in (0, 1) for s2 in (0, 1)]}))
    code, _, err = run_cli(capsys, 'tree-pqe', '--tree', str(tree),
                           '--automaton', str(automaton))
    assert code == 1
    assert err.startswith('error: ') and err.count('\n') == 1, err
    assert 'Traceback' not in err


@pytest.mark.parametrize('command', ['wmc', 'best'])
def test_probabilities_outside_unit_interval_are_usage_errors(demo_nnf, tmp_path,
                                                              capsys, command):
    for p in ('1.5', '-1/3', '1/0', 'half'):
        code, out, err = run_cli(capsys, command, '--nnf', demo_nnf, f'--p={p}')
        assert code == 2 and out == ''
        assert err.startswith('error: ') and err.count('\n') == 1
    probs = tmp_path / "probs.txt"
    for lines in (["1 1/2", "2 1.5", "3 1/2", "4 1/2"],
                  ["1 1/2", "2 1/2", "3 -1", "4 1/2"]):
        probs.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, command, '--nnf', demo_nnf,
                                 '--prob-file', str(probs))
        assert code == 2 and out == ''
        assert err.startswith('error: ') and err.count('\n') == 1
        assert 'outside [0, 1]' in err
    probs.write_text("1 0\n2 1\n3 1/2\n4 1/2\n")
    assert run_cli(capsys, 'wmc', '--nnf', demo_nnf, '--prob-file', str(probs))[0] == 0
