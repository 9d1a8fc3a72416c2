import io
import json
import subprocess
import sys

import pytest

from leraytop import cli, make_complex
from leraytop.io_json import (FormatError, complex_from_json, complex_to_json,
                              family_from_json, family_to_json,
                              parse_rational, partitioned_from_json,
                              partitioned_to_json)
from leraytop.multiproj import extremal_example, make_partitioned

from childenv import child_env
from oracles import make_box, solid_simplex


def test_complex_roundtrip_byte_identity():
    X = make_complex([[0, 1], [1, 2], [0, 2]])
    text = complex_to_json(X)
    assert complex_to_json(complex_from_json(text)) == text
    assert json.loads(text)["facets"] == [[0, 1], [0, 2], [1, 2]]


def test_complex_json_canonicalizes_non_maximal():
    text = json.dumps({"vertices": ["a", "b", "c"],
                       "facets": [[0, 1, 2], [0, 1]]})
    assert json.loads(complex_to_json(complex_from_json(text)))["facets"] \
        == [[0, 1, 2]]


def test_complex_json_errors():
    with pytest.raises(FormatError):
        complex_from_json("{not json")
    with pytest.raises(FormatError):
        complex_from_json('{"facets": [[0]]}')
    with pytest.raises(FormatError):
        complex_from_json('{"vertices": ["a"], "facets": [[0, 5]]}')
    with pytest.raises(FormatError):
        complex_from_json('{"vertices": ["a"], "facets": [[0, "x"]]}')


def test_partitioned_roundtrip():
    px = extremal_example(2, 2)
    text = partitioned_to_json(px)
    assert partitioned_to_json(partitioned_from_json(text)) == text
    with pytest.raises(FormatError):
        partitioned_from_json('{"vertices": ["a"], "facets": [[0]]}')
    with pytest.raises(FormatError):  # part breaks 0-dimensionality
        partitioned_from_json(json.dumps(
            {"vertices": ["a", "b"], "facets": [[0, 1]], "parts": [[0, 1]]}))


def test_rationals_and_family_json():
    assert parse_rational("3/2") == 1.5
    with pytest.raises(FormatError):
        parse_rational("1/0")
    with pytest.raises(FormatError):
        parse_rational("abc")
    members = {"G1": [make_box([(0, 1)]), make_box([("3/2", "5/2")])],
               "G2": [make_box([(1, 2)])]}
    text = family_to_json(1, members)
    d, parsed = family_from_json(text)
    assert d == 1 and family_to_json(d, parsed) == text
    with pytest.raises(FormatError):
        family_from_json('{"d": 0, "members": {}}')
    with pytest.raises(FormatError):
        family_from_json('{"d": 1, "members": {"G": [[["1/0", "2"]]]}}')
    with pytest.raises(FormatError):
        family_from_json('{"d": 2, "members": {"G": [[["0", "1"]]]}}')


def _run(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return cli.run(argv)


def test_cli_homology(tmp_path, capsys):
    f = tmp_path / "ht.json"
    f.write_text(complex_to_json(make_complex([[0, 1], [1, 2], [0, 2]])))
    assert cli.run(["homology", str(f)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["reduced"] == [0, 1]


def test_cli_homology_refuses_a_large_simplex_at_once():
    # the 29-simplex has 2^30 faces; the guard refuses it before it builds
    # any, so the run ends well inside the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "leraytop.cli", "homology", "-"],
        input=complex_to_json(solid_simplex(range(30))),
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: simplex enumeration exceeds guard %d\n" \
        % cli.DEFAULT_MPC_SIMPLEX_GUARD


def test_cli_leray_both_on_simplex(tmp_path, capsys):
    f = tmp_path / "simplex.json"
    f.write_text(complex_to_json(solid_simplex(range(4))))
    assert cli.run(["leray", "--method", "both", str(f)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["value"] == 0 and rep["agree"]
    assert {m["method"] for m in rep["methods"]} == {"definition", "links"}


def test_cli_leray_disagreement_exit_3(tmp_path, capsys, monkeypatch):
    from leraytop.leray import LerayCertificate
    f = tmp_path / "simplex.json"
    f.write_text(complex_to_json(solid_simplex(range(3))))
    monkeypatch.setattr(cli, "leray_by_definition",
                        lambda X, cap, guard: LerayCertificate(
                            7, (("induced", (0,)), 6), "definition"))
    assert cli.run(["leray", "--method", "both", str(f)]) == 3


def test_cli_format_error_exit_2(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"d": 1, "members": {"G": [[["1/0", "2"]]]}}')
    assert cli.run(["helly", str(f)]) == 2
    f2 = tmp_path / "bad2.json"
    f2.write_text("{not json")
    assert cli.run(["homology", str(f2)]) == 2


def test_cli_usage_error_exit_2():
    assert cli.run(["no-such-command"]) == 2


def test_cli_example_pipe_check_lproj(monkeypatch, capsys):
    assert cli.run(["example", "--r", "2", "--d", "2"]) == 0
    example_json = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(example_json))
    assert cli.run(["check", "lproj", "-"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["holds"] and rep["tight"]


def test_cli_check_batches_hold(capsys):
    for kind in ("lproj", "hmps", "inter", "hl"):
        assert cli.run(["check", kind, "--seed", "0", "--count", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines and all(json.loads(l)["holds"] for l in lines)


def test_cli_amenta_batch(capsys):
    assert cli.run(["amenta", "--r", "2", "--d", "1", "--groups", "4",
                    "--seed", "0", "--count", "3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert len(lines) == 3 and all(json.loads(l)["holds"] for l in lines)
    assert captured.err == ("checked 3 seeded instances of amenta: 3 held, "
                            "0 skipped (guard), 0 failed\n")


def _strip_timing(lines):
    out = []
    for line in lines:
        doc = json.loads(line)
        doc.pop("timing_ms", None)
        out.append(json.dumps(doc, sort_keys=True))
    return out


def test_cli_determinism(capsys):
    argv = ["check", "icss", "--seed", "5", "--count", "4",
            "--max-vertices", "8", "--guard", "2000"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out.splitlines()
    assert cli.run(argv) == 0
    second = capsys.readouterr().out.splitlines()
    assert _strip_timing(first) == _strip_timing(second)


def test_cli_batch_runs_in_one_process():
    code = ("import sys\n"
            "from leraytop import cli\n"
            "rc = cli.run(['check', 'lproj', '--count', '1'])\n"
            "print(rc, [m for m in sys.modules\n"
            "           if m.split('.')[0] in ('concurrent', "
            "'multiprocessing')])\n")
    # LERAYTOP_WORKERS is not read, so a value that is no number is harmless
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(child_env(),
                                              LERAYTOP_WORKERS="two"))
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


@pytest.mark.parametrize("argv", [
    ["check", "lproj", "--count", "-3"],
    ["amenta", "--r", "0", "--count", "1"],
    ["check", "amenta", "--r", "-1", "--count", "1"],
    ["amenta", "--d", "0", "--count", "1"],
    ["check", "amenta", "--groups", "0", "--count", "1"],
    ["amenta", "--count", "many"],
    ["check", "lproj", "--count", "2", "--workers", "2"],
    ["check", "lproj", "--count", "1", "--max-vertices", "1"],
    ["check", "hmps", "--count", "1", "--max-vertices", "1"],
    ["check", "lproj", "--seed", "1", "--count", "3", "--max-vertices", "3"],
    ["check", "inter", "--count", "1", "--max-vertices", "-4"],
], ids=["count", "amenta-r", "check-r", "d", "groups", "not-an-integer",
        "workers", "max-vertices-1", "hmps-max-vertices-1", "max-vertices-3",
        "max-vertices-negative"])
def test_cli_bad_batch_numbers_are_usage_errors(argv, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: leraytop")
    assert "Traceback" not in captured.err


def test_cli_shell_pipe_end_to_end():
    pipe = ("%s -m leraytop.cli example --r 2 --d 2 | "
            "%s -m leraytop.cli check lproj") % (sys.executable,
                                                 sys.executable)
    proc = subprocess.run(pipe, shell=True, capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tight"]


def test_readers_reject_booleans():
    with pytest.raises(FormatError):
        complex_from_json('{"vertices": ["a", "b"], "facets": [[true, 0]]}')
    with pytest.raises(FormatError):
        partitioned_from_json(json.dumps(
            {"vertices": ["a", "b"], "facets": [[0], [1]],
             "parts": [[False], [True]]}))
    with pytest.raises(FormatError):
        family_from_json('{"d": true, "members": {"G": [[["0", "1"]]]}}')
    with pytest.raises(FormatError):
        family_from_json('{"d": 1, "members": [1]}')


# Each facet list has a good facet, then the first bad one, then a second
# bad one; the reader must name the first.
_BAD_FACETS = [
    ("bool", '[[0, 1], [1, true], [0, true]]', "[1, True]"),
    ("float", '[[0, 1], [1, 1.0], [2, 2.0]]', "[1, 1.0]"),
    ("string", '[[0, 1], [1, "2"], ["0"]]', "[1, '2']"),
    ("negative", '[[0, 1], [1, -1], [-2]]', "[1, -1]"),
    ("id-n", '[[0, 1], [1, 3], [3]]', "[1, 3]"),
    ("non-list", '[[0, 1], 2, [3]]', "2"),
    ("nested", '[[0, 1], [1, [2]], [[0]]]', "[1, [2]]"),
]
_THREE_PARTS = ', "parts": [[0], [1], [2]]'


def _facets_doc(facets, extra=""):
    return '{"vertices": ["a", "b", "c"], "facets": %s%s}' % (facets, extra)


@pytest.mark.parametrize("facets,named", [c[1:] for c in _BAD_FACETS],
                         ids=[c[0] for c in _BAD_FACETS])
def test_readers_name_the_first_bad_facet(facets, named, tmp_path, capsys):
    message = "facet %s is not a list of vertex ids below 3" % named
    with pytest.raises(FormatError) as exc:
        complex_from_json(_facets_doc(facets))
    assert str(exc.value) == message
    with pytest.raises(FormatError) as exc:
        partitioned_from_json(_facets_doc(facets, _THREE_PARTS))
    assert str(exc.value) == message
    f = tmp_path / "bad.json"
    f.write_text(_facets_doc(facets, _THREE_PARTS))
    assert cli.run(["check", "lproj", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_readers_keep_the_simplex_and_part_messages():
    with pytest.raises(FormatError) as exc:
        complex_from_json(_facets_doc("[[0, 1], [2, 2]]"))
    assert str(exc.value) == "duplicate vertex in simplex [2, 2]"
    with pytest.raises(FormatError) as exc:
        partitioned_from_json(_facets_doc("[[0, 1], [0, 2]]",
                                          ', "parts": [[0, 2], [1]]'))
    assert str(exc.value) == ("facet (0, 2) meets a part twice; induced part "
                              "subcomplexes must be 0-dimensional")


_COMMON_BAD = ["{not json", "", "[1, 2]", '"text"',
               "[" * 100000 + "]" * 100000]
_COMPLEX_BAD = _COMMON_BAD + [
    '{"facets": [[0]]}',
    '{"vertices": "ab", "facets": []}',
    '{"vertices": ["a", "b"], "facets": [[true, 0]]}',
    '{"vertices": ["a"], "facets": [0]}',
    '{"vertices": ["a"], "facets": [[0, 5]]}',
    '{"vertices": ["a", "b"], "facets": [[1, 1]]}',
]
_PARTITIONED_BAD = _COMMON_BAD + [
    '{"vertices": ["a", "b"], "facets": [[0], [1]]}',
    '{"vertices": ["a", "b"], "parts": [[0], [1]]}',
    '{"vertices": ["a", "b"], "facets": [[true, 0]], "parts": [[0], [1]]}',
    '{"vertices": ["a", "b"], "facets": [[0], [1]], '
    '"parts": [[false], [true]]}',
    '{"vertices": ["a", "b"], "facets": [[0], [1]], "parts": "01"}',
    '{"vertices": ["a", "b"], "facets": [[0, 1]], "parts": [[0, 1]]}',
    '{"vertices": ["a", "b"], "facets": [[0], [1]], "parts": [[0]]}',
]
_FAMILY_BAD = _COMMON_BAD + [
    '{"members": {}}',
    '{"d": 1, "members": [1]}',
    '{"d": true, "members": {"G": [[["0", "1"]]]}}',
    '{"d": 0, "members": {}}',
    '{"d": 1, "members": {"G": 5}}',
    '{"d": 1, "members": {"G": [["01"]]}}',
    '{"d": 1, "members": {"G": [[["0", "1", "2"]]]}}',
    '{"d": 2, "members": {"G": [[["0", "1"]]]}}',
    '{"d": 1, "members": {"G": [[[true, "1"]]]}}',
    '{"d": 1, "members": {"G": [[[null, "1"]]]}}',
    '{"d": 1, "members": {"G": [[[1e999, 2]]]}}',
    '{"d": 1, "members": {"G": [[["1/0", "2"]]]}}',
    '{"d": 1, "members": {"G": [[["2", "1"]]]}}',
]
_READERS = [
    (["homology"], _COMPLEX_BAD),
    (["leray"], _COMPLEX_BAD),
    (["project"], _PARTITIONED_BAD),
    (["mps"], _PARTITIONED_BAD),
    (["icss"], _PARTITIONED_BAD),
    (["check", "lproj"], _PARTITIONED_BAD),
    (["check", "hmps"], _PARTITIONED_BAD),
    (["check", "icss"], _PARTITIONED_BAD),
    (["helly"], _FAMILY_BAD),
    (["amenta"], _FAMILY_BAD),
    (["check", "hl"], _FAMILY_BAD),
]


@pytest.mark.parametrize("argv,text", [
    pytest.param(argv, text, id="%s-%d" % ("-".join(argv), i))
    for argv, cases in _READERS for i, text in enumerate(cases)])
def test_cli_malformed_input_exits_2(argv, text, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(text)
    assert cli.run(argv + [str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [argv for argv, _ in _READERS],
                         ids=["-".join(argv) for argv, _ in _READERS])
def test_cli_unreadable_input_exits_2(argv, tmp_path, capsys):
    f = tmp_path / "latin1.json"
    f.write_bytes(b'{"vertices": ["\xff"]}')
    assert cli.run(argv + [str(f)]) == 2
    assert cli.run(argv + [str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err


def test_cli_check_amenta_file_points_to_amenta(tmp_path, capsys):
    f = tmp_path / "family.json"
    f.write_text('{"d": 1, "members": {"G": [[["0", "1"]]]}}')
    assert cli.run(["check", "amenta", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "leraytop amenta FILE" in err
    assert "Traceback" not in err


def test_cli_amenta_refuses_an_over_cap_family_before_walking(
        tmp_path, capsys, monkeypatch):
    # 21 groups that all contain 0: every subfamily meets, so a validation
    # walk would visit all 2^21 - 1 of them before the cap refused
    from leraytop import helly
    walks = []
    inner = helly._meet_walk
    monkeypatch.setattr(helly, "_meet_walk",
                        lambda *args: walks.append(1) or inner(*args))
    f = tmp_path / "family.json"
    f.write_text(json.dumps({"d": 1, "members": {
        "G%d" % i: [[["-1", "1"]]] for i in range(21)}}))
    assert cli.run(["amenta", str(f)]) == 2
    assert capsys.readouterr().err == "error: family size 21 exceeds cap 20\n"
    assert not walks


@pytest.mark.parametrize("argv", (["amenta"], ["check", "amenta"]))
def test_cli_amenta_batch_refuses_over_cap_groups_before_drawing(
        argv, capsys, monkeypatch):
    from leraytop import helly
    draws = []
    inner = helly.random_fr_family
    monkeypatch.setattr(helly, "random_fr_family",
                        lambda *args: draws.append(1) or inner(*args))
    assert cli.run(argv + ["--groups", "21", "--count", "1"]) == 2
    assert capsys.readouterr().err == "error: family size 21 exceeds cap 20\n"
    assert not draws
    # at the cap the batch draws as before
    assert cli.run(argv + ["--groups", "20", "--r", "1", "--count", "1"]) == 0
    assert draws == [1]


def test_cli_amenta_batch_names_the_size_it_cannot_draw(capsys):
    # seed 0 draws a valid family; seed 1 does not in 200 draws
    argv = ["amenta", "--r", "12", "--d", "1", "--groups", "5", "--count", "3"]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: no valid grouped family with r=12, d=1 and 5 "
                   "groups in 200 draws for seed 1\n")


def test_cli_amenta_empty_family_is_refused_before_the_walk(
        tmp_path, capsys, monkeypatch):
    from leraytop import helly
    walks = []
    inner = helly._meet_walk
    monkeypatch.setattr(helly, "_meet_walk",
                        lambda *args: walks.append(1) or inner(*args))
    f = tmp_path / "family.json"
    f.write_text('{"d": 1, "members": {}}')
    assert cli.run(["amenta", str(f)]) == 2
    assert capsys.readouterr().err == \
        "error: a grouped family needs at least one group\n"
    assert not walks


def test_cli_non_object_members_on_stdin_exits_2():
    proc = subprocess.run([sys.executable, "-m", "leraytop.cli", "helly", "-"],
                          input='{"d":1,"members":[1]}', capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_cli_helly_all_empty_family_names_its_witness():
    proc = subprocess.run([sys.executable, "-m", "leraytop.cli", "helly", "-"],
                          input='{"d":1,"members":{"a":[]}}',
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["witness"] == ["a"] and report["helly"] == 1


def test_cli_check_count_summary_separates_skipped(capsys):
    argv = ["check", "hmps", "--seed", "0", "--count", "4", "--guard", "20"]
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    reports = [json.loads(l) for l in captured.out.splitlines()]
    assert sum(1 for r in reports if r.get("skipped")) == 2
    assert captured.err.strip().endswith(
        "4 seeded instances of hmps: 2 held, 2 skipped (guard), 0 failed")


def test_cli_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cli, "_cmd_homology", broken)
    f = tmp_path / "ht.json"
    f.write_text(complex_to_json(make_complex([[0, 1]])))
    assert cli.run(["homology", str(f)]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: unexpected" in err


@pytest.mark.parametrize("argv", [
    ["check", "lproj", "--count", "2", "--guard", "-1"],
    ["homology", "--guard", "-5"],
    ["check", "icss", "--guard", "many"],
], ids=["check", "homology", "not-an-integer"])
def test_cli_guard_must_be_nonnegative(argv, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--guard: expected a nonnegative integer" in captured.err
    assert "Traceback" not in captured.err


def test_cli_check_lproj_file_honours_the_guard(tmp_path, capsys):
    f = tmp_path / "ex.json"
    f.write_text(partitioned_to_json(extremal_example(2, 2)))
    assert cli.run(["check", "lproj", str(f)]) == 0
    capsys.readouterr()
    assert cli.run(["check", "lproj", str(f), "--guard", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: simplex enumeration exceeds guard 10\n"


@pytest.mark.parametrize("facets", [[], [[]]], ids=["void", "empty"])
def test_cli_check_lproj_needs_a_vertex(tmp_path, capsys, facets):
    # exit 1 would claim the projection bound failed
    f = tmp_path / "x.json"
    f.write_text(json.dumps({"vertices": ["a", "b"], "facets": facets,
                             "parts": [[0], [1]]}))
    assert cli.run(["check", "lproj", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the projection bound needs X to have a vertex\n")


def test_cli_mps_refuses_a_large_k_on_singleton_parts(tmp_path, capsys):
    # M_k has one vertex per vertex here, but each is labelled by a k-tuple:
    # 4 * 40000 label entries
    f = tmp_path / "x.json"
    f.write_text(json.dumps({"vertices": ["a", "b", "c", "d"],
                             "facets": [[0, 1], [2, 3]],
                             "parts": [[0], [1], [2], [3]]}))
    assert cli.run(["mps", "-k", "40000", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: multiple-point vertex bound exceeds guard 20000\n")


def test_cli_check_file_may_follow_the_options(tmp_path, capsys):
    f = tmp_path / "ex.json"
    f.write_text(partitioned_to_json(extremal_example(2, 2)))
    assert cli.run(["check", "lproj", str(f), "--guard", "100000"]) == 0
    after = capsys.readouterr()
    assert cli.run(["check", "lproj", "--guard", "100000", str(f)]) == 0
    assert capsys.readouterr() == after
    assert cli.run(["check", "lproj", "--guard", "10", str(f)]) == 2
    assert capsys.readouterr().err == (
        "error: simplex enumeration exceeds guard 10\n")
    assert cli.run(["check", "lproj", "--guard", "10", str(f), "x"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: unrecognized arguments: %s x\n" % f)


@pytest.mark.parametrize("command", ["project", "helly", "amenta"])
def test_cli_guard_is_not_an_option_of(command, tmp_path):
    f = tmp_path / "in.json"
    f.write_text(partitioned_to_json(extremal_example(2, 2))
                 if command == "project" else
                 family_to_json(1, {"a": [make_box([(0, 1)])]}))
    proc = subprocess.run(
        [sys.executable, "-m", "leraytop.cli", command, "--guard", "5",
         str(f)], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("usage: leraytop")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind,claim", [("lproj", "projection_bound"),
                                        ("inter", "intersection_bound"),
                                        ("icss", "e1_euler_consistency")])
def test_cli_check_batch_passes_the_guard(kind, claim, capsys):
    assert cli.run(["check", kind, "--count", "2", "--guard", "5"]) == 0
    captured = capsys.readouterr()
    reports = [json.loads(l) for l in captured.out.splitlines()]
    assert [(r["claim"], r["skipped"], r["reason"]) for r in reports] == [
        (claim, True, "simplex enumeration exceeds guard 5")] * 2
    assert captured.err.strip().endswith(
        "2 seeded instances of %s: 0 held, 2 skipped (guard), 0 failed"
        % kind)


def test_cli_check_icss_batch_summary(capsys):
    assert cli.run(["check", "icss", "--seed", "0", "--count", "20"]) == 0
    captured = capsys.readouterr()
    reports = [json.loads(l) for l in captured.out.splitlines()]
    assert all(r["holds"] for r in reports)
    skipped = {r["instance"]["seed"]: r["reason"] for r in reports
               if r.get("skipped")}
    orbit = ("alternating-orbit scan (%d simplices x %d group elements) "
             "exceeds work guard 2000000")
    assert skipped == {
        3: orbit % (37187, 120), 7: orbit % (42932, 120),
        10: orbit % (70945, 720), 13: orbit % (18736, 720),
        14: "multiple-point simplex count exceeds guard 200000",
        15: orbit % (26938, 120)}
    assert captured.err.strip().endswith(
        "20 seeded instances of icss: 14 held, 6 skipped (guard), 0 failed")
