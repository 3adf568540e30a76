"""Report rendering and the command-line interface, end to end."""

import doctest
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest

import polymap
import polymap.curvature_light
import polymap.report
import polymap.surface_map
import polymap.validity
from conftest import drum
from polymap.cli import _build_parser, main
from polymap.curvature_light import curvature, match_light, scan_theorem2
from polymap.generators import (hex_klein, hex_torus, tetrahedron, tri_torus,
                                truncate)
from polymap.mapfile import parse_map, serialize_map
from polymap.report import (_json_fallback, curvature_section, fraction_str,
                            render_json, render_text)
from polymap.surface_map import RotationSystem, topology
from polymap.transferability import PathState, steps
from polymap.validity import check_polyhedral


def run_cli(capsys, monkeypatch, argv, stdin=None, encoding="utf-8"):
    """Run ``main(argv)``; ``stdin`` (str, taken as UTF-8, or bytes)
    arrives as a shell feeds it: bytes behind a text layer that decodes
    them with ``encoding``, as PYTHONIOENCODING would set it."""
    if stdin is not None:
        if isinstance(stdin, str):
            stdin = stdin.encode("utf-8")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(stdin), encoding=encoding))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def hex33_file(tmp_path):
    path = tmp_path / "hex33.map"
    path.write_text(serialize_map(hex_torus(3, 3)), encoding="utf-8")
    return str(path)


def test_fraction_str():
    assert fraction_str(Fraction(0)) == "0/1"
    assert fraction_str(Fraction(-3, 2)) == "-3/2"
    assert fraction_str(Fraction(19, 10)) == "19/10"
    assert fraction_str(0) == "0/1"
    assert fraction_str(-4) == "-4/1"
    assert fraction_str(0.5) == "1/2"


def test_render_text_shapes():
    doc = {"outer": {"flag": True, "missing": None,
                     "items": [{"a": 1}, {"a": 2}],
                     "plain": [1, 2, 3]},
           "ratio": Fraction(1, 2)}
    text = render_text(doc)
    assert text == render_text(doc)  # deterministic
    assert "flag: true" in text
    assert "missing: none" in text
    assert "ratio: 1/2" in text
    assert "plain: 1 2 3" in text
    assert text.count("-") >= 2  # one marker per list item
    assert not text.startswith(" ")
    assert text.endswith("\n")


def test_render_text_keys_list_items_and_whole_fractions():
    """A key "-" prints as a key, not as a list item, and a whole
    Fraction prints as num/den in both renderers."""
    doc = {"vertex_curvature": {"-": "1/2", "a": "0/1"},
           "items": [{"x": 1}], "two": Fraction(2)}
    text = render_text(doc)
    assert "  -: 1/2\n" in text
    assert "items:\n  -\n    x: 1\n" in text
    assert "two: 2/1\n" in text
    assert json.loads(render_json(doc))["two"] == "2/1"


def test_phi_and_light_rows_evaluated_once_per_vertex_type(monkeypatch):
    """Phi and the light-table match depend only on the vertex type:
    ``curvature_section`` calls ``curvature`` and ``scan_theorem2`` calls
    ``match_light`` once per distinct type, with unchanged results: one
    call on hex_torus(3,3), all (6,6,6), and six on a pegged drum."""
    phi_calls, light_calls = [], []

    def counted_curvature(top, v):
        phi_calls.append(top.vertex_type(v))
        return curvature(top, v)

    def counted_match(vertex_type):
        light_calls.append(vertex_type)
        return match_light(vertex_type)

    monkeypatch.setattr(polymap.report, "curvature", counted_curvature)
    monkeypatch.setattr(polymap.curvature_light, "curvature",
                        counted_curvature)
    monkeypatch.setattr(polymap.curvature_light, "match_light", counted_match)
    for rs, num_types in ((hex_torus(3, 3), 1),
                          (drum(8, 3, pegged=True), 6)):
        top = topology(rs)
        types = {top.vertex_type(v) for v in rs.vertices}
        assert len(types) == num_types
        phi_calls.clear()
        light_calls.clear()
        section = curvature_section(top)
        scan = scan_theorem2(top, check_polyhedral(top))
        assert sorted(phi_calls) == sorted(light_calls) == sorted(types)
        assert section["vertex_curvature"] == {
            v: fraction_str(curvature(top, v)) for v in rs.vertices}
        assert section["total"] == fraction_str(top.euler_characteristic)
        assert scan.light == tuple(
            (v, match_light(top.vertex_type(v))) for v in rs.vertices
            if match_light(top.vertex_type(v)) is not None)


def test_render_json_round_trips():
    doc = {"x": Fraction(2, 3), "y": [1, "two", None], "z": {"w": False}}
    blob = render_json(doc)
    assert blob == render_json(doc)
    parsed = json.loads(blob)
    assert parsed == {"x": "2/3", "y": [1, "two", None], "z": {"w": False}}
    with pytest.raises(TypeError):
        render_json({"bad": object()})


_json_strings = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\%\n\t\x00\x1f\x7f\xe9\u2603\U0001f600')))
_json_ints = st.integers(-2 ** 80, 2 ** 80)
_json_leaves = st.one_of(
    st.none(), st.booleans(), _json_ints, _json_strings, st.fractions())


def _like_keyed_dicts(values):
    # lists of dicts that share one key tuple, of str or int keys
    keys = st.one_of(_json_strings, st.integers())
    return st.lists(keys, max_size=4, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(
            dict.fromkeys(keys, values))))


def _lists_of_lists(values):
    # lists of lists of one length (empty ones too), and ragged ones
    return st.one_of(
        st.integers(0, 3).flatmap(lambda n: st.lists(
            st.lists(values, min_size=n, max_size=n))),
        st.lists(st.lists(values, max_size=3)))


def _json_containers(children):
    return st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(_json_strings, children),
        st.dictionaries(st.one_of(_json_strings, st.integers()), children),
        st.lists(_json_strings), st.lists(_json_ints),
        st.dictionaries(_json_strings, _json_strings),
        _like_keyed_dicts(_json_strings), _like_keyed_dicts(_json_ints),
        _like_keyed_dicts(children), _lists_of_lists(_json_strings),
        _lists_of_lists(_json_ints), _lists_of_lists(children))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
@hypothesis.given(st.recursive(_json_leaves, _json_containers,
                               max_leaves=20))
@hypothesis.example([{1: "a"}, {1: "b"}])
def test_render_json_is_the_stdlib_indent_layout(doc):
    """The report's JSON writer gives ``json.dumps(indent=2)``'s bytes on
    nested dicts (int keys too), lists and tuples (empty ones too), lists
    of dicts with one key tuple (int keys too), lists of lists of one
    length or ragged (empty inner lists too), strings with non-ASCII and
    control characters, quotes, backslashes and %, negative and wide
    ints, bools, None and Fractions."""
    assert render_json(doc) == json.dumps(doc, indent=2,
                                          default=_json_fallback) + "\n"


def test_analyze_text(capsys, monkeypatch, hex33_file):
    code, out, err = run_cli(capsys, monkeypatch, ["analyze", hex33_file])
    assert code == 0 and err == ""
    assert "euler_characteristic: 0/1" in out
    assert "verdict: theorem-confirmed" in out
    assert "light_count: 18" in out


def test_analyze_json_from_stdin(capsys, monkeypatch):
    text = serialize_map(hex_torus(3, 3))
    code, out, err = run_cli(capsys, monkeypatch,
                             ["analyze", "-", "--format", "json"],
                             stdin=text)
    assert code == 0
    doc = json.loads(out)
    assert doc["topology"]["euler_characteristic"] == "0/1"
    assert doc["topology"]["orientable"] is True
    assert doc["validity"]["polyhedral"] is True
    assert doc["light"]["light_count"] == 18
    assert len(doc["light"]["light"]) == 18
    assert doc["curvature"]["total"] == "0/1"


def test_check_exit_codes(capsys, monkeypatch, tmp_path):
    good = tmp_path / "good.map"
    good.write_text(serialize_map(hex_torus(3, 3)), encoding="utf-8")
    code, _, _ = run_cli(capsys, monkeypatch, ["check", str(good)])
    assert code == 0
    # a loop is structurally fine but not polyhedral -> exit 1
    bad = tmp_path / "bad.map"
    bad.write_text("v a: e+ e+ f+\nv b: f+ g+ g+\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch, ["check", str(bad)])
    assert code == 1
    assert "polyhedral: false" in out


def test_malformed_input_exits_2(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch, ["analyze", "-"],
                             stdin="v a: broken\n")
    assert code == 2
    assert out == ""
    assert "error:" in err and "line 1" in err
    code, _, err = run_cli(capsys, monkeypatch,
                           ["analyze", "/no/such/file.map"])
    assert code == 2
    code, out, err = run_cli(capsys, monkeypatch, ["check", "-"],
                             stdin="v a b: e+ e-\n")
    assert code == 2 and out == ""
    assert "line 1" in err and "whitespace" in err


def _e_acute_tetrahedron():
    """The tetrahedron with vertex 0 renamed ``é``, as UTF-8 bytes."""
    tet = {"é": ["3", "1", "2"], "1": ["2", "é", "3"],
           "2": ["3", "é", "1"], "3": ["1", "é", "2"]}
    return serialize_map(RotationSystem.from_rotations(tet)).encode("utf-8")


def test_a_file_and_stdin_give_one_map(capsys, monkeypatch, tmp_path):
    """The same bytes read the same from a path and from stdin, whatever
    encoding the process's text layer was given: the vertex is ``é``,
    not ``Ã©`` as a latin-1 stdin would decode it."""
    data = _e_acute_tetrahedron()
    path = tmp_path / "tet.map"
    path.write_bytes(data)
    for command in ("analyze", "check", "discharge"):
        argv = [command, str(path), "--format", "json"]
        from_file = run_cli(capsys, monkeypatch, argv)
        assert from_file[::2] == (0, ""), command
        for encoding in ("utf-8", "latin-1"):
            argv[1] = "-"
            assert run_cli(capsys, monkeypatch, argv, stdin=data,
                           encoding=encoding) == from_file, (command, encoding)
    code, out, _ = run_cli(capsys, monkeypatch, ["discharge", "-"],
                           stdin=data, encoding="latin-1")
    assert code == 0 and "  é: " in out and "Ã" not in out


def test_a_file_and_stdin_give_one_map_under_pythonioencoding(tmp_path):
    """``PYTHONIOENCODING=latin-1 polymap analyze - --format json`` prints
    the bytes that ``polymap analyze FILE --format json`` prints."""
    data = _e_acute_tetrahedron()
    path = tmp_path / "tet.map"
    path.write_bytes(data)
    src = os.path.dirname(os.path.dirname(polymap.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="latin-1")
    runs = [subprocess.run([sys.executable, "-m", "polymap", "analyze", file,
                            "--format", "json"], input=data, env=env,
                           capture_output=True, timeout=60)
            for file in (str(path), "-")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr == b""


def test_python_m_polymap_runs_the_command_line():
    """``python -m polymap`` is the command line: ``gen tetrahedron``
    piped into ``check -`` exits 0, and the malformed line ``v a: e+ e``
    exits 2 with one ``error: line 1:`` line on stderr and no
    traceback."""
    src = os.path.dirname(os.path.dirname(polymap.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(argv, data=None):
        return subprocess.run([sys.executable, "-m", "polymap"] + argv,
                              input=data, env=env, capture_output=True,
                              timeout=60)

    gen = run(["gen", "tetrahedron"])
    assert (gen.returncode, gen.stderr) == (0, b"")
    assert parse_map(gen.stdout.decode("utf-8")) == tetrahedron()
    assert run(["check", "-"], gen.stdout).returncode == 0
    bad = run(["check", "-"], b"v a: e+ e\n")
    assert (bad.returncode, bad.stdout) == (2, b"")
    lines = bad.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 1: "), lines
    assert b"Traceback" not in bad.stderr


@pytest.mark.parametrize("data,line,byte", [
    (b"v 0\xff: a+\n", 1, 0xff),
    (b"v 0: a+ b+ c+\nv 1: a+ \xc3(+\n", 2, 0xc3),
    (b"\xef\xbb\xbfv 0: a+\r\nv 1: a+\r\n\xff", 3, 0xff),
    (b"v 0: a+\rv 1: \xed\xa0\x80+\n", 2, 0xed),
    (b"\xfe", 1, 0xfe),
])
def test_bytes_that_are_not_utf8_exit_2_with_their_line(
        capsys, monkeypatch, tmp_path, data, line, byte):
    """A byte that is not UTF-8 fails at its own line, numbered as the
    parser numbers lines, and the same way from a file and from stdin."""
    path = tmp_path / "bad.map"
    path.write_bytes(data)
    expected = (2, "", "error: line %d: byte 0x%02x is not UTF-8\n"
                % (line, byte))
    assert run_cli(capsys, monkeypatch, ["check", str(path)]) == expected
    assert run_cli(capsys, monkeypatch, ["check", "-"], stdin=data) == expected
    assert run_cli(capsys, monkeypatch, ["analyze", "-", "--format", "json"],
                   stdin=data, encoding="latin-1") == expected


def test_discharge_skips_a3_for_a_face_below_degree_3(capsys, monkeypatch):
    """A 2-face across weak edges from two 7-faces is not a minor face
    that A3's tables price, so it moves no A3 charge (it used to crash
    with a KeyError)."""
    digon = ("v 0: c6+ c0+ d+\nv 1: c0+ c1+ d+\nv 2: c1+ c2+\n"
             "v 3: c2+ c3+\nv 4: c3+ c4+\nv 5: c4+ c5+\nv 6: c5+ c6+\n")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["discharge", "-", "--format", "json"],
                             stdin=digon)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["topology"]["face_degrees"] == [2, 7, 7]
    assert doc["discharge"]["total"] == "-12/1"
    assert "A3" not in {t["rule"] for t in doc["discharge"]["transfers"]}
    code, out, _ = run_cli(capsys, monkeypatch, ["discharge", "-"],
                           stdin=digon)
    assert code == 0 and "  total: -12/1\n" in out


def test_discharge_json(capsys, monkeypatch, tmp_path):
    path = tmp_path / "t.map"
    path.write_text(serialize_map(truncate(hex_torus(3, 3))),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["discharge", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    discharge = doc["discharge"]
    assert discharge["total"] == "0/1"
    assert discharge["stage"] == "after_B"
    assert discharge["audit"]["contradiction"] is False
    assert discharge["audit"]["light_count"] == 54
    assert len(discharge["transfers"]) == 162


@pytest.mark.parametrize("command,fmt,builder,digest", [
    ("discharge", "json", lambda: truncate(hex_klein(3, 3)),
     "e001b206bb4bd84760feea498a0adf89a63bf6de055c6b9a500ececefb92076e"),
    ("discharge", "json", lambda: tri_torus(4, 4),
     "9810de77a36ec986a571cc5c5816d6231cfb2fde6a3357b67acae0ec57ddd0a7"),
    ("analyze", "json", lambda: hex_klein(3, 3),
     "856606ab538b221e31da6663031b1c07bac0c59058698ae66b3eb857ff2999c7"),
    ("discharge", "text", lambda: truncate(hex_klein(3, 3)),
     "ef1b02af9ee2e4ad0a016d6730061aac58539ac7c88f913d94756d44502afdb6"),
], ids=["discharge-truncated-klein", "discharge-tri-torus", "analyze-klein",
        "discharge-text-truncated-klein"])
def test_json_reports_are_byte_identical(capsys, monkeypatch, tmp_path,
                                         command, fmt, builder, digest):
    """Pins face order, walk direction and ledger order of whole reports,
    and the text layout of one."""
    path = tmp_path / "m.map"
    path.write_text(serialize_map(builder()), encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           [command, str(path), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_truncated_klein_has_faces_sharing_their_smallest_dart():
    """Two pairs of faces each share a smallest dart, seen from its two
    sides: the report pins above are what fix their order."""
    smallest = [min(w.darts) for w in topology(truncate(hex_klein(3, 3))).faces]
    assert len(smallest) - len(set(smallest)) == 2


def test_gen_round_trips(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["gen", "hex-torus", "3", "3"])
    assert code == 0
    assert parse_map(out) == hex_torus(3, 3)
    code, out2, _ = run_cli(capsys, monkeypatch,
                            ["gen", "hex-torus", "3", "3", "--truncate"])
    assert code == 0
    assert parse_map(out2) == truncate(hex_torus(3, 3))
    code, out3, _ = run_cli(capsys, monkeypatch, ["gen", "tetrahedron"])
    assert code == 0 and out3.startswith("v ")


def test_gen_bad_params(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["gen", "hex-torus", "3"])
    assert code == 2 and "parameter" in err
    code, _, err = run_cli(capsys, monkeypatch, ["gen", "hex-torus", "2", "3"])
    assert code == 2


def test_transfer_single_n(capsys, monkeypatch, tmp_path):
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(__import__("polymap").tetrahedron()),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["transfer", str(path), "--n", "2",
                            "--format", "json"])
    assert code == 0
    assert json.loads(out)["transfer"]["transferable"] is True
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["transfer", str(path), "--n", "3",
                            "--format", "json"])
    assert code == 1
    doc = json.loads(out)["transfer"]
    assert doc["transferable"] is False
    assert doc["reason"] == "not-strongly-connected"


def test_transfer_sweep(capsys, monkeypatch, tmp_path):
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(__import__("polymap").tetrahedron()),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["transfer", str(path), "--sweep",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)["transfer"]
    assert doc["value"] == 2
    assert [row["n"] for row in doc["per_n"]] == [1, 2, 3]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_transfer_n_prints_the_sweep_row(capsys, monkeypatch, tmp_path, fmt):
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(__import__("polymap").tetrahedron()),
                    encoding="utf-8")
    code, sweep, _ = run_cli(capsys, monkeypatch,
                             ["transfer", str(path), "--sweep",
                              "--format", "json"])
    assert code == 0
    rows = json.loads(sweep)["transfer"]["per_n"]
    for k in (1, 2, 3):
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["transfer", str(path), "--n", str(k),
                                "--format", fmt])
        row = rows[k - 1]
        assert code == (0 if row["transferable"] else 1)
        render = render_json if fmt == "json" else render_text
        assert out == render({"transfer": row})


@pytest.mark.parametrize("argv,message", [
    (["analyze", "--budget", "10"], "unrecognized arguments"),
    (["check", "--seed", "1"], "unrecognized arguments"),
    (["transfer", "--n", "2", "--seed", "1"], "unrecognized arguments"),
    (["gen", "tetrahedron", "--format", "json"], "unrecognized arguments"),
    (["transfer", "--n", "2", "--max-n", "0"],
     "argument --max-n: only allowed with argument --sweep"),
    (["transfer", "--max-n", "13", "--n", "2"],
     "argument --max-n: only allowed with argument --sweep"),
], ids=["argv%d" % i for i in range(6)])
def test_options_a_command_does_not_use_are_rejected(capsys, monkeypatch,
                                                     hex33_file, argv,
                                                     message):
    if argv[0] != "gen":
        argv = argv[:1] + [hex33_file] + argv[1:]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys, monkeypatch, hex33_file):
    """The parser is built once per process, and no call's options,
    errors or help leak into the next call."""
    assert _build_parser() is _build_parser()

    def run(argv):
        try:
            return run_cli(capsys, monkeypatch, argv)
        except SystemExit as exc:
            captured = capsys.readouterr()
            return "exit %s" % exc.code, captured.out, captured.err

    code, out, _ = run(["analyze", hex33_file, "--format", "json"])
    assert code == 0 and json.loads(out)["light"]["light_count"] == 18
    code, out, _ = run(["analyze", hex33_file])
    assert code == 0 and "light_count: 18\n" in out
    code, out, _ = run(["transfer", hex33_file, "--sweep", "--max-n", "3"])
    assert code == 0 and "value:" in out
    code, _, err = run(["transfer", hex33_file, "--n", "2", "--max-n", "3"])
    assert code == "exit 2" and "only allowed with argument --sweep" in err
    code, _, err = run(["check", hex33_file, "--n", "2"])
    assert code == "exit 2" and "unrecognized arguments: --n 2" in err
    code, out, err = run(["check", hex33_file])
    assert (code, err) == (0, "") and "polyhedral: true\n" in out
    code, out, _ = run(["--help"])
    assert code == "exit 0" and out.startswith("usage: polymap")
    code, out, err = run(["check", hex33_file, "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["validity"]["polyhedral"] is True


@pytest.mark.parametrize("command", ["analyze", "check", "discharge",
                                     "transfer", "stuck", "export-digraph"])
def test_every_map_command_says_what_file_takes(capsys, monkeypatch,
                                                 command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert "map file, or - for stdin" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["transfer", "--sweep", "--max-n", "0"],
    ["transfer", "--sweep", "--max-n", "-1"],
    ["transfer", "--n", "0"],
    ["stuck", "--n", "0"],
    ["export-digraph", "--n", "0"],
])
def test_path_lengths_below_1_exit_2(capsys, monkeypatch, hex33_file, argv):
    code, out, err = run_cli(capsys, monkeypatch,
                             argv[:1] + [hex33_file] + argv[1:])
    assert code == 2
    assert out == ""
    assert err == "error: path length must be at least 1\n"


@pytest.mark.parametrize("command", ["transfer", "stuck", "export-digraph"])
@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_1_exits_2(capsys, monkeypatch, hex33_file, command,
                                budget):
    with pytest.raises(SystemExit) as info:
        main([command, hex33_file, "--n", "2", "--budget", budget])
    assert info.value.code == 2
    assert "argument --budget: must be at least 1" in capsys.readouterr().err


def test_transfer_budget_exits_3(capsys, monkeypatch, hex33_file, tmp_path):
    code, _, err = run_cli(capsys, monkeypatch,
                           ["transfer", hex33_file, "--n", "9",
                            "--budget", "100"])
    assert code == 3
    assert "error:" in err
    # a truncated sweep also signals exhaustion through the exit code
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["transfer", hex33_file, "--sweep", "--max-n", "9",
                            "--budget", "100", "--format", "json"])
    assert code == 3
    assert json.loads(out)["transfer"]["truncated_at"] is not None
    # so does the default sweep, which has no longest-path search of its own
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["transfer", hex33_file, "--sweep",
                            "--budget", "100", "--format", "json"])
    assert code == 3
    transfer = json.loads(out)["transfer"]
    assert (transfer["truncated_at"], transfer["search_bound"]) == (2, 1)
    # at n = V - 1 every shorter prefix is charged, so the search stops
    # at the budget instead of walking every shorter path first
    path = tmp_path / "th33.map"
    path.write_text(serialize_map(truncate(hex_torus(3, 3))),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["transfer", str(path), "--n", "53",
                              "--budget", "1000"])
    assert (code, out) == (3, "")
    assert err == ("error: more than 1000 path extensions while enumerating "
                   "directed 53-paths; raise the budget to enumerate them\n")


def test_stuck_exit_codes(capsys, monkeypatch, tmp_path):
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(__import__("polymap").tetrahedron()),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["stuck", str(path), "--n", "3",
                            "--format", "json"])
    assert code == 1
    assert json.loads(out)["stuck"]["found"] is False


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stuck_path_found(capsys, monkeypatch, tmp_path, fmt):
    """A stuck 13-path next to a0.0/0 on truncate(hex_torus(3,3)): exit
    0, the path printed in full, and no move leaves it."""
    rs = truncate(hex_torus(3, 3))
    path = tmp_path / "th33.map"
    path.write_text(serialize_map(rs), encoding="utf-8")
    code, out, err = run_cli(capsys, monkeypatch,
                             ["stuck", str(path), "--n", "13", "--anchor",
                              "a0.0/0", "--format", fmt])
    assert (code, err) == (0, "")
    if fmt == "json":
        stuck = json.loads(out)["stuck"]
        assert (stuck["found"], stuck["anchor"]) == (True, "a0.0/0")
        vertices = stuck["path"]
    else:
        assert "  found: true\n" in out
        [line] = [line for line in out.splitlines()
                  if line.startswith("  path: ")]
        vertices = line.split()[1:]
    assert len(vertices) == 14
    assert vertices[:3] == ["a0.0/0", "a0.0/1", "a0.0/2"]
    assert steps(rs.adjacency(), PathState(tuple(vertices))) == []


def test_export_digraph(capsys, monkeypatch, tmp_path):
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(__import__("polymap").tetrahedron()),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["export-digraph", str(path), "--n", "2"])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 48  # 24 directed 2-paths, two moves each


QUOTED_TRIANGLE = 'v a": ab+ ca+\nv b\\: ab+ bc+\nv c\\"\\: bc+ ca+\n'


@pytest.mark.parametrize("text,n,digest", [
    (serialize_map(truncate(hex_torus(3, 3))), 3,
     "2e1b6694cdb8aa1a7681c578cf93af8bc033559a4a64d08fb5f4c42b1f84ac92"),
    (QUOTED_TRIANGLE, 1,
     "3031f58b09d403dad4e56af46f7ce04eb179c6845636d2c6ad2169a9f1628611"),
], ids=["truncated-hex-torus", "quoted-ids"])
def test_export_digraph_is_byte_identical(capsys, monkeypatch, tmp_path,
                                          text, n, digest):
    """Pins the DOT output, state order, arc order and escaping of ``"``
    and ``\\`` in ids included."""
    path = tmp_path / "m.map"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["export-digraph", str(path), "--n", str(n)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_export_digraph_exits_141_when_stdout_closes_early(tmp_path):
    """``export-digraph FILE --n 10 | head -1``: the reader takes the
    first line and closes the pipe, and polymap exits 141 (128 +
    SIGPIPE) with nothing on stderr, no traceback."""
    path = tmp_path / "th33.map"
    path.write_text(serialize_map(truncate(hex_torus(3, 3))),
                    encoding="utf-8")
    src = os.path.dirname(os.path.dirname(polymap.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
            [sys.executable, "-m", "polymap", "export-digraph", str(path),
             "--n", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"digraph transfer {\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


def test_readme_python_example_runs():
    """The README's ``python`` block passes as a doctest.  Only that
    block is parsed: over the whole file, its closing fence would read
    as part of the expected output."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    head, _, rest = readme.read_text(encoding="utf-8").partition(
        "```python\n")
    test = doctest.DocTestParser().get_doctest(
        rest.split("```", 1)[0], {}, "README", str(readme),
        head.count("\n") + 1)
    report = []
    result = doctest.DocTestRunner().run(test, out=report.append)
    assert result.attempted == len(test.examples) > 0
    assert result.failed == 0, "".join(report)


def test_internal_contradiction_exits_4(capsys, monkeypatch, tmp_path):
    """A wheel verdict that 3-connectivity contradicts is a bug in
    polymap: one stderr line and exit 4, not a traceback."""
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(tetrahedron()), encoding="utf-8")
    monkeypatch.setattr(polymap.validity, "check_3_connected",
                        lambda graph: (False, ("0", "1")))
    code, out, err = run_cli(capsys, monkeypatch, ["check", str(path)])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_wheel_against_simplicity_exits_4(capsys, monkeypatch, tmp_path):
    """A wheel verdict that the simplicity check contradicts (a loop the
    wheel test missed) is a bug in polymap too: ``check_polyhedral``
    raises, and the CLI prints one stderr line and exits 4."""
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(tetrahedron()), encoding="utf-8")
    monkeypatch.setattr(polymap.validity, "check_simple_map",
                        lambda top: (False, True, ("loop", "e", "0")))
    with pytest.raises(RuntimeError, match="simplicity"):
        polymap.validity.check_polyhedral(topology(tetrahedron()))
    code, out, err = run_cli(capsys, monkeypatch, ["check", str(path)])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_unconfirmed_separation_pair_exits_4(capsys, monkeypatch, tmp_path):
    """A separation pair that the witness search cannot name is a bug in
    polymap, not a verdict: ``check_3_connected`` raises, and the CLI
    prints one stderr line and exits 4."""
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(tetrahedron()), encoding="utf-8")
    monkeypatch.setattr(polymap.validity, "_separating_vertices",
                        lambda *tree: [0])
    with pytest.raises(RuntimeError, match="separation-pair test"):
        polymap.validity.check_3_connected(tetrahedron().adjacency())
    code, out, err = run_cli(capsys, monkeypatch, ["check", str(path)])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_face_trace_contradiction_exits_4(capsys, monkeypatch, hex33_file):
    """A face trace that leaves a corner untraced contradicts itself, a
    bug in polymap rather than a malformed map: one stderr line and exit
    4, not the exit 2 of bad input."""
    trace = polymap.surface_map._trace_walks
    monkeypatch.setattr(polymap.surface_map, "_trace_walks",
                        lambda *tables: trace(*tables)[1:])
    code, out, err = run_cli(capsys, monkeypatch, ["analyze", hex33_file])
    assert (code, out) == (4, "")
    assert err == "internal error: corner of vertex 'a0.0' never traced\n"


def test_face_trace_mirror_and_repeat_exit_4(capsys, monkeypatch,
                                             tmp_path):
    """The face trace's other two self-contradictions: an orbit that is
    its own mirror image, and a corner that two orbits both pass, which
    a trace that returns its first orbit twice makes on
    ``tri_torus(4, 4)``: one stderr line and exit 4."""
    with pytest.raises(RuntimeError,
                       match="^facial walk is its own mirror image$"):
        polymap.surface_map._trace_walks([True], [1, 0], [0, 1])
    path = tmp_path / "tt44.map"
    path.write_text(serialize_map(tri_torus(4, 4)), encoding="utf-8")
    trace = polymap.surface_map._trace_walks
    monkeypatch.setattr(polymap.surface_map, "_trace_walks",
                        lambda *tables: trace(*tables)[:1] + trace(*tables))
    code, out, err = run_cli(capsys, monkeypatch, ["check", str(path)])
    assert (code, out) == (4, "")
    assert err == "internal error: corner 4 of vertex '0.1' traced twice\n"


def test_a_map_with_no_light_vertex_is_a_counterexample(capsys, monkeypatch,
                                                       tmp_path):
    """Were the light table to match no vertex of a map that meets the
    hypotheses (``tri_torus(4, 4)``: polyhedral, χ = 0), ``analyze``
    would report a counterexample candidate, and ``discharge`` a
    contradiction: all 16 degree-6 vertices end below 1/21, with no
    light vertex to excuse them, so it exits 1."""
    path = tmp_path / "tt44.map"
    path.write_text(serialize_map(tri_torus(4, 4)), encoding="utf-8")
    monkeypatch.setattr(polymap.curvature_light, "match_light",
                        lambda vertex_type: None)
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["analyze", str(path), "--format", "json"])
    light = json.loads(out)["light"]
    assert (code, light["verdict"], light["light_count"]) == (
        0, "counterexample-candidate", 0)
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["discharge", str(path), "--format", "json"])
    audit = json.loads(out)["discharge"]["audit"]
    assert code == 1
    assert (audit["contradiction"], audit["hypotheses_met"],
            audit["light_count"]) == (True, True, 0)
    assert audit["lemma1_violations"] == []
    assert audit["lemma2_violations"] == [
        {"vertex": "%d.%d" % (i, j), "charge": "0/1"}
        for i in range(4) for j in range(4)]
