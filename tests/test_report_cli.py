"""Report rendering and the command-line interface, end to end."""

import io
import json
from fractions import Fraction

import pytest

from polymap.cli import main
from polymap.generators import hex_torus, truncate
from polymap.mapfile import parse_map, serialize_map
from polymap.report import fraction_str, render_json, render_text


def run_cli(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
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


def test_render_json_round_trips():
    doc = {"x": Fraction(2, 3), "y": [1, "two", None], "z": {"w": False}}
    blob = render_json(doc)
    assert blob == render_json(doc)
    parsed = json.loads(blob)
    assert parsed == {"x": "2/3", "y": [1, "two", None], "z": {"w": False}}
    with pytest.raises(TypeError):
        render_json({"bad": object()})


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


@pytest.mark.parametrize("argv", [
    ["analyze", "--budget", "10"],
    ["check", "--seed", "1"],
    ["transfer", "--n", "2", "--seed", "1"],
    ["gen", "tetrahedron", "--format", "json"],
])
def test_options_a_command_does_not_use_are_rejected(capsys, monkeypatch,
                                                     hex33_file, argv):
    if argv[0] != "gen":
        argv = argv[:1] + [hex33_file] + argv[1:]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_transfer_budget_exits_3(capsys, monkeypatch, hex33_file):
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


def test_stuck_exit_codes(capsys, monkeypatch, tmp_path):
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(__import__("polymap").tetrahedron()),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["stuck", str(path), "--n", "3",
                            "--format", "json"])
    assert code == 1
    assert json.loads(out)["stuck"]["found"] is False


def test_export_digraph(capsys, monkeypatch, tmp_path):
    path = tmp_path / "tetra.map"
    path.write_text(serialize_map(__import__("polymap").tetrahedron()),
                    encoding="utf-8")
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["export-digraph", str(path), "--n", "2"])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 48  # 24 directed 2-paths, two moves each
