"""The package namespace, its import graph and its result types."""

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import polymap
from polymap import (curvature_light, discharging, errors, generators,
                     mapfile, surface_map, transferability, validity)
from polymap.curvature_light import LightPattern, TheoremScan
from polymap.discharging import ChargeState, LemmaAudit, TransferLedger
from polymap.errors import StructureError
from polymap.surface_map import Dart, FacialWalk
from polymap.transferability import (NPathVerdict, PathState, SccSummary,
                                     StuckWitness, TransferabilityResult)
from polymap.validity import ValidityReport

_MODULES = [curvature_light, discharging, errors, generators, mapfile,
            surface_map, transferability, validity]

_SUBMODULES = [m.name for m in pkgutil.iter_modules(polymap.__path__)
               if not m.name.startswith("_")]

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# the standard-library modules the package imports itself
_STDLIB = ("argparse", "fractions", "json", "re", "typing", "array",
           "bisect", "itertools", "collections", "functools", "math",
           "operator", "os")

_PROBE = """\
import sys
import %s
before = set(sys.modules)
import polymap.cli
print(json.dumps([sorted(set(sys.modules) - before),
                  "dataclasses" in sys.modules, "inspect" in sys.modules]))
""" % ", ".join(_STDLIB)


def test_public_names_are_the_modules_all():
    """The names ``polymap`` exports, modules aside, are exactly the
    union of the re-exported modules' ``__all__``, each the object its
    module defines."""
    public = {name for name, value in vars(polymap).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == {name for m in _MODULES for name in m.__all__}
    for m in _MODULES:
        for name in m.__all__:
            assert getattr(polymap, name) is getattr(m, name), name


def test_every_submodule_keeps_its_name():
    """No re-exported name hides a submodule: ``polymap.<name>`` is the
    submodule of that name, and no re-exported module's ``__all__``
    holds a submodule's name."""
    assert "transferability" in _SUBMODULES and "cli" in _SUBMODULES
    for name in _SUBMODULES:
        module = importlib.import_module("polymap." + name)
        assert getattr(polymap, name) is module, name
    for m in _MODULES:
        assert not set(m.__all__) & set(_SUBMODULES), m.__name__


def test_cli_imports_only_the_package():
    """Beyond the standard-library modules it names itself, importing
    the CLI loads only polymap's modules and ``__future__``: no
    ``dataclasses`` and no ``inspect``.  ``-S`` keeps site hooks out of
    the count."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run([sys.executable, "-S", "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    loaded, dataclasses_loaded, inspect_loaded = json.loads(out)
    assert [m for m in loaded if m != "__future__" and m != "polymap"
            and not m.startswith("polymap.")] == []
    assert not dataclasses_loaded
    assert not inspect_loaded


_PATH = PathState(["a", "b"])
_VERDICT = NPathVerdict(1, True, "", 2, 1)
_LEDGER = TransferLedger()
_LEDGER.record("A1", ("f", 0), ("v", "a"), Fraction(1, 3), "n")

_REPRS = [
    (_PATH, "PathState(vertices=('a', 'b'))"),
    (SccSummary(count=1, sizes=(2,)), "SccSummary(count=1, sizes=(2,))"),
    (_VERDICT, "NPathVerdict(n=1, transferable=True, reason='', "
               "state_count=2, scc_count=1)"),
    (TransferabilityResult(value=1, per_n=(_VERDICT,), search_bound=1),
     "TransferabilityResult(value=1, per_n=(NPathVerdict(n=1, "
     "transferable=True, reason='', state_count=2, scc_count=1),), "
     "search_bound=1, truncated_at=None)"),
    (StuckWitness(path=_PATH, anchor="a"),
     "StuckWitness(path=PathState(vertices=('a', 'b')), anchor='a')"),
    (FacialWalk(darts=(Dart("e", 0),), vertex_sequence=("a",), degree=1),
     "FacialWalk(darts=(Dart(edge='e', end=0),), vertex_sequence=('a',), "
     "degree=1)"),
    (LightPattern(entries=(("exact", 3), ("at_most", 6), ("any",))),
     "LightPattern(entries=(('exact', 3), ('at_most', 6), ('any',)), "
     "dagger=False)"),
    (TheoremScan(True, False, True, 0, 4, (), "hypotheses-not-met"),
     "TheoremScan(simple_polyhedral=True, chi_nonpositive=False, "
     "enough_vertices=True, euler_characteristic=0, num_vertices=4, "
     "light=(), verdict='hypotheses-not-met')"),
    (ChargeState(vertex_charge={"a": Fraction(1, 2)},
                 face_charge={0: Fraction(-3)}),
     "ChargeState(vertex_charge={'a': Fraction(1, 2)}, "
     "face_charge={0: Fraction(-3, 1)}, applied=frozenset())"),
    (_LEDGER, "TransferLedger(entries=[LedgerEntry(rule='A1', "
              "source=('f', 0), target=('v', 'a'), amount=Fraction(1, 3), "
              "note='n')])"),
    (LemmaAudit((), (("a", Fraction(0)),), 0, True, False),
     "LemmaAudit(lemma1_violations=(), lemma2_violations=(('a', "
     "Fraction(0, 1)),), light_count=0, hypotheses_met=True, "
     "contradiction=False)"),
    (ValidityReport(True, True, True, True, False, False,
                    (("cut_pair", "a", "b"),)),
     "ValidityReport(is_simple=True, min_degree_ok=True, closed_2cell=True, "
     "wheel_neighborhood=True, three_connected=False, polyhedral=False, "
     "witnesses=(('cut_pair', 'a', 'b'),))"),
]


@pytest.mark.parametrize("value, text", _REPRS,
                         ids=[type(v).__name__ for v, _ in _REPRS])
def test_result_type_repr_and_immutability(value, text):
    """Each result type keeps its keyword repr, compares equal to the
    tuple of its fields, and refuses assignment to a field."""
    assert repr(value) == text
    assert value == tuple(value)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


def test_path_state_stores_a_tuple():
    assert PathState(["a", "b"]).vertices == ("a", "b")
    assert PathState(vertices=iter("ab")) == PathState(("a", "b"))
    assert _PATH._replace(vertices=["b", "a"]) == _PATH.reverse()
    with pytest.raises(StructureError):
        _PATH._replace(vertices=("a", "a"))


def test_ledgers_are_equal_and_unshared():
    first, second = TransferLedger(), TransferLedger()
    assert first == second
    assert repr(first) == "TransferLedger(entries=[])"
    assert first.entries is not second.entries
    first.record("B", ("v", "a"), ("v", "b"), Fraction(1), "")
    assert second.entries == []
    assert first != second
    assert TransferLedger(entries=list(first.entries)) == first
