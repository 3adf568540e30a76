"""Charge initialization, transfer rules, conservation, and the audit."""

import itertools
from fractions import Fraction

import pytest

from polymap.discharging import (HUGE, ChargeState, TransferLedger,
                                 _check_total, apply_rule_a1, apply_rule_a2,
                                 apply_rule_a3, apply_rule_a4, apply_rule_b,
                                 initial_charges, lemma1_bound, run_discharge)
from polymap.cli import main
from polymap.errors import StructureError
from polymap.generators import (hex_klein, hex_torus, k7_torus, tetrahedron,
                                tri_torus, truncate)
from polymap.mapfile import serialize_map
from polymap.surface_map import RotationSystem, topology
from polymap.validity import check_polyhedral

from conftest import (antiprism, audit_by_moves, discharge_by_moves, drum,
                      medial, perturb, seeded_rng, subdivide)

F = Fraction

_A_RULES = (apply_rule_a1, apply_rule_a2, apply_rule_a3, apply_rule_a4)
_PIPELINE = tuple(zip(("A1", "A2", "A3", "A4", "B"),
                      _A_RULES + (apply_rule_b,)))


@pytest.fixture(scope="module")
def trunc_hex():
    top = topology(truncate(hex_torus(3, 3)))
    final, ledger, audit = run_discharge(top)
    return top, final, ledger, audit


def test_initial_charges_total(corpus_tops):
    for name, top in corpus_tops.items():
        state = initial_charges(top)
        assert state.total() == -6 * top.euler_characteristic, name
        assert state.stage == "initial"
        for v in top.rs.vertices:
            assert state.vertex_charge[v] == 2 * top.rs.degree(v) - 6
        for f, d in enumerate(top.face_degrees):
            assert state.face_charge[f] == d - 6


def test_conservation_through_all_stages(corpus_tops):
    for name, top in corpus_tops.items():
        state = initial_charges(top)
        expect = -6 * top.euler_characteristic
        for rule in _A_RULES + (apply_rule_b,):
            state = rule(state, top, TransferLedger())
            assert state.total() == expect, (name, state.applied)
        assert state.stage == "after_B"


def _plain_total(state):
    return (sum(state.vertex_charge.values(), F(0))
            + sum(state.face_charge.values(), F(0)))


def _totals_at_every_stage(top):
    """(total, plain sum) after the initial charges and after each rule,
    or None when rule A3 refuses the map (an edge with one face)."""
    state = initial_charges(top)
    totals = [(state.total(), _plain_total(state))]
    try:
        for rule in _A_RULES + (apply_rule_b,):
            state = rule(state, top, TransferLedger())
            totals.append((state.total(), _plain_total(state)))
    except StructureError:
        return None
    return totals


def test_total_is_the_plain_sum_at_every_stage(corpus, corpus_tops):
    """The total summed per denominator equals one Fraction addition per
    charge after the initial charges and after every rule, on the corpus,
    larger truncated tori and twelve chi < 0 perturb mutants that the
    rules accept."""
    tops = list(corpus_tops.values())
    tops += [topology(truncate(rs)) for rs in
             (hex_torus(6, 6), hex_klein(4, 4), tri_torus(4, 4))]
    rng = seeded_rng(2525)
    names = sorted(corpus)
    mutants = []
    while len(mutants) < 12:
        top = topology(perturb(corpus[names[rng.randrange(len(names))]], rng,
                               moves=rng.randint(1, 3)))
        if top.euler_characteristic < 0 and _totals_at_every_stage(top):
            mutants.append(top)
    for top in tops + mutants:
        for total, plain in _totals_at_every_stage(top):
            assert type(total) is F and total == plain


def _huge_face_map():
    """An antiprism over a 2519-gon with one bottom edge subdivided once
    and another twice: (3,3,4,huge) and (3,3,5,huge) vertices on both
    huge faces."""
    rs = subdivide(antiprism(HUGE), "w0000~w0001", 1)
    return subdivide(rs, "w0007~w0008", 2)


def _rules_match_the_moves(top, state):
    """Apply the five rules to ``state`` and to the one-move-at-a-time
    oracle: equal charges, every one a Fraction, after each rule and
    equal ledgers in the same order.  Returns the oracle's stages."""
    ledger, by_moves = TransferLedger(), TransferLedger()
    stages = discharge_by_moves(top, state, by_moves)
    for rule, (vertex, face) in zip(_A_RULES + (apply_rule_b,), stages):
        state = rule(state, top, ledger)
        for got, want in ((state.vertex_charge, vertex),
                          (state.face_charge, face)):
            assert got == want
            assert {type(c) for c in got.values()} <= {F}
    assert ledger.entries == by_moves.entries
    return stages


def test_rules_match_one_fraction_move_at_a_time(corpus):
    """Summing each charge's moved numerators per denominator gives the
    charges, ledger and audit of one Fraction move per entry, on the
    corpus, 30 seeded perturb mutants that the rules accept, the kagome
    torus (rule A2) and the huge-face map (rule A4); and the charges and
    ledger on the A3 band drums, where the 7-gons of drum(7, ...) and
    the 10-gons of drum(10, 1, ...) end stage A at exactly 0, so rule B
    moves nothing from them."""
    rng = seeded_rng(2626)
    names = sorted(corpus)
    mutants = []
    while len(mutants) < 30:
        rs = perturb(corpus[names[rng.randrange(len(names))]], rng,
                     moves=rng.randint(1, 3))
        try:
            run_discharge(topology(rs))
        except StructureError:
            continue
        mutants.append(rs)
    rules = set()
    for rs in [*corpus.values(), medial(hex_torus(3, 3)), _huge_face_map(),
               *mutants]:
        top = topology(rs)
        stages = _rules_match_the_moves(top, initial_charges(top))
        final, ledger, audit = run_discharge(top)
        assert (final.vertex_charge, final.face_charge) == stages[-1]
        assert tuple(audit) == audit_by_moves(
            top, stages[3][1], stages[4][0])
        rules |= {e.rule for e in ledger.entries}
    assert rules == {"A1", "A2", "A3", "A4", "B"}
    for major in (7, 8, 9, 10, 12, 13, 2518, 2519):
        for apex, pegged in itertools.product((1, 3), (False, True)):
            top = topology(drum(major, apex, pegged))
            _rules_match_the_moves(top, initial_charges(top))


def test_rules_match_the_moves_off_twentieths(trunc_hex):
    """A caller's state with sevenths in it: the rules still move charge
    exactly, and rule B's shares carry the sevenths onto the vertices."""
    top = trunc_hex[0]
    state = initial_charges(top)
    major = top.face_degrees.index(12)
    state.vertex_charge[top.rs.vertices[0]] += F(1, 7)
    state.face_charge[major] += F(1, 7)
    state.face_charge[major + 1] -= F(2, 7)
    stages = _rules_match_the_moves(top, state)
    assert {c.denominator for c in stages[-1][0].values()} >= {7 * 12}


def test_check_total_catches_a_charge_off_by_a_twelfth(trunc_hex):
    top = trunc_hex[0]
    for state in (initial_charges(top), run_discharge(top)[0]):
        _check_total(state, F(0), state.stage)
        state.face_charge[0] += F(1, 12)
        with pytest.raises(RuntimeError,
                           match="charge conservation broken.*1/12"):
            _check_total(state, F(0), state.stage)


def test_each_rule_leaves_the_state_it_was_handed(corpus_tops):
    """Applied in pipeline order, every rule leaves the state it was
    handed as it was, charges and ``applied``, and returns a state that
    has gained exactly its own rule: on the corpus and on the three maps
    the tori-verify benchmark discharges."""
    tops = list(corpus_tops.values()) + [
        topology(rs) for rs in (tri_torus(12, 12), truncate(hex_torus(6, 6)),
                                truncate(hex_klein(4, 4)))]
    for top in tops:
        state = initial_charges(top)
        ledger = TransferLedger()
        for name, rule in _PIPELINE:
            before = (dict(state.vertex_charge), dict(state.face_charge),
                      state.applied)
            after = rule(state, top, ledger)
            assert (state.vertex_charge, state.face_charge,
                    state.applied) == before, name
            assert after.applied == state.applied | {name}, name
            state = after


def test_conservation_failure_names_the_rule(capsys, monkeypatch, trunc_hex,
                                             tmp_path):
    """A total off by 1/7 once A2 has run: ``run_discharge`` names rule
    A2, not the set of rules applied, and ``discharge`` prints that one
    line and exits 4."""
    total = ChargeState.total
    monkeypatch.setattr(ChargeState, "total", lambda state: total(state) + (
        F(1, 7) if "A2" in state.applied else 0))
    message = "charge conservation broken at rule A2: total 1/7, expected 0"
    with pytest.raises(RuntimeError) as info:
        run_discharge(trunc_hex[0])
    assert str(info.value) == message
    path = tmp_path / "th33.map"
    path.write_text(serialize_map(trunc_hex[0].rs), encoding="utf-8")
    assert main(["discharge", str(path)]) == 4
    assert capsys.readouterr() == ("", "internal error: %s\n" % message)


def test_truncated_hex_worked_example(trunc_hex):
    top, final, ledger, audit = trunc_hex
    tri = [f for f, d in enumerate(top.face_degrees) if d == 3]
    twelve = [f for f, d in enumerate(top.face_degrees) if d == 12]
    assert (len(tri), len(twelve)) == (18, 9)
    assert {final.face_charge[f] for f in tri} == {F(-3, 2)}
    assert {final.face_charge[f] for f in twelve} == {F(0)}
    assert set(final.vertex_charge.values()) == {F(1, 2)}
    assert final.total() == 0


def test_truncated_hex_audit(trunc_hex):
    top, final, ledger, audit = trunc_hex
    tri = [f for f, d in enumerate(top.face_degrees) if d == 3]
    assert sorted(f for f, _, _, _ in audit.lemma1_violations) == tri
    assert {c for _, _, c, _ in audit.lemma1_violations} == {F(-3, 2)}
    assert audit.lemma2_violations == ()
    assert audit.light_count == 54
    assert audit.hypotheses_met
    assert not audit.contradiction


def test_truncated_hex_ledger(trunc_hex):
    top, final, ledger, audit = trunc_hex
    replayed = ledger.replay(initial_charges(top))
    assert replayed.vertex_charge == final.vertex_charge
    assert replayed.face_charge == final.face_charge

    b = [e for e in ledger.entries if e.rule == "B"]
    assert {e.amount for e in b} == {F(1, 4)}
    assert len(b) == 108  # nine 12-gons, one share per incidence
    a3 = [e for e in ledger.entries if e.rule == "A3"]
    assert {e.amount for e in a3} == {F(1, 2)}
    assert len(a3) == 54  # every edge of t(hex33) is weak, band 9..12


def test_a_rules_order_independent(trunc_hex):
    top = trunc_hex[0]
    outcomes = set()
    for perm in itertools.permutations(_A_RULES):
        state = initial_charges(top)
        for rule in perm:
            state = rule(state, top, TransferLedger())
        outcomes.add((tuple(sorted(state.vertex_charge.items())),
                      tuple(sorted(state.face_charge.items()))))
    assert len(outcomes) == 1


def test_stage_gating(trunc_hex):
    top = trunc_hex[0]
    state = initial_charges(top)
    with pytest.raises(StructureError):
        apply_rule_b(state, top, TransferLedger())  # B before the A rules
    state = apply_rule_a1(state, top, TransferLedger())
    assert state.stage == "stage_A"
    with pytest.raises(StructureError):
        apply_rule_a1(state, top, TransferLedger())  # same rule twice
    for rule in (apply_rule_a2, apply_rule_a3, apply_rule_a4):
        state = rule(state, top, TransferLedger())
    assert state.stage == "after_A"
    after_b = initial_charges(top)._replace(applied=frozenset({"B"}))
    with pytest.raises(StructureError, match="stage A rule A1 after rule B"):
        apply_rule_a1(after_b, top, TransferLedger())
    state = apply_rule_b(state, top, TransferLedger())
    with pytest.raises(StructureError):
        apply_rule_a2(state, top, TransferLedger())  # A after B
    with pytest.raises(StructureError):
        apply_rule_b(state, top, TransferLedger())


def test_k7_everything_cancels():
    top = topology(k7_torus())
    final, ledger, audit = run_discharge(top)
    assert set(final.vertex_charge.values()) == {F(0)}
    assert set(final.face_charge.values()) == {F(0)}
    assert audit.lemma1_violations == ()
    assert len(audit.lemma2_violations) == 7
    assert audit.light_count == 7
    assert not audit.contradiction
    assert {e.rule for e in ledger.entries} == {"A1"}
    assert {e.amount for e in ledger.entries} == {F(1)}
    assert len(ledger.entries) == 42  # 7 vertices x 6 triangle corners


def test_quiet_maps_move_no_charge():
    for rs in (hex_torus(3, 3), hex_klein(4, 4)):
        top = topology(rs)
        final, ledger, audit = run_discharge(top)
        assert ledger.entries == []
        assert set(final.vertex_charge.values()) == {F(0)}
        assert set(final.face_charge.values()) == {F(0)}
        assert len(audit.lemma2_violations) == top.num_vertices
        assert not audit.contradiction


def test_medial_maps():
    """The medial map of the tetrahedron is the octahedron; that of
    hex_torus(3,3) is the kagome torus, every vertex (3,6,3,6)."""
    octa = topology(medial(tetrahedron()))
    assert (octa.num_vertices, octa.num_edges, octa.num_faces) == (6, 12, 8)
    assert set(octa.face_degrees) == {3}
    assert check_polyhedral(octa).polyhedral
    kagome = topology(medial(hex_torus(3, 3)))
    assert (kagome.num_vertices, kagome.euler_characteristic) == (27, 0)
    assert kagome.orientable and check_polyhedral(kagome).polyhedral
    for v, faces in kagome.vertex_faces.items():
        degs = [kagome.face_degrees[f] for f in faces]
        assert degs in ([3, 6, 3, 6], [6, 3, 6, 3]), (v, degs)


def test_medial_refuses_a_negative_edge():
    """The helper's rotations ignore signatures: on hex_klein(3,3) they
    read chi = -2, orientable and not polyhedral, where the medial of a
    Klein-bottle map has chi = 0 and is non-orientable.  hex_torus(3,3)
    with one vertex switched (rotation reversed, its edges negated) is
    the same torus map, yet its medial read chi = -2 as well."""
    with pytest.raises(ValueError, match="signature"):
        medial(hex_klein(3, 3))
    rs = hex_torus(3, 3)
    rot = {v: [d.edge for d in rs.rotation[v]] for v in rs.vertices}
    rot["a0.0"].reverse()
    switched = RotationSystem(rot, {e: -1 for e in rot["a0.0"]})
    assert switched.orientable
    with pytest.raises(ValueError, match="signature"):
        medial(switched)


def test_rule_a2_on_the_kagome_torus():
    """Every (3,6,3,6) vertex pays 1 by rule A1 and 1/10 more by rule
    A2 to each of its two triangles."""
    top = topology(medial(hex_torus(3, 3)))
    final, ledger, audit = run_discharge(top)
    rules = [e.rule for e in ledger.entries]
    assert (rules.count("A1"), rules.count("A2"), len(rules)) == (54, 54, 108)
    assert {e.amount for e in ledger.entries if e.rule == "A2"} == {F(1, 10)}
    assert set(final.vertex_charge.values()) == {F(-1, 5)}
    by_degree = {(top.face_degrees[f], c)
                 for f, c in final.face_charge.items()}
    assert by_degree == {(3, F(3, 10)), (6, F(0))}
    assert final.total() == 0
    assert audit.light_count == 27
    assert audit.lemma1_violations == ()
    assert len(audit.lemma2_violations) == 27
    assert not audit.contradiction


def test_a3_rejects_minor_and_major_on_same_face():
    path = topology(RotationSystem({"u": ["e"], "w": ["e"]}))
    with pytest.raises(StructureError,
                       match="edge 'e' has the same face on both sides"):
        apply_rule_a3(initial_charges(path), path, TransferLedger())


def test_a4_on_huge_faces():
    """An antiprism over a 2519-gon, with one bottom edge subdivided once
    and another twice, has genuine (3,3,4,huge) and (3,3,5,huge) vertices
    on both huge faces."""
    n = HUGE
    top = topology(_huge_face_map())
    assert top.vertex_type("u0000") == (3, 3, 4, n)
    assert top.vertex_type("u0007") == (3, 3, 5, n)
    assert top.vertex_type("w0000") == (3, 3, 4, n + 3)
    assert top.vertex_type("w0007") == (3, 3, 5, n + 3)

    ledger = TransferLedger()
    state = initial_charges(top)
    for rule in _A_RULES:
        state = rule(state, top, ledger)
    a4 = [e for e in ledger.entries if e.rule == "A4"]
    assert {e.target[1]: e.amount for e in a4} == {
        "u0000": F(1, 2), "u0007": F(1, 5),
        "w0000": F(1, 2), "w0001": F(1, 2),
        "w0007": F(1, 5), "w0008": F(1, 5),
    }
    top_face = top.face_degrees.index(n)
    bottom_face = top.face_degrees.index(n + 3)
    assert {e.source for e in a4} == {("f", top_face), ("f", bottom_face)}
    assert state.total() == -6 * top.euler_characteristic

    state = apply_rule_b(state, top, ledger)
    majors = {state.face_charge[f]
              for f, d in enumerate(top.face_degrees) if d >= 7}
    assert majors == {F(0)}
    assert state.total() == -6 * top.euler_characteristic
    replayed = ledger.replay(initial_charges(top))
    assert replayed.vertex_charge == state.vertex_charge
    assert replayed.face_charge == state.face_charge


_WEAK_TABLE = {3: (F(1, 5), F(1, 2), F(1), F(19, 10)),
               4: (F(1, 5), F(1, 2), F(1, 2), F(1)),
               5: (F(1, 5), F(1, 5), F(1, 5), F(2, 5))}
_SEMI_TABLE = {3: (F(1, 10), F(1, 4), F(1, 2), F(1)),
               4: (F(1, 10), F(1, 4), F(1, 4), F(1, 2)),
               5: (F(1, 10), F(1, 10), F(1, 10), F(1, 5))}


def _band(major):
    if major <= 8:
        return 0
    if major <= 12:
        return 1
    if major <= 2518:
        return 2
    return 3


@pytest.mark.parametrize("major", [8, 9, 12, 13, 2518, 2519])
@pytest.mark.parametrize("apex", [1, 3])
def test_a3_band_boundaries(major, apex):
    """Payments across weak and semi-weak edges step up exactly at major
    degree 9, 13, and 2519, with the column picked by the minor degree."""
    minor = apex + 2
    for pegged in (False, True):
        top = topology(drum(major, apex, pegged))
        ledger = TransferLedger()
        apply_rule_a3(initial_charges(top), top, ledger)
        kind, table = (("semi_weak", _SEMI_TABLE) if pegged
                       else ("weak", _WEAK_TABLE))
        by_target = {}
        for e in ledger.entries:
            key = (e.note.split(" ")[0], top.face_degrees[e.target[1]])
            by_target.setdefault(key, set()).add(e.amount)
        # the two apex faces each take one payment from an m-gon
        assert by_target[(kind, minor)] == {table[minor][_band(major)]}
        # rim squares always take the weak minor-4 amount from the m-gons
        assert by_target[("weak", 4)] == {_WEAK_TABLE[4][_band(major)]}
        if pegged:  # the split strut squares take the semi-weak amount
            assert by_target[("semi_weak", 4)] == \
                {_SEMI_TABLE[4][_band(major)]}


def test_lemma1_bound_values():
    want = {3: F(0), 4: F(0), 5: F(0), 6: F(0),
            7: F(2, 5), 8: F(6, 5), 9: F(1), 10: F(3, 2),
            11: F(5, 2), 12: F(3), 13: F(13, 21), 42: F(2)}
    for d, bound in want.items():
        assert lemma1_bound(d) == bound, d


def test_charge_state_is_immutable():
    top = topology(k7_torus())
    state = initial_charges(top)
    with pytest.raises(Exception):
        state.applied = frozenset({"A1"})
    after = apply_rule_a1(state, top, TransferLedger())
    assert state.vertex_charge != after.vertex_charge
    assert state.applied == frozenset()
