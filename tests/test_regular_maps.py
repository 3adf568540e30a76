"""Klein's regular maps {3,7} and {7,3} and their truncations: the first
polyhedral test maps with chi < 0; then seeded random regular maps from
PSL(2, q), q in {7, 11, 13}, with the package's identities on each and
on their Petrie duals.

PSL(2,7) acts on the projective line over F_7, points 0..6 and 7 for
infinity.  With x: z -> z + 1 and y: z -> -1/z, rotating by x gives
{3,7} (V = 24) and rotating by xy gives {7,3} (V = 56); both lie on the
genus-3 surface, chi = -4, so V <= 126|chi| and the theorem's size
hypothesis fails.  Their Petrie duals (every signature negated) and the
truncations of those are the non-orientable chi < 0 case.  Truncating
two and three times gives V = 504 and 1 512; tr^3 of {7,3}, {3,7} and
P{7,3} meet the hypothesis and confirm the theorem.  The maps
stay out of ``full_corpus``, whose members seed other tests' random
draws.
"""

import pytest

from conftest import (petrie, regular_map, seeded_rng,
                      trace_by_dart_states)
from polymap.curvature_light import gauss_bonnet_sum, scan_theorem2
from polymap.discharging import initial_charges, run_discharge
from polymap.generators import truncate
from polymap.mapfile import parse_map, serialize_map
from polymap.surface_map import topology
from polymap.transferability import find_stuck, steps, transferability
from polymap.validity import check_polyhedral

_Q = 7
_X = tuple((z + 1) % _Q if z < _Q else _Q for z in range(_Q + 1))
_Y = tuple(_Q if z == 0 else 0 if z == _Q else -pow(z, -1, _Q) % _Q
           for z in range(_Q + 1))
_XY = tuple(_Y[z] for z in _X)  # x then y


def _klein_maps():
    maps = {"{3,7}": regular_map(_X, _Y), "{7,3}": regular_map(_XY, _Y)}
    for name in list(maps):
        maps["tr" + name] = truncate(maps[name])
    return maps


_MAPS = _klein_maps()


# V, E, F and the one vertex type of each map
_PINS = {
    "{3,7}": ((24, 84, 56), (3,) * 7),
    "{7,3}": ((56, 84, 24), (7, 7, 7)),
    "tr{3,7}": ((168, 252, 80), (6, 6, 7)),
    "tr{7,3}": ((168, 252, 80), (3, 14, 14)),
}


@pytest.mark.parametrize("name", sorted(_PINS))
def test_klein_maps(name):
    """Counts, surface, polyhedrality, curvature and the light scan, then
    the identities of the test suite: the face trace equals the
    (dart, side) oracle, parse and serialize round trip, truncation
    keeps the surface, and a wheel neighborhood brings 3-connectivity
    and closed 2-cell faces."""
    rs = _MAPS[name]
    counts, vertex_type = _PINS[name]
    top = topology(rs)
    assert (top.num_vertices, top.num_edges, top.num_faces) == counts
    assert set(top.vertex_types.values()) == {vertex_type}
    assert (top.euler_characteristic, top.orientable) == (-4, True)
    report = check_polyhedral(top)
    assert report.polyhedral
    assert report.wheel_neighborhood and report.three_connected \
        and report.closed_2cell
    assert gauss_bonnet_sum(top) == -4
    scan = scan_theorem2(top, report)
    assert (scan.light, scan.hypotheses_met, scan.verdict) == \
        ((), False, "hypotheses-not-met")

    oracle = trace_by_dart_states(rs)
    assert (top.faces, top.vertex_faces, top.edge_faces) == \
        (oracle.faces, oracle.vertex_faces, oracle.edge_faces)
    text = serialize_map(rs)
    assert parse_map(text) == rs and serialize_map(parse_map(text)) == text
    ttop = topology(truncate(rs))
    assert (ttop.euler_characteristic, ttop.orientable) == (-4, True)


@pytest.mark.parametrize("name", sorted(_MAPS))
def test_klein_maps_discharge(name):
    """The charge, -6 chi = 24, is conserved through every rule, the
    ledger replays onto the final charges exactly, and neither lemma
    bound is violated."""
    top = topology(_MAPS[name])
    state, ledger, audit = run_discharge(top)
    assert state.total() == 24
    replayed = ledger.replay(initial_charges(top))
    assert replayed.vertex_charge == state.vertex_charge
    assert replayed.face_charge == state.face_charge
    assert (audit.lemma1_violations, audit.lemma2_violations,
            audit.light_count, audit.contradiction) == ((), (), 0, False)


def test_truncated_73_is_14_transferable():
    """tr{7,3} has value 14 over n = 1..15: n = 15 splits into 1 345
    components, a 15-path is stuck and no 14-path is."""
    graph = _MAPS["tr{7,3}"].adjacency()
    result = transferability(graph, 15)
    assert result.value == 14
    assert [row.transferable for row in result.per_n] == [True] * 14 + [False]
    assert result.per_n[-1].scc_count == 1345
    assert find_stuck(graph, 15) is not None
    assert find_stuck(graph, 14) is None


def _petrie_maps():
    maps = {}
    for name in ("{3,7}", "{7,3}"):
        maps["P" + name] = petrie(_MAPS[name])
        maps["trP" + name] = truncate(maps["P" + name])
    return maps


_PETRIE = _petrie_maps()


# V, E, F, chi and the first validity witness (None: polyhedral)
_PETRIE_PINS = {
    "P{3,7}": ((24, 84, 21), -39,
               ("wheel", "v0000", "rim is not a simple cycle")),
    "P{7,3}": ((56, 84, 21), -7, None),
    "trP{3,7}": ((168, 252, 45), -39, None),
    "trP{7,3}": ((168, 252, 77), -7, None),
}


@pytest.mark.parametrize("name", sorted(_PETRIE_PINS))
def test_petrie_maps(name):
    """Counts, surface and polyhedrality of the non-orientable maps; none
    has a light vertex.  Then the identities: the sum of Phi is chi, the
    face trace equals the (dart, side) oracle, the charge, -6 chi (234
    or 42), is conserved and the ledger replays exactly with no lemma
    violation, and parse and serialize round trip."""
    rs = _PETRIE[name]
    counts, chi, witness = _PETRIE_PINS[name]
    top = topology(rs)
    assert (top.num_vertices, top.num_edges, top.num_faces) == counts
    assert (top.euler_characteristic, top.orientable) == (chi, False)
    report = check_polyhedral(top)
    assert report.polyhedral is (witness is None)
    assert report.witnesses[:1] == ((witness,) if witness else ())
    assert scan_theorem2(top, report).light == ()
    assert gauss_bonnet_sum(top) == chi

    oracle = trace_by_dart_states(rs)
    assert (top.faces, top.vertex_faces, top.edge_faces) == \
        (oracle.faces, oracle.vertex_faces, oracle.edge_faces)
    state, ledger, audit = run_discharge(top)
    assert state.total() == -6 * chi
    replayed = ledger.replay(initial_charges(top))
    assert replayed.vertex_charge == state.vertex_charge
    assert replayed.face_charge == state.face_charge
    assert (audit.lemma1_violations, audit.lemma2_violations,
            audit.light_count, audit.contradiction) == ((), (), 0, False)
    text = serialize_map(rs)
    assert parse_map(text) == rs and serialize_map(parse_map(text)) == text


def _towers():
    """tr^2 and tr^3 of Klein's maps and of their Petrie duals, each
    truncating the one before it."""
    maps = {}
    for name, rs in (*_MAPS.items(), *_PETRIE.items()):
        if name.startswith("tr"):
            maps["tr2" + name[2:]] = rs = truncate(rs)
            maps["tr3" + name[2:]] = truncate(rs)
    return maps


_TOWERS = _towers()


# V, E, F, chi, orientable, light vertices, Lemma 1 violations, verdict
_TOWER_PINS = {
    "tr2{7,3}": ((504, 756, 248), -4, True, 336, 168, "hypotheses-not-met"),
    "tr3{7,3}": ((1512, 2268, 752), -4, True, 1344, 504, "theorem-confirmed"),
    "tr2{3,7}": ((504, 756, 248), -4, True, 504, 168, "hypotheses-not-met"),
    "tr3{3,7}": ((1512, 2268, 752), -4, True, 1008, 504, "theorem-confirmed"),
    "tr2P{7,3}": ((504, 756, 245), -7, False, 336, 168,
                  "hypotheses-not-met"),
    "tr3P{7,3}": ((1512, 2268, 749), -7, False, 1344, 504,
                  "theorem-confirmed"),
    "tr2P{3,7}": ((504, 756, 213), -39, False, 0, 0, "hypotheses-not-met"),
    "tr3P{3,7}": ((1512, 2268, 717), -39, False, 1008, 504,
                  "hypotheses-not-met"),
}


@pytest.mark.parametrize("name", sorted(_TOWER_PINS))
def test_truncation_towers(name):
    """The theorem's chi < 0 case at its own hypothesis: the tr^3 maps
    have V = 1 512 > 126|chi| for chi = -4 and -7, and answer
    theorem-confirmed; tr^2 (V = 504 <= 126|chi|) and tr^3 P{3,7}
    (126 * 39 = 4 914) do not meet it.  Every map is polyhedral with
    sum of Phi equal to chi, the charge, -6 chi, is conserved and the
    ledger replays exactly, with no Lemma 2 violation and no
    contradiction.  Where there are light vertices a stuck 13-path lies
    next to the first of them: 14 vertices and no move."""
    rs = _TOWERS[name]
    counts, chi, orientable, light, lemma1, verdict = _TOWER_PINS[name]
    top = topology(rs)
    assert (top.num_vertices, top.num_edges, top.num_faces) == counts
    assert (top.euler_characteristic, top.orientable) == (chi, orientable)
    report = check_polyhedral(top)
    assert report.polyhedral
    assert gauss_bonnet_sum(top) == chi
    scan = scan_theorem2(top, report)
    assert (len(scan.light), scan.verdict) == (light, verdict)

    state, ledger, audit = run_discharge(top)
    assert state.total() == -6 * chi
    replayed = ledger.replay(initial_charges(top))
    assert replayed.vertex_charge == state.vertex_charge
    assert replayed.face_charge == state.face_charge
    assert (len(audit.lemma1_violations), audit.lemma2_violations,
            audit.light_count, audit.contradiction) == \
        (lemma1, (), light, False)
    if scan.light:
        graph = rs.adjacency()
        path = find_stuck(graph, 13, anchor=scan.light[0][0])
        assert len(path.vertices) == 14
        assert steps(graph, path) == []


# -- random regular maps with chi < 0 from PSL(2, q) ---------------------

def _mobius(q, a, b, c, d, z):
    """z -> (az + b) / (cz + d) on P^1(F_q), with q for infinity."""
    if z == q:
        return q if c == 0 else a * pow(c, -1, q) % q
    den = (c * z + d) % q
    return q if den == 0 else (a * z + b) * pow(den, -1, q) % q


def _psl2_element(q, rng):
    """A uniform element of PSL(2, q) as a permutation of P^1(F_q)."""
    while True:
        a, b, c, d = (rng.randrange(q) for _ in range(4))
        if (a * d - b * c) % q == 1:
            return tuple(_mobius(q, a, b, c, d, z) for z in range(q + 1))


def _psl2_involution(q, rng):
    """A uniform involution of PSL(2, q), by rejection."""
    identity = tuple(range(q + 1))
    while True:
        y = _psl2_element(q, rng)
        if y != identity and tuple(y[z] for z in y) == identity:
            return y


def _random_regular_maps():
    """120 seeded draws of q in {7, 11, 13}, any x and an involution y in
    PSL(2, q); the pairs that generate the group, i.e. whose regular map
    has 2E = q(q^2 - 1)/2 darts, give (q, map)."""
    rng = seeded_rng(201)
    maps = []
    for _ in range(120):
        q = rng.choice((7, 11, 13))
        x, y = _psl2_element(q, rng), _psl2_involution(q, rng)
        rs = regular_map(x, y)
        if 2 * len(rs.edges) == q * (q * q - 1) // 2:
            maps.append((q, rs))
    return maps


_RANDOM = _random_regular_maps()


def test_random_regular_maps():
    """On every generating pair: chi < 0, sum of Phi equals chi, the face
    trace equals the (dart, side) oracle, parse and serialize round trip,
    validity raises nothing (a wheel brings 3-connectivity and closed
    2-cell faces), and truncation keeps the surface (V <= 364 on every
    draw, so a truncation has at most 1 092 vertices).  The draws must
    reach enough maps, polyhedral ones and shapes (q, V, chi) to mean
    something: 58 pairs generate, 34 maps are polyhedral, in 22 shapes."""
    polyhedral, shapes = 0, set()
    for q, rs in _RANDOM:
        top = topology(rs)
        chi = top.euler_characteristic
        assert chi < 0 and top.orientable
        assert gauss_bonnet_sum(top) == chi
        oracle = trace_by_dart_states(rs)
        assert (top.faces, top.vertex_faces, top.edge_faces) == \
            (oracle.faces, oracle.vertex_faces, oracle.edge_faces)
        text = serialize_map(rs)
        assert parse_map(text) == rs and serialize_map(parse_map(text)) == text
        polyhedral += check_polyhedral(top).polyhedral
        shapes.add((q, top.num_vertices, chi))
        ttop = topology(truncate(rs))
        assert (ttop.euler_characteristic, ttop.orientable) == (chi, True)
    assert len(_RANDOM) >= 50 and polyhedral >= 30 and len(shapes) >= 20


def test_random_regular_maps_discharge():
    """On the polyhedral draws: the charge, -6 chi, is conserved and the
    ledger replays exactly; the theorem holds (a light-free map has
    V <= 126|chi|); and with no Lemma 1 violation every Lemma 2 vertex
    is light."""
    for _, rs in _RANDOM:
        top = topology(rs)
        report = check_polyhedral(top)
        if not report.polyhedral:
            continue
        chi = top.euler_characteristic
        state, ledger, audit = run_discharge(top)
        assert state.total() == -6 * chi
        replayed = ledger.replay(initial_charges(top))
        assert replayed.vertex_charge == state.vertex_charge
        assert replayed.face_charge == state.face_charge
        scan = scan_theorem2(top, report)
        assert scan.verdict != "counterexample-candidate"
        light = {v for v, _ in scan.light}
        if not light:
            assert top.num_vertices <= 126 * abs(chi)
        if not audit.lemma1_violations:
            assert {v for v, _ in audit.lemma2_violations} <= light
        assert not audit.contradiction


def test_random_petrie_duals():
    """The Petrie half of the draws: every generating pair's Petrie dual
    is non-orientable with sum of Phi equal to chi (chi runs from -384 to
    -7), and its truncation keeps chi and non-orientability.  Floors on
    what the draws reach: 14 duals are polyhedral, in 6 shapes (q, V,
    chi), and 36 have a polyhedral truncation, in 13 shapes."""
    polyhedral, shapes = 0, set()
    truncated, truncated_shapes = 0, set()
    for q, rs in _RANDOM:
        prs = petrie(rs)
        top = topology(prs)
        chi = top.euler_characteristic
        assert chi < 0 and not top.orientable
        assert gauss_bonnet_sum(top) == chi
        if check_polyhedral(top).polyhedral:
            polyhedral += 1
            shapes.add((q, top.num_vertices, chi))
        ttop = topology(truncate(prs))
        assert (ttop.euler_characteristic, ttop.orientable) == (chi, False)
        if check_polyhedral(ttop).polyhedral:
            truncated += 1
            truncated_shapes.add((q, ttop.num_vertices, chi))
    assert polyhedral >= 14 and len(shapes) >= 6
    assert truncated >= 36 and len(truncated_shapes) >= 13
