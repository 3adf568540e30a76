"""Exact-rational discharging on maps.

Every vertex starts with charge 2*deg(v) - 6 and every face with
deg(face) - 6; the grand total is -6*chi, an Euler identity, and every
rule below moves charge without creating or destroying it.  Stage A
(rules A1 to A4) moves charge between vertices and small/huge faces by
amounts keyed only on degrees; stage B empties every major face
(degree >= 7) equally onto its vertex incidences.

Every charge, ledger amount and total a caller sees is a
``fractions.Fraction``; floats never appear here.  Every rule hands the
state it was given and a stream of moves read from it to one routine,
which alone advances the stage: it copies the state past the rule,
records each move in the ledger, sums the moved numerators as ints per
charge and denominator, and adds each sum to the copy's charge as one
Fraction.  The state a rule is given is never changed.  The A rules
commute (their amounts never read current charges), so they may be
applied in any order before rule B; the canonical pipeline in
:func:`run_discharge` runs A1, A2, A3, A4, B and asserts conservation
after every step, naming the rule after which it failed.

Every rule records each transfer in the :class:`TransferLedger` it is
given; replaying the ledger over the initial charges must land exactly
on the final state, an end-to-end audit of the arithmetic.  The Lemma
audit compares after-A face charges and final vertex charges against
the bounds the counterexample analysis needs; on ordinary maps (ones
with light vertices) failed bounds are informational only.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .curvature_light import DEGREE_CAP, scan_theorem2
from .errors import StructureError
from .validity import check_polyhedral

__all__ = [
    "ChargeState",
    "LedgerEntry",
    "TransferLedger",
    "LemmaAudit",
    "initial_charges",
    "apply_rule_a1",
    "apply_rule_a2",
    "apply_rule_a3",
    "apply_rule_a4",
    "apply_rule_b",
    "run_discharge",
    "lemma1_bound",
]

# Face degree from which rule A4 fires (and from which the A3 tables
# switch to their last band): just past the light table's cap.
HUGE = DEGREE_CAP + 1

# Rule A1: vertex of degree >= 4 pays each incident face of degree 3/4/5.
_A1_AMOUNT = {3: Fraction(1), 4: Fraction(1, 2), 5: Fraction(1, 5)}
# Rule A2: the extra amount to each 3-face.
_A2_AMOUNT = Fraction(1, 10)
# Rule A4: refund per incident (3,3,4,k)- and (3,3,5,k)-vertex.
_A4_AMOUNT = {4: Fraction(1, 2), 5: Fraction(1, 5)}
# Lemma 2: the floor on every final vertex charge.
_LEMMA2_FLOOR = Fraction(1, 21)
# Lemma 1: the floor on the after-A charge of a face of degree 7..12.
_LEMMA1_BOUND = (Fraction(2, 5), Fraction(6, 5), Fraction(1),
                 Fraction(3, 2), Fraction(5, 2), Fraction(3))
_ZERO = Fraction(0)

# Rule A3: amount sent by the major face across a weak / semi-weak edge,
# keyed by the minor face's degree, then by the major face's degree band
# 7..8, 9..12, 13..HUGE-1 or from HUGE on: the number of _A3_BANDS <= it.
_A3_BANDS = (9, 13, HUGE)
_A3_AMOUNT = {
    "weak": {
        3: (Fraction(1, 5), Fraction(1, 2), Fraction(1), Fraction(19, 10)),
        4: (Fraction(1, 5), Fraction(1, 2), Fraction(1, 2), Fraction(1)),
        5: (Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(2, 5))},
    "semi_weak": {
        3: (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(1)),
        4: (Fraction(1, 10), Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
        5: (Fraction(1, 10), Fraction(1, 10), Fraction(1, 10), Fraction(1, 5)),
    },
}

_A_RULES = ("A1", "A2", "A3", "A4")


class ChargeState(NamedTuple):
    """Charges on all vertices and faces plus which rules already ran."""

    vertex_charge: dict
    face_charge: dict
    applied: frozenset = frozenset()

    @property
    def stage(self):
        if "B" in self.applied:
            return "after_B"
        if set(_A_RULES) <= self.applied:
            return "after_A"
        if not self.applied:
            return "initial"
        return "stage_A"

    def total(self):
        """The exact sum of every charge.  Numerators are added as ints
        per distinct denominator, so only one ``Fraction`` addition is
        made per denominator rather than one per vertex and face."""
        numerators = {}
        for charges in (self.vertex_charge, self.face_charge):
            for c in charges.values():
                d = c.denominator
                numerators[d] = numerators.get(d, 0) + c.numerator
        return sum((Fraction(n, d) for d, n in numerators.items()),
                   _ZERO)

    def _advance(self, rule):
        if rule in self.applied:
            raise StructureError("rule %s already applied" % rule)
        if rule != "B" and "B" in self.applied:
            raise StructureError("stage A rule %s after rule B" % rule)
        if rule == "B" and not set(_A_RULES) <= self.applied:
            raise StructureError("rule B requires all of A1-A4 first")
        return ChargeState(
            vertex_charge=dict(self.vertex_charge),
            face_charge=dict(self.face_charge),
            applied=self.applied | {rule},
        )


class LedgerEntry(NamedTuple):
    rule: str
    source: tuple  # ("v", vertex id) or ("f", face index)
    target: tuple
    amount: Fraction
    note: str


class _TransferLedger(NamedTuple):
    entries: list


class TransferLedger(_TransferLedger):
    """The transfers of a discharge run, in the order ``record`` adds
    them; ``TransferLedger()`` starts its own empty ``entries``."""

    __slots__ = ()

    def __new__(cls, entries=None):
        return tuple.__new__(cls, ([] if entries is None else entries,))

    def record(self, rule, source, target, amount, note):
        self.entries.append(LedgerEntry(rule, source, target, amount, note))

    def replay(self, state):
        """Re-apply every recorded transfer on top of ``state``.

        Replaying the full ledger over the initial charges must land on
        the final charges exactly; that is the audit this enables.  Only
        charges move -- a rule that transferred nothing leaves no trace
        here, so ``applied`` is carried over from ``state`` unchanged
        and comparisons should look at the charge maps.
        """
        vertex = dict(state.vertex_charge)
        face = dict(state.face_charge)
        charges = {"v": vertex, "f": face}
        for entry in self.entries:
            charges[entry.source[0]][entry.source[1]] -= entry.amount
            charges[entry.target[0]][entry.target[1]] += entry.amount
        return ChargeState(vertex_charge=vertex, face_charge=face,
                           applied=state.applied)


def initial_charges(top):
    """c(v) = 2 deg(v) - 6 and c(face) = deg(face) - 6, stage initial."""
    return ChargeState(
        vertex_charge={v: Fraction(2 * d - 6)
                       for v, d in top.vertex_degrees.items()},
        face_charge={f: Fraction(d - 6)
                     for f, d in enumerate(top.face_degrees)},
    )


def _transfer(state, ledger, rule, moves):
    """The state after ``rule``: a copy of ``state`` advanced past it, to
    which ``moves``, (source, target, amount, note) tuples, are recorded
    in order and applied, each charge's moved numerators summed as ints
    per denominator and added to it as one Fraction per denominator.
    ``state`` itself is left untouched, so the moves may read it."""
    after = state._advance(rule)
    record = ledger.record
    delta = {}  # (charge, denominator) -> sum of numerators
    for source, target, amount, note in moves:
        record(rule, source, target, amount, note)
        n, d = amount.as_integer_ratio()
        delta[source, d] = delta.get((source, d), 0) - n
        delta[target, d] = delta.get((target, d), 0) + n
    charges = {"v": after.vertex_charge, "f": after.face_charge}
    for ((kind, key), d), n in delta.items():
        charges[kind][key] += Fraction(n, d)
    return after


def apply_rule_a1(state, top, ledger):
    """Vertices of degree >= 4 pay 1, 1/2, 1/5 per incident 3-, 4-, 5-face."""
    deg, fdeg = top.vertex_degrees, top.face_degrees
    note = cache("deg(v)=%d deg(a)=%d".__mod__)
    return _transfer(state, ledger, "A1", (
        (("v", v), ("f", f), _A1_AMOUNT[fdeg[f]], note((deg[v], fdeg[f])))
        for v in top.rs.vertices if deg[v] >= 4
        for f in top.vertex_faces[v] if fdeg[f] in _A1_AMOUNT))


def apply_rule_a2(state, top, ledger):
    """Extra 1/10 to each 3-face of a vertex (deg >= 4) that also touches
    at least two 6-faces."""
    deg, types = top.vertex_degrees, top.vertex_types
    note = cache("deg(v)=%d three-face with two six-faces".__mod__)
    return _transfer(state, ledger, "A2", (
        (("v", v), ("f", f), _A2_AMOUNT, note(deg[v]))
        for v in top.rs.vertices
        if deg[v] >= 4 and types[v].count(6) >= 2 and 3 in types[v]
        for f in top.vertex_faces[v] if top.face_degrees[f] == 3))


def apply_rule_a3(state, top, ledger):
    """Across each weak or semi-weak edge with a minor face (degree 3, 4
    or 5, the degrees the tables price) on one side and a major face
    (deg >= 7) on the other, the major face pays the tabulated amount.
    An edge with one face on both sides is refused before any move."""
    for e, (f1, f2) in top.edge_faces.items():
        if f1 == f2:
            raise StructureError(
                "edge %r has the same face on both sides; "
                "not a closed 2-cell embedding" % (e,))
    fdeg = top.face_degrees
    return _transfer(state, ledger, "A3", (
        (("f", major), ("f", minor),
         _A3_AMOUNT[kind][fdeg[minor]][bisect_right(_A3_BANDS, fdeg[major])],
         "%s edge %s deg(a)=%d deg(a')=%d"
         % (kind, e, fdeg[minor], fdeg[major]))
        for e, faces in top.edge_faces.items()
        if (kind := top.classify_edge(e)) != "normal"
        for minor, major in (faces, faces[::-1])
        if 3 <= fdeg[minor] <= 5 and fdeg[major] >= 7))


def apply_rule_a4(state, top, ledger):
    """Huge faces (degree >= 2519) refund 1/2 per incident (3,3,4,k)-vertex
    and 1/5 per incident (3,3,5,k)-vertex, k being the face's own degree."""
    note = cache("type %r with k=%d".__mod__)
    return _transfer(state, ledger, "A4", (
        (("f", f), ("v", v), _A4_AMOUNT[vt[2]], note((vt, k)))
        for f, k in enumerate(top.face_degrees) if k >= HUGE
        for v in top.faces[f].vertex_sequence
        if (vt := top.vertex_types[v]) in ((3, 3, 4, k), (3, 3, 5, k))))


def apply_rule_b(state, top, ledger):
    """Every major face splits its entire charge equally over its vertex
    incidences and ends at zero; a face with a zero share records no
    move."""
    note = cache("deg(a)=%d share of c*".__mod__)
    return _transfer(state, ledger, "B", (
        (("f", f), ("v", v), share, note(walk.degree))
        for f, walk in enumerate(top.faces) if top.face_degrees[f] >= 7
        if (share := Fraction(state.face_charge[f], walk.degree))
        for v in walk.vertex_sequence))


def lemma1_bound(degree):
    """Lower bound the analysis needs on a face's after-A charge."""
    if degree <= 6:
        return _ZERO
    if degree <= 12:
        return _LEMMA1_BOUND[degree - 7]
    return Fraction(degree, 21)


class LemmaAudit(NamedTuple):
    """Bound checks against the counterexample analysis.

    ``lemma1_violations``: (face, degree, charge, bound) where the
    after-A face charge is below the bound for its degree class.
    ``lemma2_violations``: (vertex, charge) with final charge < 1/21.
    ``light_count``: size of the light-vertex census; ``contradiction``
    is set when violations coexist with an empty census on a map that
    satisfies the large-map hypotheses, which the theory rules out.
    """

    lemma1_violations: tuple
    lemma2_violations: tuple
    light_count: int
    hypotheses_met: bool
    contradiction: bool


def _audit(top, after_a, final):
    scan = scan_theorem2(top, check_polyhedral(top))
    lemma1 = tuple(
        (f, d, after_a.face_charge[f], bound)
        for f, d in enumerate(top.face_degrees)
        if after_a.face_charge[f] < (bound := lemma1_bound(d)))
    lemma2 = tuple(
        (v, final.vertex_charge[v])
        for v in top.rs.vertices
        if final.vertex_charge[v] < _LEMMA2_FLOOR)
    violated = bool(lemma1 or lemma2)
    contradiction = (violated and not scan.light
                     and scan.hypotheses_met)
    return LemmaAudit(
        lemma1_violations=lemma1,
        lemma2_violations=lemma2,
        light_count=len(scan.light),
        hypotheses_met=scan.hypotheses_met,
        contradiction=contradiction,
    )


def run_discharge(top):
    """Full pipeline A1 -> A2 -> A3 -> A4 -> B with audits.

    Returns (final ChargeState, TransferLedger, LemmaAudit).
    Conservation of the total at -6*chi is asserted after every rule; a
    failure is a bug in this module, not bad input.
    """
    ledger = TransferLedger()
    state = initial_charges(top)
    expected = Fraction(-6 * top.euler_characteristic)
    _check_total(state, expected, "initial")
    rules = (apply_rule_a1, apply_rule_a2, apply_rule_a3, apply_rule_a4,
             apply_rule_b)
    for name, rule in zip(_A_RULES + ("B",), rules):
        # after the last rule, after_a is the state rule B was handed
        after_a, state = state, rule(state, top, ledger)
        _check_total(state, expected, "rule " + name)
    return state, ledger, _audit(top, after_a, state)


def _check_total(state, expected, where):
    if state.total() != expected:
        raise RuntimeError(
            "charge conservation broken at %s: total %s, expected %s"
            % (where, state.total(), expected))
