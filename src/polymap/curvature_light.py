"""Combinatorial curvature, light vertices, and the large-map scanner.

The curvature of a vertex v in a map is

    Phi(v) = 1 - deg(v)/2 + sum over incident faces of 1/deg(face),

with faces counted once per incidence.  Summed over all vertices it
telescopes to the Euler characteristic, which makes an exact
Gauss-Bonnet check available for every map this package touches.  All
arithmetic is over ``fractions.Fraction``; nothing here is ever a float
except the ``UNBOUNDED`` sentinel.

A vertex is *light* when its sorted type matches one of the 32 rows of
the classification table below (arities 3 to 6; vertices of degree >= 7
are never light).  Rows bounded by 2518 reflect how far the discharging
argument reaches; dagger-marked rows are tight.  The scanner checks the
hypotheses "simple polyhedral, chi <= 0, more than 126|chi| vertices"
and reports whether a light vertex exists, as the classification
guarantees it must.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import StructureError

__all__ = [
    "DEGREE_CAP",
    "LIGHT_TABLE",
    "UNBOUNDED",
    "LightPattern",
    "TheoremScan",
    "curvature",
    "gauss_bonnet_sum",
    "match_light",
    "scan_theorem2",
    "curvature_bound",
]

# Largest face degree the bounded table rows admit.
DEGREE_CAP = 2518

# How many times |chi| the vertex count must exceed for the scanner's
# size hypothesis.
VERTEX_FACTOR = 126

UNBOUNDED = math.inf


@dataclass(frozen=True)
class LightPattern:
    """One row of the light-vertex table.

    ``entries`` constrain the ascending-sorted vertex type positionally;
    each entry is ``("exact", k)``, ``("at_most", k)`` or ``("any",)``.
    ``dagger`` marks rows that are tight (cannot be improved).
    """

    entries: tuple
    dagger: bool = False

    @property
    def arity(self):
        return len(self.entries)

    def matches(self, vertex_type):
        vt = sorted(vertex_type)
        if len(vt) != len(self.entries):
            return False
        for value, entry in zip(vt, self.entries):
            kind = entry[0]
            if kind == "exact" and value != entry[1]:
                return False
            if kind == "at_most" and value > entry[1]:
                return False
        return True

    def label(self):
        parts = []
        for entry in self.entries:
            if entry[0] == "exact":
                parts.append(str(entry[1]))
            elif entry[0] == "at_most":
                parts.append("<=%d" % entry[1])
            else:
                parts.append("any")
        return "(%s)" % ",".join(parts)


def _row(*pattern, dagger=False):
    entries = []
    for item in pattern:
        if item == "any":
            entries.append(("any",))
        elif item == "cap":
            entries.append(("at_most", DEGREE_CAP))
        else:
            entries.append(("exact", item))
    return LightPattern(entries=tuple(entries), dagger=dagger)


# The classification table, verbatim, in display order.  A sorted type
# is light iff at least one row matches.
LIGHT_TABLE = (
    # arity 3
    _row(3, 3, "any", dagger=True),
    _row(3, 4, "any", dagger=True),
    _row(3, 5, "any", dagger=True),
    _row(3, 6, "cap"),
    _row(3, 7, "cap"),
    _row(3, 8, "cap"),
    _row(3, 9, "cap"),
    _row(3, 10, "cap"),
    _row(3, 11, "cap"),
    _row(3, 12, "cap"),
    _row(4, 4, "any", dagger=True),
    _row(4, 5, "cap"),
    _row(4, 6, "cap"),
    _row(4, 7, "cap"),
    _row(4, 8, "cap"),
    _row(5, 5, "cap"),
    _row(5, 6, "cap"),
    _row(6, 6, 6, dagger=True),
    # arity 4
    _row(3, 3, 3, "any", dagger=True),
    _row(3, 3, 4, "cap"),
    _row(3, 3, 5, "cap"),
    _row(3, 3, 6, 6, dagger=True),
    _row(3, 4, 4, 4, dagger=True),
    _row(3, 4, 4, 5, dagger=True),
    _row(3, 4, 4, 6, dagger=True),
    _row(4, 4, 4, 4, dagger=True),
    # arity 5
    _row(3, 3, 3, 3, 3, dagger=True),
    _row(3, 3, 3, 3, 4, dagger=True),
    _row(3, 3, 3, 3, 5, dagger=True),
    _row(3, 3, 3, 3, 6, dagger=True),
    _row(3, 3, 3, 4, 4, dagger=True),
    # arity 6
    _row(3, 3, 3, 3, 3, 3, dagger=True),
)


def curvature(top, v):
    """Exact Phi(v), incident faces counted with multiplicity."""
    if v not in top.vertex_faces:
        raise StructureError("unknown vertex %r" % (v,))
    total = 1 - Fraction(top.vertex_degrees[v], 2)
    for f in top.vertex_faces[v]:
        total += Fraction(1, top.face_degrees[f])
    return total


def gauss_bonnet_sum(top):
    """Sum of Phi over all vertices; equals chi exactly."""
    return sum((curvature(top, v) for v in top.rs.vertices),
               Fraction(0))


def match_light(vertex_type):
    """First table row matching the (sorted) type, or None.

    The input may arrive in any order; it is sorted before matching, so
    permutations of the same multiset always agree.
    """
    vt = sorted(vertex_type)
    if not 3 <= len(vt) <= 6:
        return None
    for row in LIGHT_TABLE:
        if row.matches(vt):
            return row
    return None


@dataclass(frozen=True)
class TheoremScan:
    """Outcome of scanning one map for light vertices.

    ``light`` lists (vertex, matched row) in vertex order.  ``verdict``
    is "theorem-confirmed", "hypotheses-not-met", or the loud
    "counterexample-candidate" (hypotheses hold yet no vertex is light;
    the classification says this cannot happen, so seeing it means a
    bug somewhere, most likely in the input's provenance).
    """

    simple_polyhedral: bool
    chi_nonpositive: bool
    enough_vertices: bool
    euler_characteristic: int
    num_vertices: int
    light: tuple
    verdict: str

    @property
    def hypotheses_met(self):
        return (self.simple_polyhedral and self.chi_nonpositive
                and self.enough_vertices)


def scan_theorem2(top, validity):
    """Classify every vertex and check the large-map guarantee.

    ``validity`` is the ValidityReport of the same topology (the caller
    usually has it already; the hypotheses need it).
    """
    chi = top.euler_characteristic
    n = top.num_vertices
    light = tuple(
        (v, row)
        for v in top.rs.vertices
        for row in [match_light(top.vertex_type(v))]
        if row is not None)
    simple_polyhedral = (validity.polyhedral and validity.is_simple
                         and validity.min_degree_ok)
    chi_ok = chi <= 0
    size_ok = n > VERTEX_FACTOR * abs(chi)
    if not (simple_polyhedral and chi_ok and size_ok):
        verdict = "hypotheses-not-met"
    elif light:
        verdict = "theorem-confirmed"
    else:
        verdict = "counterexample-candidate"
    return TheoremScan(
        simple_polyhedral=simple_polyhedral,
        chi_nonpositive=chi_ok,
        enough_vertices=size_ok,
        euler_characteristic=chi,
        num_vertices=n,
        light=light,
        verdict=verdict,
    )


def curvature_bound(prefix):
    """Largest final face degree keeping Phi >= 0 for a given prefix.

    For a degree-n vertex whose first n-1 sorted face degrees are
    ``prefix``, returns the largest k with 1/k >= (n/2 - 1) - sum of
    1/a_i: the threshold where the type stops being nonnegatively
    curved.  Returns UNBOUNDED when every k works and None when no
    k >= max(prefix) does (no sorted type can end below its prefix).
    """
    prefix = list(prefix)
    if not prefix:
        raise ValueError("prefix must name at least one face degree")
    if any(not isinstance(a, int) or a < 1 for a in prefix):
        raise ValueError("face degrees must be positive integers")
    n = len(prefix) + 1
    rhs = Fraction(n, 2) - 1 - sum(Fraction(1, a) for a in prefix)
    if rhs <= 0:
        return UNBOUNDED
    k = rhs.denominator // rhs.numerator
    if k < max(prefix):
        return None
    return k
