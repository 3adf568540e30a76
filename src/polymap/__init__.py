"""polymap: polyhedral maps on surfaces.

Signed rotation systems, facial walks and Euler characteristic,
polyhedrality checks, combinatorial curvature and light vertices,
exact-rational discharging, and path transferability.
"""

from .curvature_light import (
    DEGREE_CAP,
    LIGHT_TABLE,
    UNBOUNDED,
    VERTEX_FACTOR,
    LightPattern,
    TheoremScan,
    curvature,
    curvature_bound,
    gauss_bonnet_sum,
    match_light,
    scan_theorem2,
)
from .discharging import (
    ChargeState,
    LedgerEntry,
    LemmaAudit,
    TransferLedger,
    apply_rule_a1,
    apply_rule_a2,
    apply_rule_a3,
    apply_rule_a4,
    apply_rule_b,
    initial_charges,
    lemma1_bound,
    run_discharge,
)
from .errors import BudgetError, MapError, MapFormatError, StructureError
from .generators import (
    hex_klein,
    hex_torus,
    k7_torus,
    tetrahedron,
    tri_torus,
    truncate,
)
from .mapfile import parse_map, serialize_map
from .surface_map import (
    Dart,
    FacialWalk,
    MapTopology,
    RotationSystem,
    topology,
    trace_faces,
)
from .transferability import (
    DEFAULT_BUDGET,
    NPathVerdict,
    PathState,
    SccSummary,
    StuckWitness,
    TransferDigraph,
    TransferabilityResult,
    build_transfer_digraph,
    enumerate_paths,
    find_stuck,
    is_n_transferable,
    longest_path_bound,
    n_verdict,
    steps,
    transferability,
)
from .validity import (
    ValidityReport,
    check_3_connected,
    check_closed_2cell,
    check_polyhedral,
    check_simple_map,
    check_wheel_neighborhood,
)

__version__ = "0.1.0"
