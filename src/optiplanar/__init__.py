"""Optimal 2- and 3-planar topological graphs.

Tools to generate, verify, analyze and export edge-maximal (optimal)
2-planar and 3-planar drawings via their structural characterization: a
connected spanning true-planar skeleton whose faces all have length 5
(2-planar) or 6 (3-planar), with 5 respectively 8 crossing chords drawn
inside every face.
"""

from .characterize import (
    CharacterizationReport,
    CheckResult,
    DensityAudit,
    assign_crossed_edges_to_faces,
    check_optimal_2planar,
    check_optimal_3planar,
    chord_positions,
    density_audit,
    density_bound,
)
from .docio import (
    dumps_drawing,
    export_dot,
    export_svg,
    load_drawing,
    loads_drawing,
    save_drawing,
)
from .drawing import (
    CrossingGraph,
    Diagnostic,
    Drawing,
    crossing_components,
    crossing_graph,
    crossing_histogram,
    double_crossing_pairs,
    empty_true_planar_triangle,
    homotopic_duplicates,
    is_fan_planar,
    is_k_planar,
    is_quasi_planar,
    is_simple,
    odd_true_planar_cycle,
    remove_base_edge,
    skeleton_edge_ids,
    true_planar_skeleton,
    validate,
)
from .generate import (
    DrawingBuilder,
    dodecahedron,
    generate_optimal,
    insert_hexagon_pattern,
    insert_pentagram,
    pattern_chords,
    theta_hexangulation,
    theta_pentagulation,
)
from .plane import (
    FaceWalk,
    PlaneMultigraph,
)
from .visibility import (
    Bar,
    BarVisibilityRep,
    VisibilitySegment,
    bar_visibility,
    extend_to_bar1,
    st_number,
    verify_bar1,
)

__all__ = [
    "Bar",
    "BarVisibilityRep",
    "CharacterizationReport",
    "CheckResult",
    "CrossingGraph",
    "DensityAudit",
    "Diagnostic",
    "Drawing",
    "DrawingBuilder",
    "FaceWalk",
    "PlaneMultigraph",
    "VisibilitySegment",
    "assign_crossed_edges_to_faces",
    "bar_visibility",
    "check_optimal_2planar",
    "check_optimal_3planar",
    "chord_positions",
    "crossing_components",
    "crossing_graph",
    "crossing_histogram",
    "density_audit",
    "density_bound",
    "dodecahedron",
    "double_crossing_pairs",
    "dumps_drawing",
    "empty_true_planar_triangle",
    "export_dot",
    "export_svg",
    "extend_to_bar1",
    "generate_optimal",
    "homotopic_duplicates",
    "insert_hexagon_pattern",
    "insert_pentagram",
    "is_fan_planar",
    "is_k_planar",
    "is_quasi_planar",
    "is_simple",
    "load_drawing",
    "loads_drawing",
    "odd_true_planar_cycle",
    "pattern_chords",
    "remove_base_edge",
    "save_drawing",
    "skeleton_edge_ids",
    "st_number",
    "theta_hexangulation",
    "theta_pentagulation",
    "true_planar_skeleton",
    "validate",
    "verify_bar1",
]

__version__ = "0.1.0"
