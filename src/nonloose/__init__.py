"""Exact classification engine for non-loose Legendrian and transverse
torus knots in overtwisted contact structures on the 3-sphere."""

from .atlas import (
    Atlas,
    KnotFamilyRecord,
    MountainRange,
    Structure,
    TransverseClass,
    TransverseEntry,
    classify,
    mountain_range,
)
from .decorations import (
    DecoratedPathPair,
    count_m,
    count_n,
    count_totally_2_inconsistent,
    decoration_string,
    enumerate_decorations,
    parse_decoration,
)
from .farey import (
    INFINITY,
    CFExpansion,
    InvariantError,
    Slope,
    anticlockwise_neighbor,
    cf_expand,
    cf_value,
    clockwise_neighbor,
    dot,
    farey_sum,
    is_edge,
    make_slope,
)
from .invariants import (
    RotationData,
    cross_check_rot,
    half_lutz_d3,
    parity_ok,
    rotation_data,
    self_linking,
)
from .paths import (
    FareyPath,
    Knot,
    PathPair,
    block_far_slopes,
    build_pair,
    decompose_blocks,
    knot,
)
from .surgery import SurgeryDiagram, compile_diagram

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
