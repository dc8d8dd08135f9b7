"""twinroom: avatar placement and motion retargeting between dissimilar rooms.

A headless engine for two-room telepresence. Each peer streams body pose and
interaction state; the receiving side picks a matching spot for the remote
avatar in its own furniture layout and retargets locomotion and pointing
gestures so they keep their meaning in the new room.
"""

from __future__ import annotations

from .placement import (
    FeatureVector,
    GridConfig,
    NoFeasiblePlacement,
    Placement,
    PlacementPose,
    PsoConfig,
    ScorerConfig,
    extract_features,
    feasible,
    find_placement,
    grid_search,
    pso_refine,
)
from .protocol import ProtocolError, Session, decode_all, encode_frame
from .retarget import (
    AvatarPose,
    IkGoals,
    Joint,
    RetargetConfig,
    Skeleton,
    avatar_tick,
    retarget_pointing,
    solve_full_body,
    solve_two_bone,
)
from .scene import (
    Ray,
    Room,
    SceneError,
    SceneObject,
    height_map,
    load_room,
    normalize_hit,
    raycast,
    room_hash,
    validate_pairing,
)
from .sim import SimConfig, replay, run
from .states import StateConfig, UserSnapshot, UserState, step_locomotion
from .traces import MotionTrace, TraceBuilder, load_trace, save_trace

__version__ = "0.1.0"
