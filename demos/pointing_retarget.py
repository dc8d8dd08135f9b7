"""Pointing retarget walkthrough: same screen spot, different room, different arm.

A user in the office points at a spot on their 1.7 m wall screen. The avatar
stands elsewhere in the loft, where the paired projector wall is 2.6 m wide,
so copying joint angles would aim at the wrong thing. Instead the arm is
re-solved so the shoulder-to-wrist ray passes through the corresponding spot
on the loft surface, while the user's arm extension carries over.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from twinroom import RetargetConfig, Skeleton, TraceBuilder, load_room, solve_two_bone
from twinroom.geometry import (
    Transform,
    norm,
    point_to_line_distance,
    quat_conj,
    quat_from_yaw,
    quat_mul,
    sub,
)
from twinroom.retarget import Joint, rest_goals, retarget_pointing, solve_full_body, vertical_compensation
from twinroom.scene import denormalize_hit

ROOMS = Path(__file__).parent / "rooms"


def right_hand_of(snap) -> Transform:
    """The user's right hand relative to their root: the form the avatar's
    goals carry it in, and the one pointing reads."""
    root = Transform(snap.root.position, snap.root.orientation)
    return Transform(
        root.inverse_apply(snap.right_hand.position),
        quat_mul(quat_conj(root.orientation), snap.right_hand.orientation),
    )


def main() -> None:
    office = load_room(ROOMS / "office_a.json")
    loft = load_room(ROOMS / "loft_b.json")
    sk = Skeleton()

    # The user aims at one normalized spot on the office screen; the paired
    # projector wall maps the same (u, v, w) to its own geometry.
    uvw = (0.7, 0.65, 1.0)
    local_spot = denormalize_hit(office.object("wall_screen"), uvw)
    remote_spot = denormalize_hit(loft.object("projector_wall"), uvw)
    print(f"screen spot, office: {np.round(local_spot, 3)}")
    print(f"same spot, loft:     {np.round(remote_spot, 3)}")

    # Record the user raising their right hand at the office spot.
    user = (
        TraceBuilder(skeleton=sk, start=(0.6, -0.3), yaw=0.0)
        .hold(0.1)
        .point_at(local_spot, side="right", reach=0.40)
    )
    snap = user.snapshots[-1]
    print(f"\nuser hand lifted: {snap.right_hand.lifted}")

    # The avatar stands at a different spot, facing the loft wall; its arm
    # takes the user's hand as carried relative to the avatar's root.
    avatar_root = Transform((1.4, 0.92, 0.6), quat_from_yaw(math.pi / 2))
    sol = retarget_pointing(sk, avatar_root, right_hand_of(snap), remote_spot, side="right")
    miss = point_to_line_distance(remote_spot, sol.shoulder, sol.aim)
    print(f"avatar shoulder: {np.round(sol.shoulder, 3)}")
    print(f"avatar wrist:    {np.round(sol.wrist, 3)} (reach {sol.reach:.3f} m)")
    print(f"aim ray misses the loft spot by {miss:.2e} m")

    # Arm extension carries over: a half-raised user arm stays half-raised.
    for reach in (0.22, 0.40, 0.60):
        b = TraceBuilder(skeleton=sk, start=(0.6, -0.3), yaw=0.0).hold(0.1)
        b.point_at(local_spot, side="right", reach=reach)
        s = retarget_pointing(sk, avatar_root, right_hand_of(b.snapshots[-1]), remote_spot, side="right")
        print(f"  user reach {min(reach, sk.arm_reach):.2f} m -> avatar reach {s.reach:.2f} m")

    # The elbow comes from a two-bone solve along the same ray.
    elbow, wrist = solve_two_bone(
        sol.shoulder, sk.upper_arm, sk.forearm, sol.wrist, hint=(0.0, -1.0, -0.35)
    )
    up_len = norm(sub(elbow, sol.shoulder))
    fo_len = norm(sub(wrist, elbow))
    print(f"\ntwo-bone solve: elbow {np.round(elbow, 3)}")
    print(f"  upper arm {up_len:.3f} m (bone {sk.upper_arm}), forearm {fo_len:.3f} m (bone {sk.forearm})")

    # Optional perceived-pointing lift: observers read pointing as lower than
    # intended, so the aim point can be raised by a fixed visual angle. It is
    # off by default; here is what 4 degrees would do at two distances, seen
    # from the avatar's eye: its solved head joint, here in the rest pose.
    cfg = RetargetConfig(elevation_offset=math.radians(4.0))
    x, _, z = avatar_root.position
    eye = solve_full_body(sk, rest_goals(sk, avatar_root)).joints[Joint.Head]
    print("\nvertical compensation at 4 degrees (off by default):")
    for label, spot in (("2 m target", (x + 2.0, eye[1] - 0.2, z)),
                        ("4 m target", (x + 4.0, eye[1] - 0.2, z))):
        lifted = vertical_compensation(spot, eye, cfg)
        print(f"  {label}: raised {lifted[1] - spot[1]:.3f} m")


if __name__ == "__main__":
    main()
