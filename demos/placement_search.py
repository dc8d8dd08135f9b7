"""Placement search walkthrough: where should the avatar stand in the other room?

Extracts context features for two user situations in the office (sitting at
the desk chair, standing in front of the wall screen) and searches the loft
for the spot whose surroundings match best: coarse grid sweep first, then
particle-swarm refinement around the winner.
"""

from __future__ import annotations

import math
from pathlib import Path

from twinroom import (
    Placement,
    PlacementPose,
    extract_features,
    find_placement,
    load_room,
    validate_pairing,
)
from twinroom.placement import PartnerPose, grid_axes

ROOMS = Path(__file__).parent / "rooms"


def describe(result, room) -> None:
    p = result.placement
    print(f"  grid best:    x={result.grid_placement.x:6.2f} z={result.grid_placement.z:6.2f} "
          f"yaw={math.degrees(result.grid_placement.yaw):7.1f} deg  score {result.grid_score:.4f}")
    print(f"  refined best: x={p.x:6.2f} z={p.z:6.2f} yaw={math.degrees(p.yaw):7.1f} deg  "
          f"score {result.score:.4f} ({p.pose.name})")
    print(f"  searched {result.grid_evaluated} feasible grid + {result.pso_evaluated} swarm candidates "
          f"in {1e3 * (result.grid_time_s + result.pso_time_s):.0f} ms")
    near = sorted(
        ((math.hypot(o.position[0] - p.x, o.position[2] - p.z), o.id) for o in room.objects),
    )[:2]
    print(f"  lands next to: {', '.join(f'{oid} ({d:.2f} m)' for d, oid in near)}")


def main() -> None:
    office = load_room(ROOMS / "office_a.json")
    loft = load_room(ROOMS / "loft_b.json")
    validate_pairing(office, loft)

    xs, zs, yaws = grid_axes(loft.extents)
    print(f"loft grid: {len(xs)} x {len(zs)} positions x {len(yaws)} yaws = "
          f"{len(xs) * len(zs) * len(yaws)} candidates per pose")

    print("\n1. user sits at the office desk chair")
    chair = office.object("task_chair")
    seated = Placement(chair.position[0], chair.position[2], chair.yaw, PlacementPose.Sitting)
    fv = extract_features(office, seated)
    result = find_placement(loft, fv, rng=7)
    describe(result, loft)

    print("\n2. user stands facing the office wall screen")
    standing = Placement(-0.4, 1.0, 0.0, PlacementPose.Standing)
    fv = extract_features(office, standing)
    result = find_placement(loft, fv, rng=7)
    describe(result, loft)

    print("\n3. standing side by side with the partner's avatar")
    # When both rooms have a second body, the interpersonal term asks the
    # search to reproduce the user-partner distance and bearing as well.
    office_partner = PartnerPose(x=0.6, z=1.1, yaw=0.0)
    fv = extract_features(office, standing, partner=office_partner)
    loft_partner = PartnerPose(x=1.3, z=-0.6, yaw=math.pi / 2)
    result = find_placement(loft, fv, partner=loft_partner, rng=7)
    describe(result, loft)
    off_d = math.hypot(standing.x - office_partner.x, standing.z - office_partner.z)
    d = math.hypot(result.placement.x - loft_partner.x, result.placement.z - loft_partner.z)
    print(f"  user-partner distance: {off_d:.2f} m in the office, {d:.2f} m in the loft")


if __name__ == "__main__":
    main()
