"""The benchmark's traced mode (``perfbench/tracing.py``) wraps program
functions by module attribute name. A rename under ``src/`` would break
``perfbench/run.py --trace 1`` without any change to ``perfbench/``, and a
call through a local alias would silently zero a count; this installs and
closes its tracer, and runs one traced session, to catch both here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from test_sim import quick_config, room_a_doc, room_b_doc, trace_a_script, trace_b_script

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot(tracing):
    attrs = {(mod.__name__, name): value for mod in tracing._MODULES for name, value in vars(mod).items()}
    for cls in (tracing.protocol.Session, tracing.sim.PeerRuntime):
        attrs.update({(cls.__qualname__, name): value for name, value in vars(cls).items()})
    return attrs


def test_tracer_resolves_every_leaf_and_restores_every_original():
    tracing = load_tracing()
    originals = {key: getattr(mod, name) for key, (mod, name) in tracing._LEAVES.items()}
    before = snapshot(tracing)

    tracer = tracing.Tracer().install()
    try:
        for key, (mod, name) in tracing._LEAVES.items():
            assert getattr(mod, name) is not originals[key], f"{key} was not wrapped"
        assert any(before[k] is not v for k, v in snapshot(tracing).items() if k in before)
    finally:
        tracer.close()

    after = snapshot(tracing)
    assert after.keys() == before.keys()
    changed = sorted(f"{owner}.{name}" for (owner, name), v in after.items() if before[(owner, name)] is not v)
    assert changed == []


# per-layer counts that the traced session below must raise above 0
REACHED = (
    "sim.ticks",
    "scene.raycast.calls",
    "retarget.solve_full_body.calls",
    "retarget.pointing.calls",
    "retarget.walk_in_place.calls",
    "protocol.encode.calls",
    "placement.grid.evaluated",
)


SCREEN_B_POINT = [1.8, 1.3, 0.0]  # on screen_b's front face


def test_traced_session_reaches_every_counted_layer(two_cpus):
    # on the benchmark's two CPUs the tracer counts peer a's side only, the
    # one in its own process, so peer a's side alone reaches every layer
    tracing = load_tracing()
    # B walks again once placed, so A's host walks B's avatar in place, then
    # points at its screen, so A's host solves the avatar's pointing arm
    trace_b = trace_b_script().walk_to(0.4, 0.5, speed=1.5).hold(0.5)
    trace_b.gaze_at(SCREEN_B_POINT, seconds=1.0).point_at(SCREEN_B_POINT, side="right", raise_s=0.4, hold_s=1.0)
    tracer = tracing.Tracer().install()
    try:
        tracing.sim.run(room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b.build(),
                        config=quick_config())
    finally:
        tracer.close()
    metrics = tracer.layer_metrics()
    assert {name: metrics[name] for name in REACHED if not metrics[name] > 0} == {}
