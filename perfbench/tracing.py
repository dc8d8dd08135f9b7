"""Traced mode: spans and counters recorded by wrapping the module attributes
that callers look up, so nothing under ``src/`` changes.

Coarse boundaries (tick, search, avatar tick, encode, decode, under a root
span per session or replay) record spans with a name, start, end, parent
span and op id. Leaf calls only add to an aggregate count and total time.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from twinroom import geometry, placement, protocol, retarget, scene, sim, states, traces
import twinroom

_MODULES = (twinroom, geometry, scene, placement, states, retarget, protocol, traces, sim)

MSG_TYPES = tuple(t.name for t in protocol.MsgType)

# per-layer metric name -> unit, in report order
LAYER_METRICS = {
    "sim.ticks": "count",
    "sim.search_ticks": "count",
    "sim.tick.self_ms": "ms",
    "sim.pose_quantize.ms": "ms",
    "states.fixation.ms": "ms",
    "states.acquire.ms": "ms",
    "scene.raycast.calls": "count",
    "scene.raycast.ms": "ms",
    "retarget.avatar_tick.ms": "ms",
    "retarget.solve_full_body.calls": "count",
    "retarget.solve_full_body.ms": "ms",
    "retarget.pointing.calls": "count",
    "retarget.walk_in_place.calls": "count",
    "protocol.encode.ms": "ms",
    "protocol.encode.calls": "count",
    "protocol.bytes_out": "bytes",
    **{f"protocol.msgs.{name}": "count" for name in MSG_TYPES},
    "protocol.decode.ms": "ms",
    "protocol.decode.calls": "count",
    "protocol.bytes_in": "bytes",
    "placement.find.ms": "ms",
    "placement.grid.ms": "ms",
    "placement.pso.ms": "ms",
    "placement.grid.evaluated": "count",
    "placement.pso.evaluated": "count",
    "placement.score.calls": "count",
    "placement.score.ms": "ms",
    "placement.extract_features.calls": "count",
    "placement.grid.feasible_ratio": "ratio",
    "placement.pso.improved_ratio": "ratio",
    "scene.objects_in_fov.calls": "count",
    "scene.objects_in_radius.calls": "count",
    "scene.height_map.calls": "count",
    "scene.height_map.ms": "ms",
    "geometry.quat_rotate.calls": "count",
    "traces.save_ms": "ms",
    "traces.load_ms": "ms",
    "tracing.spans": "count",
    "tracing.overhead_ratio": "ratio",
}

# leaf key -> (module that defines the function, attribute name)
_LEAVES = {
    "sim.pose_quantize": (sim, "pose_update_from_snapshot"),
    "states.fixation": (states, "update_fixation"),
    "states.acquire": (states, "acquire_targets"),
    "scene.raycast": (scene, "raycast"),
    "retarget.solve_full_body": (retarget, "solve_full_body"),
    "retarget.pointing": (retarget, "retarget_pointing"),
    "retarget.walk_in_place": (retarget, "walk_in_place"),
    "placement.score": (placement, "default_similarity"),
    "placement.extract_features": (placement, "extract_features"),
    "scene.objects_in_fov": (scene, "objects_in_fov"),
    "scene.objects_in_radius": (scene, "objects_in_radius"),
    "scene.height_map": (scene, "height_map"),
    "geometry.quat_rotate": (geometry, "quat_rotate"),
}


class Tracer:
    """Wraps the module and class attributes the program's callers look up;
    ``close`` puts every original back."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        # span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._tick_span: int | None = None
        self.op = ""        # op id given to spans as they open
        self._ops = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation

    def _replace_everywhere(self, original, wrapped) -> None:
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._patches.append((mod, attr, original))

    def _replace_method(self, cls, name: str, wrapped) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapped)

    def install(self) -> "Tracer":
        for key, (mod, name) in _LEAVES.items():
            self._replace_everywhere(getattr(mod, name), self._leaf(key, getattr(mod, name)))
        span, leaf, everywhere = self._span_fn, self._leaf, self._replace_everywhere
        everywhere(sim.run, span("session", sim.run, op="s", ends_tick=True))
        everywhere(sim.replay, span("replay", sim.replay, op="r"))
        everywhere(placement.find_placement,
                   span("search", placement.find_placement, self._after_search))
        everywhere(placement.grid_search, leaf("placement.grid", placement.grid_search, self._after_grid))
        everywhere(placement.pso_refine, leaf("placement.pso", placement.pso_refine, self._after_pso))
        everywhere(retarget.avatar_tick, span("avatar_tick", retarget.avatar_tick))
        everywhere(protocol.encode_frame,
                   leaf("protocol.encode_frame", protocol.encode_frame, self._after_encode_frame))
        everywhere(protocol.decode_all, span("decode", protocol.decode_all, self._after_decode_all))
        Session = protocol.Session
        self._replace_method(Session, "tick", span("encode", Session.tick, self._after_session_tick))
        self._replace_method(Session, "feed", span("decode", Session.feed, self._after_feed))
        self._replace_method(sim.PeerRuntime, "begin_tick", self._begin_tick(sim.PeerRuntime.begin_tick))
        return self

    def close(self) -> None:
        self.end_tick()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- spans

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def end_tick(self) -> None:
        """Close the open tick span (at the next tick or when a run ends)."""
        if self._tick_span is not None:
            self._close(self._tick_span)
            self._tick_span = None

    def _begin_tick(self, original):
        tracer = self

        def begin_tick(peer, t):
            if peer.name == "a":  # one lockstep tick span covers both peers
                tracer.end_tick()
                tracer.op = f"{tracer.op.split('/')[0]}/t{t}"
                tracer._tick_span = tracer._open("tick")
                tracer.counts["sim.ticks"] += 1
            return original(peer, t)

        return begin_tick

    def _span_fn(self, name: str, fn, after=None, op: str = "", ends_tick: bool = False):
        """Span around every call; with ``op``, a call made outside any other
        span starts a new op id ``<op><n>``; ``ends_tick`` closes the open
        tick span (a session's last tick ends with the session)."""
        tracer = self

        def wrapper(*args, **kwargs):
            if op and not tracer._stack:
                tracer.op = f"{op}{tracer._ops[op]}"
                tracer._ops[op] += 1
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                if ends_tick:
                    tracer.end_tick()
                tracer._close(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _leaf(self, key: str, fn, after=None):
        counts, times = self.counts, self.times
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                times[key] += clock() - t0
                counts[key] += 1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- result hooks

    def _after_search(self, args, result) -> None:
        self.counts["placement.queries"] += 1
        if result.score > result.grid_score:
            self.counts["placement.pso.improved"] += 1

    def _after_grid(self, args, result) -> None:
        self.counts["placement.grid.evaluated"] += result.evaluated
        self.counts["placement.grid.candidates"] += 2 * result.candidates_per_pose

    def _after_pso(self, args, result) -> None:
        self.counts["placement.pso.evaluated"] += result.evaluated

    def _after_encode_frame(self, args, result) -> None:
        self.counts[f"protocol.msgs.{type(args[0]).__name__}"] += 1

    def _after_session_tick(self, args, frames) -> None:
        self.counts["protocol.encode.calls"] += 1
        self.counts["protocol.bytes_out"] += sum(len(f) for f in frames)

    def _after_feed(self, args, msgs) -> None:
        self.counts["protocol.decode.calls"] += 1
        self.counts["protocol.bytes_in"] += len(args[1])

    def _after_decode_all(self, args, msgs) -> None:
        self.counts["protocol.decode.calls"] += 1
        self.counts["protocol.bytes_in"] += len(args[0])

    # -- results

    def span_totals(self) -> tuple[dict, dict, int]:
        """Per span name: total duration and total self time (duration minus
        the part covered by child spans), plus the number of tick spans that
        contain a search span."""
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        search_ticks = set()
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            if parent >= 0:
                child[parent] += dur
                if name == "search" and self.spans[parent][0] == "tick":
                    search_ticks.add(parent)
        self_time: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        return total, self_time, len(search_ticks)

    def layer_metrics(self) -> dict[str, float]:
        """Every traced per-layer metric; layers this run never reached read 0."""
        c, t = self.counts, self.times
        total, self_time, search_ticks = self.span_totals()
        ms = 1e3
        out = {
            "sim.ticks": c["sim.ticks"],
            "sim.search_ticks": search_ticks,
            "sim.tick.self_ms": self_time["tick"] * ms,
            "sim.pose_quantize.ms": t["sim.pose_quantize"] * ms,
            "states.fixation.ms": t["states.fixation"] * ms,
            "states.acquire.ms": t["states.acquire"] * ms,
            "scene.raycast.calls": c["scene.raycast"],
            "scene.raycast.ms": t["scene.raycast"] * ms,
            "retarget.avatar_tick.ms": total["avatar_tick"] * ms,
            "retarget.solve_full_body.calls": c["retarget.solve_full_body"],
            "retarget.solve_full_body.ms": t["retarget.solve_full_body"] * ms,
            "retarget.pointing.calls": c["retarget.pointing"],
            "retarget.walk_in_place.calls": c["retarget.walk_in_place"],
            "protocol.encode.ms": total["encode"] * ms,
            "protocol.encode.calls": c["protocol.encode.calls"],
            "protocol.bytes_out": c["protocol.bytes_out"],
            **{f"protocol.msgs.{n}": c[f"protocol.msgs.{n}"] for n in MSG_TYPES},
            "protocol.decode.ms": total["decode"] * ms,
            "protocol.decode.calls": c["protocol.decode.calls"],
            "protocol.bytes_in": c["protocol.bytes_in"],
            "placement.find.ms": total["search"] * ms,
            "placement.grid.ms": t["placement.grid"] * ms,
            "placement.pso.ms": t["placement.pso"] * ms,
            "placement.grid.evaluated": c["placement.grid.evaluated"],
            "placement.pso.evaluated": c["placement.pso.evaluated"],
            "placement.score.calls": c["placement.score"],
            "placement.score.ms": t["placement.score"] * ms,
            "placement.extract_features.calls": c["placement.extract_features"],
            "placement.grid.feasible_ratio": _ratio(c["placement.grid.evaluated"], c["placement.grid.candidates"]),
            "placement.pso.improved_ratio": _ratio(c["placement.pso.improved"], c["placement.queries"]),
            "scene.objects_in_fov.calls": c["scene.objects_in_fov"],
            "scene.objects_in_radius.calls": c["scene.objects_in_radius"],
            "scene.height_map.calls": c["scene.height_map"],
            "scene.height_map.ms": t["scene.height_map"] * ms,
            "geometry.quat_rotate.calls": c["geometry.quat_rotate"],
            "tracing.spans": len(self.spans),
        }
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent if parent >= 0 else None, "op": op}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
