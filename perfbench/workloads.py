"""The benchmark workloads. Each is a closed loop with one caller and no
pacing: the next operation starts when the previous one returns.

* live-session: two scripted users run through ``sim.run`` in lockstep.
* replay-verify: a transcript recorded at set-up is rebuilt with ``sim.replay``.

A run is a series of rounds over the same inputs: one session or one replay
each. Every time is taken while ``hostspeed.HostProbe`` runs and is
normalized by it (see that module), and each figure is the median over the
rounds of that round's figure.

Every workload calls the program through module attributes (``sim.run``,
``sim.replay``...) looked up at call time, so the traced mode sees the same
calls the untraced mode makes.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from twinroom import placement as P
from twinroom import sim
from twinroom import traces as T

import gen
from hostspeed import HostProbe

OUT_DIR = Path(__file__).resolve().parent / "out"

SESSION_BLOCKS = 3          # walks per user in a live session
REPLAY_BLOCKS = 2           # walks per user in the recorded session
LATENCY_TICKS = 2
MIN_ROUNDS = 3
TAIL = 99                   # percentile reported as latency_ms_tail
LOCAL_S = 0.025             # a latency sample is normalized by the probes within this of it
HARD_CAP_S = 120.0          # stop adding rounds after this long, whatever the minimum


@dataclass
class Ledger:
    """Attempted and failed operations plus what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


@dataclass
class Round:
    units: int                              # ticks completed
    start: float                            # perf_counter around the program's call
    end: float
    intervals: list[tuple[float, float]]    # (start, end) of each latency sample

    def figures(self, probe: HostProbe) -> tuple[float, float, float]:
        """Normalized (rate per second, p50 seconds, tail seconds)."""
        busy = probe.busy
        seconds = probe.normalize(self.end - self.start - busy(self.start, self.end), self.start, self.end)
        lat = [probe.normalize(b - a - busy(a, b), a - LOCAL_S, b + LOCAL_S) for a, b in self.intervals]
        return self.units / seconds, percentile(lat, 50), percentile(lat, TAIL)

    def wall_rate(self, probe: HostProbe) -> float:
        """Ticks per second of wall time, probes left out but not normalized."""
        return self.units / (self.end - self.start - probe.busy(self.start, self.end))


@dataclass
class Measured:
    rounds: list[Round] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # the program's outputs, in input order
    attempts: int = 0


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def round_trip(traces: list[T.MotionTrace], tag: str) -> tuple[list[T.MotionTrace], float, float]:
    """Save every trace as JSONL and load it back; returns the loaded traces
    and the save and load times in seconds."""
    d = OUT_DIR / f"work-{tag}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    try:
        paths = [d / f"{i}.jsonl" for i in range(len(traces))]
        t0 = time.perf_counter()
        for tr, path in zip(traces, paths):
            T.save_trace(tr, path)
        t1 = time.perf_counter()
        loaded = [T.load_trace(path) for path in paths]
        t2 = time.perf_counter()
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return loaded, t1 - t0, t2 - t1


def report_problems(report: dict, rooms: dict, where: str) -> list[str]:
    """Every reported placement is feasible in the room hosting it, every
    search scored at least its grid seed, and both peers closed cleanly."""
    problems = []
    for owner, host in (("a", "b"), ("b", "a")):
        for ep, row in zip(report["episodes"][owner], report["search"][owner]):
            pl = P.Placement(ep["x"], ep["z"], ep["yaw"], P.PlacementPose[ep["pose"]])
            if not P.feasible(rooms[host], pl):
                problems.append(f"{where}: placement {pl} of {owner} is not feasible")
            if not row["score"] >= row["grid_score"]:
                problems.append(f"{where}: search score {row['score']} < grid score {row['grid_score']}")
        if report["protocol"][owner]["phase"] != "Closed":
            problems.append(f"{where}: peer {owner} did not close")
    return problems


def search_scores(reports) -> list[float]:
    return [row["score"] for r in reports for o in ("a", "b") for row in r["search"][o]]


class _MethodClock:
    """Timestamps calls of one method through a single wrapper on its class;
    ``key(obj, *args)`` returns the entry to record, or None to skip."""

    def __init__(self, cls, name: str, key):
        self.cls, self.name, self.key = cls, name, key
        self.starts: list = []

    def __enter__(self):
        original = self.cls.__dict__[self.name]
        starts, key, clock = self.starts, self.key, time.perf_counter

        def wrapper(obj, *args):
            k = key(obj, *args)
            if k is not None:
                starts.append((k, clock()))
            return original(obj, *args)

        self._original = original
        setattr(self.cls, self.name, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.cls, self.name, self._original)


def tick_clock() -> _MethodClock:
    """Start of every lockstep tick: ``PeerRuntime.begin_tick`` of peer a."""
    return _MethodClock(sim.PeerRuntime, "begin_tick", lambda peer, t: t if peer.name == "a" else None)


def avatar_clock() -> _MethodClock:
    """Start of every replayed tick of each hosting peer once its avatar is
    placed (before that ``AvatarHost.tick_avatar`` has nothing to animate)."""
    return _MethodClock(sim.AvatarHost, "tick_avatar",
                        lambda host, t, pose, dt: (host, t) if host.placement is not None else None)


# --- workloads -----------------------------------------------------------------

class Workload:
    name = ""
    aliases: dict[str, str] = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.ledger = Ledger()
        self.save_s = 0.0
        self.load_s = 0.0

    def setup(self) -> str:
        """Build this workload's inputs from the seed; returns their digest."""
        raise NotImplementedError

    def run_round(self, m: Measured) -> None:
        """Run one round, add it to ``m`` and count its ops."""
        raise NotImplementedError

    def verify(self, m: Measured) -> None:
        """Untimed checks after measuring."""

    def score_mean(self) -> float:
        raise NotImplementedError

    def measure(self, seconds: float) -> tuple[Measured, HostProbe]:
        """Run rounds for at least ``seconds`` and ``MIN_ROUNDS`` rounds."""
        m = Measured()
        with HostProbe() as probe:
            start = time.perf_counter()
            while True:
                m.attempts += 1
                self.run_round(m)
                elapsed = time.perf_counter() - start
                if (m.attempts >= MIN_ROUNDS and elapsed >= seconds) or elapsed >= HARD_CAP_S:
                    return m, probe

    def metrics(self, m: Measured, probe: HostProbe) -> dict:
        med = statistics.median
        rate, p50, tail = zip(*(r.figures(probe) for r in m.rounds))
        return {
            "throughput_per_s": med(rate),
            "latency_ms_p50": med(p50) * 1e3,
            "latency_ms_tail": med(tail) * 1e3,
            "placement_score_mean": self.score_mean(),
        }


def session_traces(w: Workload, seed: int, blocks: int):
    """Generate one session, round-trip both traces through JSONL and pair
    them with a run config."""
    a, b, sim_seed = gen.session_traces(seed, (w.rooms["a"], w.rooms["b"]), blocks)
    (a, b), w.save_s, w.load_s = round_trip([a, b], f"{w.name}-{seed}")
    return a, b, sim.SimConfig(seed=sim_seed, latency_ticks=LATENCY_TICKS)


class LiveSession(Workload):
    """Two interaction-heavy scripted users in the paired demo rooms."""

    name = "live-session"
    aliases = {"session_ticks_per_s": "throughput_per_s", "tick_ms_p50": "latency_ms_p50",
               "tick_ms_p99": "latency_ms_tail"}

    def setup(self) -> str:
        rooms = gen.session_rooms()
        self.rooms = {"a": rooms[0], "b": rooms[1]}
        self.session = session_traces(self, self.seed, SESSION_BLOCKS)
        a, b, cfg = self.session
        return digest([trace_digest(a), trace_digest(b), repr(cfg.seed)])

    def run_round(self, m: Measured) -> None:
        with tick_clock() as clock:
            t0 = time.perf_counter()
            try:
                res = sim.run(self.rooms["a"], self.rooms["b"], *self.session)
            except Exception as e:  # a failed session counts, the run goes on
                self.ledger.op(False, f"session: {type(e).__name__}: {e}")
                return
            t1 = time.perf_counter()
        searched = {row["tick"] for row in res.timings}
        st = clock.starts
        m.rounds.append(Round(res.report["ticks"], t0, t1,
                              [(a, b) for (t, a), (_, b) in zip(st, st[1:]) if t not in searched]))
        if m.outputs:
            self.ledger.op(res.report_json == m.outputs[0], "a second live run gave a different report")
        else:
            self.result = res
            m.outputs.append(res.report_json)
            self.ledger.op(True, "")

    def verify(self, m: Measured) -> None:
        """One check op for the session: its placements and its replay."""
        res = self.result
        problems = report_problems(res.report, self.rooms, "session")
        try:
            if sim.replay(res.transcript, self.rooms["a"], self.rooms["b"]) != res.report:
                problems.append("replay(transcript) != report")
        except Exception as e:
            problems.append(f"replay raised {type(e).__name__}: {e}")
        self.ledger.op(not problems, "; ".join(problems))

    def score_mean(self) -> float:
        return statistics.fmean(search_scores([self.result.report]))


def trace_digest(trace: T.MotionTrace) -> str:
    return digest(repr((s.root.position.tolist(), s.head.orientation.tolist(), s.right_hand.lifted))
                  for s in trace.snapshots)


class ReplayVerify(Workload):
    """Rebuild a recorded session from its transcript."""

    name = "replay-verify"
    aliases = {"replay_ticks_per_s": "throughput_per_s"}

    def setup(self) -> str:
        rooms = gen.session_rooms()
        self.rooms = {"a": rooms[0], "b": rooms[1]}
        # recorded under another seed than live-session uses for the same --seed
        a, b, cfg = session_traces(self, self.seed + 1_000_003, REPLAY_BLOCKS)
        res = sim.run(rooms[0], rooms[1], a, b, cfg)
        self.transcript, self.report = res.transcript, res.report
        return digest([self.transcript])

    def run_round(self, m: Measured) -> None:
        with avatar_clock() as clock:
            t0 = time.perf_counter()
            try:
                got = sim.replay(self.transcript, self.rooms["a"], self.rooms["b"])
            except Exception as e:
                self.ledger.op(False, f"replay: {type(e).__name__}: {e}")
                return
            t1 = time.perf_counter()
        self.ledger.op(got == self.report, "replay(transcript) != report")
        if not m.outputs:
            m.outputs.append(sim.canonical_report_json(got))
        searched = {}
        intervals = []
        st = clock.starts
        for ((h1, t1_), a), ((h2, t), b) in zip(st, st[1:]):
            if h1 is not h2 or t != t1_ + 1:
                continue
            if h2 not in searched:
                searched[h2] = {e["tick"] for e in h2.episodes}
            if t not in searched[h2]:
                intervals.append((a, b))
        m.rounds.append(Round(self.report["ticks"], t0, t1, intervals))

    def verify(self, m: Measured) -> None:
        """One check op for the recorded session: its placements."""
        problems = report_problems(self.report, self.rooms, "recorded session")
        self.ledger.op(not problems, "; ".join(problems))

    def score_mean(self) -> float:
        return statistics.fmean(search_scores([self.report]))


WORKLOADS = {w.name: w for w in (LiveSession, ReplayVerify)}
