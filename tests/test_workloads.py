"""The benchmark's workloads (``perfbench/workloads.py``) time the program
through names under ``src/``: ``PeerRuntime.begin_tick`` and
``AvatarHost.tick_avatar`` for tick timestamps, the ``tick`` of each
``SimResult.timings`` row and of each hosted episode to drop search ticks,
and a loaded trace's snapshot fields for the input digest. A change under
``src/`` could break the benchmark without any change to ``perfbench/``;
this runs those hooks around a short session and its replay to catch that
here."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from twinroom import sim
from twinroom.scene import load_room
from twinroom.traces import load_trace, save_trace

from test_sim import quick_config, room_a_doc, room_b_doc, trace_a_script, trace_b_script

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    # workloads imports its siblings (gen, hostspeed) by plain name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def hooked():
    return sim.PeerRuntime.__dict__["begin_tick"], sim.AvatarHost.__dict__["tick_avatar"]


def test_workload_clocks_time_a_session_and_its_replay(two_cpus, tmp_path):
    # on the benchmark's two CPUs peer b steps in the peer child, so the
    # clocks see peer a's side: its ticks, and its host of b's avatar
    workloads = load_workloads()
    originals = hooked()
    traces = []
    for name, script in (("a", trace_a_script()), ("b", trace_b_script())):
        path = tmp_path / f"{name}.jsonl"
        save_trace(script.build(), path)
        traces.append(load_trace(path))
    digest = workloads.trace_digest(traces[0])
    assert len(digest) == 64 and digest != workloads.trace_digest(traces[1])

    with workloads.tick_clock() as ticks:
        result = sim.run(room_a_doc(), room_b_doc(), *traces, quick_config(latency_ticks=2))
    assert hooked() == originals
    assert [t for t, _ in ticks.starts] == list(range(1, result.report["ticks"] + 1))
    searched = [row["tick"] for row in result.timings]
    assert searched and set(searched) <= {t for t, _ in ticks.starts}

    with workloads.avatar_clock() as avatars:
        replayed = sim.replay(result.transcript, room_a_doc(), room_b_doc())
    assert hooked() == originals
    assert replayed == result.report
    assert avatars.starts
    for (host, tick), _ in avatars.starts:
        assert host.placement is not None and 1 <= tick <= result.report["ticks"]
    hosts = {host for (host, _), _ in avatars.starts}
    assert [host.owner_code for host in hosts] == [1]
    hosted = sorted(e["tick"] for host in hosts for e in host.episodes)
    assert hosted == sorted(e["tick"] for e in result.report["episodes"]["b"])
    assert hosted and set(hosted) <= set(searched) and len(hosted) < len(searched)


def test_rounds_on_the_same_rooms_repeat_byte_for_byte():
    # the benchmark loads its Rooms once and runs every round on them, so
    # only the first round builds their grid tables; each later round must
    # give the same bytes and still list every search tick, which
    # live-session leaves out of its latency samples
    workloads = load_workloads()
    rooms = load_room(room_a_doc()), load_room(room_b_doc())
    traces = trace_a_script().build(), trace_b_script().build()
    sessions = []
    for _ in range(2):
        with workloads.tick_clock() as ticks:
            result = sim.run(*rooms, *traces, quick_config(latency_ticks=2))
        searched = sorted(row["tick"] for row in result.timings)
        hosted = sorted(e["tick"] for episodes in result.report["episodes"].values() for e in episodes)
        assert searched and searched == hosted
        assert set(searched) <= {t for t, _ in ticks.starts}
        sessions.append(result)
    assert sessions[1].report_json == sessions[0].report_json
    assert sessions[1].transcript == sessions[0].transcript
    for _ in range(2):
        assert sim.canonical_report_json(sim.replay(sessions[0].transcript, *rooms)) == sessions[0].report_json
