"""Happens-before race detection: seeded races fire, ordered schedules pass."""

from __future__ import annotations

import re
from collections import defaultdict
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ExecutionArtifacts, hb
from repro.analysis.hb import MAX_RACES_REPORTED, check_hb_races
from repro.gpu import Timeline


def artifacts_of(*timelines: Timeline) -> ExecutionArtifacts:
    return ExecutionArtifacts(
        timelines=[(f"gpu{i}", "train", t) for i, t in enumerate(timelines)]
    )


def submit(timeline, label, *, resource, stream, duration=1.0, deps=None,
           reads=(), writes=()):
    op = timeline.submit(
        label=label,
        kind="cpu" if resource == "cpu" else "h2d",
        resource=resource,
        duration=duration,
        stream=stream,
        depends_on=deps,
    )
    if reads:
        op.attrs["hb_reads"] = list(reads)
    if writes:
        op.attrs["hb_writes"] = list(writes)
    return op


class TestSeededRaces:
    def test_unordered_write_read_races(self):
        # A dropped dependency edge: the h2d copy reads the staging buffer
        # the pin stage writes, with nothing serializing the two.
        timeline = Timeline()
        submit(timeline, "pin", resource="cpu", stream="prep",
               writes=["staging:0"])
        submit(timeline, "h2d", resource="pcie_h2d", stream="copy",
               reads=["staging:0"])
        violations = check_hb_races(artifacts_of(timeline))
        assert len(violations) == 1
        v = violations[0]
        assert v.check == "hb-race" and v.severity == "error"
        assert "'pin'" in v.message and "'h2d'" in v.message
        assert "staging:0" in v.message
        assert "add a dependency edge" in v.message
        assert v.source == "gpu0" and v.domain == "train"

    def test_unordered_write_write_races(self):
        timeline = Timeline()
        submit(timeline, "delta", resource="cpu", stream="ingest",
               writes=["block:3"])
        submit(timeline, "gather", resource="pcie_h2d", stream="copy",
               writes=["block:3"])
        violations = check_hb_races(artifacts_of(timeline))
        assert len(violations) == 1

    def test_dependency_edge_orders_the_pair(self):
        timeline = Timeline()
        pin = submit(timeline, "pin", resource="cpu", stream="prep",
                     writes=["staging:0"])
        submit(timeline, "h2d", resource="pcie_h2d", stream="copy",
               deps=[pin], reads=["staging:0"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_shared_stream_orders_the_pair(self):
        timeline = Timeline()
        submit(timeline, "pin", resource="cpu", stream="s",
               writes=["staging:0"])
        submit(timeline, "h2d", resource="pcie_h2d", stream="s",
               reads=["staging:0"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_resource_fifo_orders_the_pair(self):
        timeline = Timeline()
        submit(timeline, "a", resource="cpu", stream="s1", writes=["k"])
        submit(timeline, "b", resource="cpu", stream="s2", reads=["k"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_transitive_ordering_found(self):
        # a -> mid via stream, mid -> c via dependency: a and c are ordered
        # even though no direct edge joins them.
        timeline = Timeline()
        a = submit(timeline, "a", resource="cpu", stream="s", writes=["k"])
        mid = submit(timeline, "mid", resource="pcie_h2d", stream="s")
        assert a is not mid
        submit(timeline, "c", resource="pcie_d2h", stream="other",
               deps=[mid], reads=["k"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_readers_only_never_race(self):
        timeline = Timeline()
        submit(timeline, "r1", resource="cpu", stream="s1", reads=["k"])
        submit(timeline, "r2", resource="pcie_h2d", stream="s2", reads=["k"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_keys_are_scoped_per_timeline(self):
        # The same block id on two devices' caches is two different blocks.
        t0, t1 = Timeline(), Timeline()
        submit(t0, "w", resource="cpu", stream="s", writes=["block:0"])
        submit(t1, "r", resource="cpu", stream="s", reads=["block:0"])
        assert check_hb_races(artifacts_of(t0, t1)) == []

    def test_cross_timeline_dependency_edges_order(self):
        # p2p-style edge: the recv on t1 depends on the send on t0, so an op
        # on t0 gated behind t1's work is ordered after everything before
        # the send.
        def run(gate_reader):
            t0, t1 = Timeline(), Timeline()
            submit(t0, "w", resource="cpu", stream="s", writes=["k"])
            send = submit(t0, "send", resource="pcie_d2h", stream="s")
            recv = submit(t1, "recv", resource="cpu", stream="comm",
                          deps=[send])
            x = submit(t1, "x", resource="compute", stream="comm",
                       deps=[recv])
            submit(t0, "r", resource="pcie_h2d", stream="copy",
                   deps=[x] if gate_reader else None, reads=["k"])
            return check_hb_races(artifacts_of(t0, t1))

        assert run(gate_reader=True) == []
        violations = run(gate_reader=False)
        assert len(violations) == 1
        assert "'w'" in violations[0].message and "'r'" in violations[0].message
        assert violations[0].source == "gpu0"

    def test_zero_duration_reader_then_writer_on_one_stream(self):
        # Regression: both ops start at t=0; the search must run from the
        # earlier submission, not from whichever op sorts first by start.
        timeline = Timeline()
        submit(timeline, "r", resource="cpu", stream="s", duration=0.0,
               reads=["k"])
        submit(timeline, "w", resource="pcie_h2d", stream="s", writes=["k"])
        assert check_hb_races(artifacts_of(timeline)) == []

    def test_flood_reports_digest_after_cap(self):
        timeline = Timeline()
        for i in range(30):
            # Unique resource+stream per op: nothing serializes anything.
            submit(timeline, f"w{i}", resource=f"r{i}", stream=f"s{i}",
                   writes=["k"])
        violations = check_hb_races(artifacts_of(timeline))
        assert len(violations) == MAX_RACES_REPORTED + 1
        assert "stopped after" in violations[-1].message


class TestLinearCost:
    def test_reachability_queries_at_most_one_per_access(self, monkeypatch):
        calls = []
        reaches = hb._reaches

        def counting(*args):
            calls.append(args[:2])
            return reaches(*args)

        monkeypatch.setattr(hb, "_reaches", counting)
        timeline = Timeline()
        writers = 2000
        reader = None
        for i in range(writers):
            w = submit(timeline, f"w{i}", resource="cpu", stream="write",
                       deps=[reader] if reader is not None else None,
                       writes=["k"])
            if i < writers - 1:
                reader = submit(timeline, f"r{i}", resource="pcie_h2d",
                                stream="read", deps=[w], reads=["k"])
        accesses = 2 * writers - 1
        assert check_hb_races(artifacts_of(timeline)) == []
        assert 0 < len(calls) <= accesses


# -- property test against a brute-force oracle ------------------------------

_MESSAGE = re.compile(r"^(\w+): '(op\d+)' .* and '(op\d+)' .* both touch '(\w+)'")
_KEYS = ("k0", "k1", "k2")


@st.composite
def _schedules(draw):
    """Random op specs; a wide engine/stream pool leaves most ops unordered."""
    width = draw(st.integers(1, 40))
    lane = st.integers(0, width - 1)
    return draw(st.lists(st.fixed_dictionaries({
        "timeline": st.integers(0, 2),
        "resource": lane.map(lambda i: f"r{i}"),
        "stream": lane.map(lambda i: f"s{i}"),
        "duration": st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
        "deps": st.lists(st.integers(0, 1_000), max_size=2),
        "reads": st.lists(st.sampled_from(_KEYS), max_size=2),
        "writes": st.lists(st.sampled_from(_KEYS), max_size=2),
    }), min_size=1, max_size=80))


def _build(specs):
    num_timelines = max(spec["timeline"] for spec in specs) + 1
    timelines = [Timeline() for _ in range(num_timelines)]
    ops = []
    for i, spec in enumerate(specs):
        deps = [ops[d] for d in sorted({d % i for d in spec["deps"]})] if i else []
        ops.append(submit(
            timelines[spec["timeline"]], f"op{i}",
            resource=spec["resource"], stream=spec["stream"],
            duration=spec["duration"], deps=deps or None,
            reads=spec["reads"], writes=spec["writes"],
        ))
    return timelines


def _oracle_races(timelines):
    """Every conflicting pair with no HB path, by BFS from every op."""
    ops = [(f"gpu{t}", op) for t, tl in enumerate(timelines) for op in tl.ops]
    succ = defaultdict(set)
    for tl in timelines:
        tl_ops = tl.ops
        for j, later in enumerate(tl_ops):
            for dep in later.deps:
                succ[dep].add(later.uid)
            for earlier in tl_ops[:j]:
                if earlier.stream == later.stream or earlier.resource == later.resource:
                    succ[earlier.uid].add(later.uid)

    def reachable(uid):
        seen, frontier = set(), [uid]
        while frontier:
            for nxt in succ[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def touched(op):
        return set(op.attrs.get("hb_reads", ())), set(op.attrs.get("hb_writes", ()))

    closure = {op.uid: reachable(op.uid) for _, op in ops}
    races = set()
    for name, a in ops:
        for other_name, b in ops:
            if other_name != name or a.uid >= b.uid:
                continue
            if b.uid in closure[a.uid] or a.uid in closure[b.uid]:
                continue
            (a_reads, a_writes), (b_reads, b_writes) = touched(a), touched(b)
            for key in (a_writes & (b_reads | b_writes)) | (b_writes & a_reads):
                races.add((name, key, a.label, b.label))
    return races


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(specs=_schedules())
    def test_sweep_matches_all_pairs_oracle(self, specs):
        artifacts = artifacts_of(*_build(specs))
        oracle = _oracle_races([tl for _, _, tl in artifacts.timelines])
        with mock.patch.object(hb, "MAX_RACES_REPORTED", 10**9):
            full = check_hb_races(artifacts)
        capped = check_hb_races(artifacts)

        assert (capped == []) == (not oracle)
        reported = set()
        for v in full:
            name, a, b, key = _MESSAGE.match(v.message).groups()
            assert v.source == name
            assert (name, key, a, b) in oracle
            reported.add((name, key, a, b))
        assert {(n, k) for n, k, _, _ in reported} == {(n, k) for n, k, _, _ in oracle}

        if len(full) >= MAX_RACES_REPORTED:
            assert len(capped) == MAX_RACES_REPORTED + 1
            assert capped[:-1] == full[:MAX_RACES_REPORTED]
            assert "stopped after" in capped[-1].message
        else:
            assert capped == full
