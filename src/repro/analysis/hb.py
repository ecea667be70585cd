"""Happens-before race detection over the simulated timelines.

The HB graph has one node per :class:`~repro.gpu.timeline.TimelineOp` and
three edge families, exactly the mechanisms the list scheduler serializes
with:

- **dependency edges** — ``submit(depends_on=...)``, recorded as op uids
  (these may cross timelines: p2p recvs, cross-device gates);
- **stream edges** — FIFO order of ops sharing a stream on one timeline;
- **resource edges** — FIFO order of ops sharing an engine on one timeline.

Ops declare what they touch through ``attrs["hb_reads"]`` /
``attrs["hb_writes"]`` key lists: the gather stage reads its item's cache
block keys, a delta op writes the blocks it invalidates, the pin stage
writes (and the h2d copy reads) a per-occurrence staging key.  Two ops on
one timeline touching a common key, at least one writing, with no directed
path between them in either direction, race: nothing in the schedule stops
a reordering from exposing stale or half-written data.

Edges point from earlier to later submissions and uids come from one
process-wide counter, so uid order is a topological order of the HB graph.
:func:`check_hb_races` sweeps each ``(timeline, key)`` once in uid order,
FastTrack-style (Flanagan & Freund, PLDI 2009): a read is checked against
the last write; a write against the reads since the last write (or, with
none, the last write itself), after which the read set is cleared.  If every
check finds a path, transitivity orders all conflicting pairs, at a cost of
at most two reachability queries per access.  A violation names the failed
check's pair, earlier submission first.  Edges also point forward in
simulated time, so a search prunes nodes submitted or starting after its
target.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .base import ExecutionArtifacts, Violation

#: cap per run so a systemically broken schedule reports a digest, not a flood
MAX_RACES_REPORTED = 25


def build_hb_graph(
    timelines: Sequence[Tuple[str, str, object]]
) -> Tuple[Dict[int, object], Dict[int, List[int]]]:
    """Return ``(ops_by_uid, successors)`` across all given timelines."""
    ops_by_uid: Dict[int, object] = {}
    successors: Dict[int, List[int]] = defaultdict(list)
    for _, _, timeline in timelines:
        last_on_resource: Dict[str, int] = {}
        last_on_stream: Dict[str, int] = {}
        for op in timeline.ops:
            ops_by_uid[op.uid] = op
            for dep in op.deps:
                successors[dep].append(op.uid)
            prev = last_on_resource.get(op.resource)
            if prev is not None:
                successors[prev].append(op.uid)
            last_on_resource[op.resource] = op.uid
            prev = last_on_stream.get(op.stream)
            if prev is not None:
                successors[prev].append(op.uid)
            last_on_stream[op.stream] = op.uid
    return ops_by_uid, dict(successors)


def _reaches(
    source: int,
    target: int,
    ops_by_uid: Dict[int, object],
    successors: Dict[int, List[int]],
) -> bool:
    """Is there a directed HB path ``source -> target``?"""
    target_start = ops_by_uid[target].start
    seen: Set[int] = {source}
    frontier = [source]
    while frontier:
        uid = frontier.pop()
        if uid == target:
            return True
        for nxt in successors.get(uid, ()):
            if nxt in seen or nxt > target:
                continue
            nxt_op = ops_by_uid.get(nxt)
            if nxt_op is None or nxt_op.start > target_start:
                continue
            seen.add(nxt)
            frontier.append(nxt)
    return False


def _accesses(
    timelines: Sequence[Tuple[str, str, object]]
) -> Dict[Tuple[str, object], List[Tuple[int, bool]]]:
    """Map ``(source_name, key) -> [(uid, is_write), ...]`` per timeline.

    Keys are scoped per timeline: block ids on one device's cache are
    unrelated to the same ids on another device.
    """
    out: Dict[Tuple[str, object], List[Tuple[int, bool]]] = defaultdict(list)
    for name, _, timeline in timelines:
        for op in timeline.ops:
            for key in op.attrs.get("hb_reads", ()) or ():
                out[(name, key)].append((op.uid, False))
            for key in op.attrs.get("hb_writes", ()) or ():
                out[(name, key)].append((op.uid, True))
    return out


def check_hb_races(
    artifacts: ExecutionArtifacts, spec: Optional[object] = None
) -> List[Violation]:
    """Flag annotated accesses with no ordering path to a conflicting one."""
    ops_by_uid, successors = build_hb_graph(artifacts.timelines)
    domains = {name: domain for name, domain, _ in artifacts.timelines}
    violations: List[Violation] = []
    for (name, key), ops in sorted(
        _accesses(artifacts.timelines).items(), key=lambda kv: str(kv[0])
    ):
        last_write: Optional[int] = None
        reads_since: List[int] = []
        for uid, is_write in sorted(set(ops)):
            if is_write and reads_since:
                earlier = reads_since
            else:
                earlier = [] if last_write is None else [last_write]
            for prev in earlier:
                if prev == uid or _reaches(prev, uid, ops_by_uid, successors):
                    continue
                a, b = ops_by_uid[prev], ops_by_uid[uid]
                violations.append(
                    Violation(
                        check="hb-race",
                        message=(
                            f"{name}: {a.label!r} [{a.start:.6f}, {a.end:.6f}]s "
                            f"({a.resource}/{a.stream}) and {b.label!r} "
                            f"[{b.start:.6f}, {b.end:.6f}]s ({b.resource}/"
                            f"{b.stream}) both touch {key!r} with no "
                            "happens-before path; add a dependency edge or "
                            "serialize them on one stream"
                        ),
                        domain=domains.get(name, "train"),
                        time=min(a.start, b.start),
                        source=name,
                    )
                )
                if len(violations) >= MAX_RACES_REPORTED:
                    violations.append(
                        Violation(
                            check="hb-race",
                            message=(
                                f"stopped after {MAX_RACES_REPORTED} races; "
                                "fix the above and re-run"
                            ),
                            domain=domains.get(name, "train"),
                            time=min(a.start, b.start),
                            source=name,
                        )
                    )
                    return violations
            if is_write:
                last_write, reads_since = uid, []
            else:
                reads_since.append(uid)
    return violations
