"""Oracle checks for the constant-time simulator host path.

Each piece of the per-op path — the timeline's running totals, the memoized
generic-op costs and the one-pass sigmoid — is compared exactly (``==``, not
``approx``) against the straightforward computation it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gpu.profiler as profiler
from repro.gpu import GPUSpec, KernelCostCollector, Timeline, estimate_event_cost
from repro.gpu.timeline import RESOURCES
from repro.nn import ExecutionContext, SequentialAggregationProvider, build_model
from repro.tensor import Tensor, observe_ops
from repro.tensor.nn.loss import mse_loss
from repro.tensor.ops import Sigmoid

SPEC = GPUSpec()


# ---------------------------------------------------------------------- timeline
def recomputed_makespan(timeline: Timeline) -> float:
    return max((op.end for op in timeline.ops), default=0.0)


def recomputed_kind_seconds(timeline: Timeline):
    totals = {}
    for op in timeline.ops:
        totals[op.kind] = totals.get(op.kind, 0.0) + op.duration
    return totals


durations = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
)
submit_steps = st.tuples(
    st.just("submit"),
    durations,
    st.sampled_from(["kernel", "h2d", "d2h", "cpu"]),
    st.sampled_from(RESOURCES),
    st.sampled_from(["s0", "s1", "s2"]),
    st.lists(st.integers(min_value=0, max_value=1_000), max_size=3),
    st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)),
)
steps = st.lists(st.one_of(submit_steps, st.just(("reset",))), min_size=1, max_size=40)


class TestTimelineTotals:
    @settings(max_examples=60, deadline=None)
    @given(steps)
    def test_totals_equal_recomputation_after_every_step(self, script):
        timeline = Timeline()
        for step in script:
            if step[0] == "reset":
                timeline.reset()
            else:
                _, duration, kind, resource, stream, dep_picks, not_before = step
                ops = timeline.ops
                deps = [ops[i % len(ops)] for i in dep_picks] if ops else None
                timeline.submit(
                    label="op",
                    kind=kind,
                    resource=resource,
                    duration=duration,
                    stream=stream,
                    depends_on=deps,
                    not_before=not_before,
                )
            assert timeline.makespan() == recomputed_makespan(timeline)
            totals = timeline.kind_seconds()
            assert totals == recomputed_kind_seconds(timeline)
            assert list(totals) == list(recomputed_kind_seconds(timeline))

    def test_kind_seconds_returns_a_copy(self):
        timeline = Timeline()
        timeline.submit(label="k", kind="kernel", resource="compute", duration=1.0)
        timeline.kind_seconds()["kernel"] = 99.0
        assert timeline.kind_seconds() == {"kernel": 1.0}

    def test_busy_time_accepts_a_one_shot_iterable(self):
        timeline = Timeline()
        timeline.submit(label="a", kind="kernel", resource="compute", duration=1.0, stream="s1")
        timeline.submit(label="b", kind="h2d", resource="pcie_h2d", duration=2.0, stream="s2")
        c = timeline.submit(label="c", kind="kernel", resource="compute", duration=1.0, stream="s3")
        assert (c.start, c.end) == (1.0, 2.0)
        wanted = ["compute", "pcie_h2d"]
        assert timeline.busy_time(wanted) == 2.0
        assert timeline.busy_time(r for r in wanted) == 2.0


# ---------------------------------------------------------------------- cost memo
def record_frame_events(model_name: str, graph):
    """Every op event of one forward+backward frame of ``model_name``."""
    model = build_model(model_name, graph.feature_dim, 8, seed=0)
    snapshots = graph.snapshots[:4]
    events = []
    with observe_ops(events.append):
        state = model.init_state(graph.num_nodes)
        predictions = []
        for group in (snapshots[:2], snapshots[2:]):
            provider = SequentialAggregationProvider(group, kernel_name="coo", spec=SPEC)
            outs, state = model.forward_partition(
                provider, [Tensor(s.features) for s in group], state, ExecutionContext()
            )
            predictions.extend(outs)
        loss = mse_loss(predictions[-1], Tensor(np.zeros_like(predictions[-1].numpy())))
        loss.backward()
    return events


def reference_cost(event, spec, num_nodes, scale):
    """The collector's per-event cost, estimated afresh without the memo."""
    cost = estimate_event_cost(event, spec)
    if cost is None or event.attrs.get("kernel_cost") is not None:
        return cost
    shapes = tuple(event.input_shapes) + tuple(event.output_shapes)
    if scale != 1.0 and num_nodes > 0 and any(s and s[0] == num_nodes for s in shapes):
        cost = cost.scaled(scale)
    return cost


@pytest.mark.parametrize("model_name", ["tgcn", "evolvegcn", "mpnn_lstm"])
class TestCostMemo:
    def test_memoized_costs_equal_fresh_estimates(self, model_name, small_graph):
        events = record_frame_events(model_name, small_graph)
        assert any(e.attrs.get("kernel_cost") is not None for e in events)
        # Two collectors whose scaled-op sets differ (node rows vs hidden
        # width) share memo keys that differ only in the applied factor.
        for num_nodes, scale in ((small_graph.num_nodes, 40.0), (8, 3.0)):
            collector = KernelCostCollector(SPEC, num_nodes=num_nodes, scale=scale)
            expected = []
            for event in events:
                collector(event)
                cost = reference_cost(event, SPEC, num_nodes, scale)
                if cost is not None:
                    expected.append((event, cost))
            costs = collector.drain()
            assert len(costs) == len(expected)
            for cost, (event, reference) in zip(costs, expected):
                assert cost == reference
                explicit = event.attrs.get("kernel_cost")
                if explicit is not None:
                    assert cost is explicit

    def test_estimator_runs_only_on_a_miss(self, model_name, small_graph, monkeypatch):
        events = record_frame_events(model_name, small_graph)
        calls = []

        def counting(event, spec):
            calls.append(event)
            return estimate_event_cost(event, spec)

        monkeypatch.setattr(profiler, "estimate_event_cost", counting)
        profiler._generic_cost.cache_clear()
        collector = KernelCostCollector(SPEC, num_nodes=small_graph.num_nodes, scale=40.0)
        for event in events:
            collector(event)
        generic = [e for e in events if e.attrs.get("kernel_cost") is None]
        keys = {
            (e.name, e.phase, e.input_shapes, e.output_shapes, e.attrs.get("scope", "other"))
            for e in generic
        }
        assert len(calls) == len(keys) < len(generic)


# ---------------------------------------------------------------------- sigmoid
def masked_split_sigmoid(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    positive = a >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-a[positive]))
    exp_a = np.exp(a[~positive])
    out[~positive] = exp_a / (1.0 + exp_a)
    return out


EDGE_VALUES = [
    0.0, -0.0, 1e-45, -1e-45, 5e-324, -5e-324, 88.7, -88.7, 104.0, -104.0,
    np.inf, -np.inf, 3.4e38, -3.4e38, np.nan, -np.nan,
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_masked_split_bit_for_bit(dtype):
    rng = np.random.default_rng(0)
    with np.errstate(all="ignore"):
        a = np.concatenate([rng.standard_normal(20_000) * 30.0, EDGE_VALUES]).astype(dtype)
        expected = masked_split_sigmoid(a)
        actual = Sigmoid().forward(a)
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    finite = ~np.isnan(expected)
    bits = np.uint32 if dtype == np.float32 else np.uint64
    assert np.array_equal(actual[finite].view(bits), expected[finite].view(bits))
