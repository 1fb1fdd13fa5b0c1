"""The span recorder: nesting, self time, instance-attribute wrapping."""

from __future__ import annotations

import json
import time

from tracing import Tracer, WorkloadProxy


class _Layer:
    def __init__(self, inner=None):
        self.inner = inner

    def work(self, seconds: float) -> str:
        if self.inner is not None:
            self.inner.work(seconds)
        time.sleep(seconds)
        return "done"


def test_self_times_partition_the_operation(tmp_path):
    tracer = Tracer()
    inner = _Layer()
    outer = _Layer(inner)
    tracer.wrap(inner, "work", "inner")
    tracer.wrap(outer, "work", "outer")
    with tracer.operation("op", "root"):
        assert outer.work(0.002) == "done"
        with tracer.span("call-site"):
            time.sleep(0.001)

    names = [span[0] for span in tracer.spans]
    assert names == ["root", "outer", "inner", "call-site"]
    parents = {span[0]: span[3] for span in tracer.spans}
    assert parents == {"root": -1, "outer": 0, "inner": 1, "call-site": 0}
    totals = tracer.self_times()
    assert set(totals) == {(0, "root"), (0, "outer"), (0, "inner"), (0, "call-site")}
    assert all(seconds >= 0 for seconds, _ in totals.values())
    root_start, root_end = tracer.spans[0][1:3]
    assert abs(sum(s for s, _ in totals.values()) - (root_end - root_start)) < 1e-12
    assert totals[(0, "inner")][0] >= 0.002

    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    header, *spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert header == {"ops": ["op"]}
    assert [s["name"] for s in spans] == names
    assert set(spans[0]) == {"name", "start", "end", "parent", "op"}


def test_wrapping_shadows_only_the_instance():
    tracer = Tracer()
    wrapped, plain = _Layer(), _Layer()
    tracer.wrap(wrapped, "work", "layer")
    assert "work" in vars(wrapped) and "work" not in vars(plain)
    plain.work(0.0)
    assert tracer.spans == []


def test_workload_proxy_times_rate_and_forwards_the_rest():
    class Workload:
        name = "x264"

        def rate(self, value):
            return value * 2

    tracer = Tracer()
    proxy = WorkloadProxy(Workload(), tracer, "platform.workload")
    assert proxy.rate(2) == 4
    assert proxy.name == "x264"
    assert [span[0] for span in tracer.spans] == ["platform.workload"]
