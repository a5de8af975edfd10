"""In-memory span recorder that times calls into harvestcell from outside.

Each traced public function is replaced, under the name its caller looks
it up by, with a wrapper that records one span per call: name, parent
span, start and end (thread CPU time, ns), an optional count taken from the
argument shapes, and the exception type if the call raised. Nothing in
harvestcell is edited; `Recorder.installed()` puts the originals back on
exit, so untraced reference runs execute the unmodified functions.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import time

import numpy as np

# one span: (name, parent index or -1, start ns, end ns, count or None, error or None)
NAME, PARENT, START, END, COUNT, ERROR = range(6)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def count_configs(args, kwargs):
    """Configurations in a link_points_batch call: the batch size."""
    return np.shape(_arg(args, kwargs, 1, "qs"))[0]


def count_point_pairs(args, kwargs):
    """(pairs, broad-phase segments, narrow-phase segments) of one
    segment_point_distance call.

    The planner's broad phase passes one point (the scene's bounding-sphere
    center) against a (B, S, 3) segment batch; its narrow phase passes the
    K surviving segments as (K, 1, 3) against all sphere centers.
    """
    seg = np.shape(_arg(args, kwargs, 0, "seg_a"))
    point = np.shape(_arg(args, kwargs, 2, "point"))
    pairs = math.prod(np.broadcast_shapes(seg[:-1], point[:-1]))
    broad = math.prod(seg[:-1]) if len(point) == 1 else 0
    narrow = seg[0] if len(seg) == 3 and seg[1] == 1 else 0
    return pairs, broad, narrow


def count_segment_pairs(args, kwargs):
    """(pairs, 0, narrow-phase segments) of one segment_segment_distance call."""
    seg = np.shape(_arg(args, kwargs, 0, "p1"))
    other = np.shape(_arg(args, kwargs, 2, "p2"))
    pairs = math.prod(np.broadcast_shapes(seg[:-1], other[:-1]))
    narrow = seg[0] if len(seg) == 3 and seg[1] == 1 else 0
    return pairs, 0, narrow


def count_trials(args, kwargs):
    return int(_arg(args, kwargs, 5, "trials"))


def traced_functions(hc):
    """(module, attribute, span name, counter) for every traced call site.

    A function is patched in each module that looks it up at call time:
    `harvest` imported plan_trajectory and solve_ik_point by name, the
    planner imported link_points_batch and the distance kernels by name,
    and the benchmark itself calls through the module attributes.
    """
    return [
        (hc.config, "load_default_config", "config.load_default_config", None),
        (hc.perception, "load_detections", "perception.load_detections", None),
        (hc.perception, "load_depth_frame", "perception.load_depth_frame", None),
        (hc.perception, "select_target", "perception.select_target", None),
        (hc.harvest, "calibrate_noise", "harvest.calibrate_noise", None),
        (hc.harvest, "plan_cycle", "harvest.plan_cycle", None),
        (hc.harvest, "monte_carlo", "harvest.monte_carlo", count_trials),
        (hc.harvest, "run_pick_cycle", "harvest.run_pick_cycle", None),
        (hc.harvest, "plan_trajectory", "planner.plan_trajectory", None),
        (hc.harvest, "solve_ik_point", "arm.solve_ik_point", None),
        (hc.arm, "solve_ik_point", "arm.solve_ik_point", None),
        (hc.arm, "inverse_kinematics", "arm.inverse_kinematics", None),
        (hc.mechanism, "torque_single_finger", "mechanism.torque_single_finger",
         None),
        (hc.planner, "link_points_batch", "arm.link_points_batch",
         count_configs),
        (hc.planner, "segment_point_distance", "geometry.segment_point_distance",
         count_point_pairs),
        (hc.planner, "segment_segment_distance",
         "geometry.segment_segment_distance", count_segment_pairs),
    ]


class Recorder:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: list = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans = self.spans
        stack = self._stack
        clock = time.thread_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                count = counter(args, kwargs) if counter else None
                spans[index] = (name, parent, start, end, count, error)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _, _ in self.targets]
        try:
            for module, attr, name, counter in self.targets:
                setattr(module, attr,
                        self._wrap(name, getattr(module, attr), counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (set-up phases, ops)."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.thread_time_ns()
        try:
            yield index
        finally:
            end = time.thread_time_ns()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end, None, None)

    def write_jsonl(self, fh) -> None:
        """One JSON array per line, after a header line naming the fields;
        a span's id is its line number after the header, starting at 0."""
        fh.write(json.dumps(["name", "parent", "start_ns", "end_ns", "count",
                             "error"]) + "\n")
        for span in self.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class SpanTree:
    """Read-only queries over recorded spans (durations in ns)."""

    def __init__(self, spans):
        self.spans = spans
        self.children: list[list[int]] = [[] for _ in spans]
        self._by_name: dict[str, list[int]] = {}
        for index, span in enumerate(spans):
            if span[PARENT] >= 0:
                self.children[span[PARENT]].append(index)
            self._by_name.setdefault(span[NAME], []).append(index)

    def named(self, name) -> list[int]:
        return self._by_name.get(name, [])

    def duration(self, index) -> int:
        span = self.spans[index]
        return span[END] - span[START]

    def self_time(self, index, names=None) -> int:
        """Duration minus the time covered by child spans (only children
        whose name is in `names`, when given)."""
        covered = sum(self.duration(c) for c in self.children[index]
                      if names is None or self.spans[c][NAME] in names)
        return self.duration(index) - covered

    def descendants(self, index):
        pending = list(self.children[index])
        while pending:
            child = pending.pop()
            yield child
            pending.extend(self.children[child])

    def within(self, roots, name) -> list[int]:
        """Spans called `name` anywhere below any of `roots`."""
        return [d for r in roots for d in self.descendants(r)
                if self.spans[d][NAME] == name]
