"""Outside-in span tracing of the uewpiot layers.

Nothing in ``src/`` is edited. ``install`` replaces module attributes:

* ``cli.lb`` and ``missionsim.lb`` become a copy of ``linkbudget`` whose
  public functions are timed. Only calls that cross into the link budget
  are counted; its internal nested calls run untouched, so tracing adds
  one wrapper per boundary crossing. These leaf calls are counted per
  thread instead of being stored one by one.
* Public planner, missionsim and cli functions are wrapped in place, so
  calls between them through module globals are traced too.
* ``cli.ThreadPoolExecutor`` is replaced by a subclass whose work items
  become ``cli.pool_item`` spans parented to the submitting span.

Spans are kept in memory (name, start, end, parent, thread id) and
written out at the end. A span's self time is its duration minus the part
of it covered by child spans on any thread and by leaf calls on its own
thread.
"""
from __future__ import annotations

import json
import threading
import tracemalloc
import types
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

LAYER_FUNCTIONS = {
    "planner": ("generate_nodes", "compare_strategies", "form_wpc_groups", "plan_tour"),
    "missionsim": ("simulate_mission", "wake_up", "optimize_powering"),
    "cli": ("parse_config", "sweep_eh", "sweep_rate", "plan_and_simulate"),
}
SPAN_NAMES = {"sweep_eh": "sweep", "sweep_rate": "sweep"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "leaf_busy", "info")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.leaf_busy = 0.0  # leaf time on this thread, nested spans included
        self.info = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self.leaves: dict[str, dict[int, list]] = {}  # leaf -> thread -> [calls, busy_s]
        self.reports = []

    def _current(self):
        stack = self._stacks.get(threading.get_ident())
        return stack[-1] if stack else None

    def _leaf_busy(self, thread: int) -> float:
        return sum(cells[thread][1] for cells in self.leaves.values() if thread in cells)

    def wrap(self, name, fn, parent=None, hook=None):
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            span = Span(name, parent or (stack[-1] if stack else None), thread)
            stack.append(span)
            leaf0 = self._leaf_busy(thread)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(span, result)
                return result
            finally:
                span.end = perf_counter()
                span.leaf_busy = self._leaf_busy(thread) - leaf0
                stack.pop()
                self.spans.append(span)

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name, fn):
        cells = self.leaves.setdefault(name, {})
        get_ident = threading.get_ident

        def timed(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)  # a raising call is not counted
            dt = perf_counter() - t0
            try:
                cell = cells[get_ident()]
            except KeyError:
                cell = cells.setdefault(get_ident(), [0, 0.0])
            cell[0] += 1
            cell[1] += dt
            return result

        return timed

    def _peak_mb(self, fn):
        """Record the peak traced memory of ``fn``'s first main-thread call.

        tracemalloc traces every thread and slows every allocation, so it
        runs only around one call made while no pool is active. That call
        sees the full-size field.
        """
        measured_once = False

        def measured(*args, **kwargs):
            nonlocal measured_once
            if measured_once or threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            measured_once = True
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                self._current().info["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
            return result

        return measured

    def install(self, cli, planner, missionsim, linkbudget) -> None:
        proxy = types.ModuleType(linkbudget.__name__)
        for attr, value in vars(linkbudget).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__ == linkbudget.__name__):
                value = self.leaf(f"linkbudget.{attr}", value)
            setattr(proxy, attr, value)
        for module in (cli, missionsim):
            if hasattr(module, "lb"):
                module.lb = proxy

        hooks = {
            "plan_tour": lambda span, tour: span.info.update(points=tour.point_count),
            "form_wpc_groups": lambda span, groups: span.info.update(groups=len(groups)),
            "simulate_mission": lambda span, report: self.reports.append(report),
        }
        modules = {"planner": planner, "missionsim": missionsim, "cli": cli}
        for layer, names in LAYER_FUNCTIONS.items():
            module = modules[layer]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                if attr == "form_wpc_groups":
                    fn = self._peak_mb(fn)
                span_name = f"{layer}.{SPAN_NAMES.get(attr, attr)}"
                setattr(module, attr, self.wrap(span_name, fn, hook=hooks.get(attr)))

        if hasattr(cli, "ThreadPoolExecutor"):
            cli.ThreadPoolExecutor = self._pool_class()

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.wrap("cli.pool_item", fn, tracer._current()),
                                      *args, **kwargs)

        return TracedPool

    def leaf_totals(self) -> dict[str, tuple[int, float]]:
        """Leaf name -> (calls, busy_s) summed over threads."""
        return {
            name: (sum(c[0] for c in cells.values()), sum(c[1] for c in cells.values()))
            for name, cells in self.leaves.items()
        }

    def dump(self, path) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start, "end": span.end,
                    "parent": ids.get(id(span.parent)), "thread": span.thread,
                    "leaf_busy": span.leaf_busy, "info": span.info,
                }) + "\n")
            handle.write(json.dumps({"leaves": self.leaf_totals()}) + "\n")


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy times and self times from the recorded spans."""
    spans = tracer.spans
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    def self_time(span: Span) -> float:
        kids = children.get(id(span), ())
        # leaf_busy includes the leaf time of nested spans on the same thread.
        own_leaf = span.leaf_busy - sum(k.leaf_busy for k in kids if k.thread == span.thread)
        return (span.end - span.start) - own_leaf - _union_length(
            [(k.start, k.end) for k in kids], span.start, span.end)

    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    leaf = tracer.leaf_totals()

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s.end - s.start for s in by_name.get(name, ()))

    def layer_self(prefix):
        return sum(self_time(s) for s in spans if s.name.startswith(prefix))

    def info(name, key):
        return [s.info[key] for s in by_name.get(name, ()) if key in s.info]

    lb_calls = sum(c for c, _ in leaf.values())
    lb_busy = sum(b for _, b in leaf.values())
    eh_calls, eh_busy = leaf.get("linkbudget.achievable_eh_distance_m", (0, 0.0))

    mains = by_name.get("cli.main", [])
    planner_top = [
        (s.start, s.end) for s in spans
        if s.name.startswith("planner.")
        and not (s.parent is not None and s.parent.name.startswith("planner."))
    ]
    main_busy = busy("cli.main")
    planner_cover = sum(_union_length(planner_top, m.start, m.end) for m in mains)

    points = info("planner.plan_tour", "points")
    reports = tracer.reports
    stops = sum(len(r.groups) for r in reports)
    members = sum(g.member_count for r in reports for g in r.groups)
    return {
        "linkbudget.calls": lb_calls,
        "linkbudget.busy_s": lb_busy,
        "linkbudget.us_per_call": 1e6 * lb_busy / lb_calls if lb_calls else 0.0,
        "linkbudget.eh_range.calls": eh_calls,
        "linkbudget.eh_range.busy_s": eh_busy,
        "planner.plan_tour.calls": calls("planner.plan_tour"),
        "planner.plan_tour.busy_s": busy("planner.plan_tour"),
        "planner.plan_tour.points": sum(points),
        "planner.plan_tour.max_points": max(points, default=0),
        "planner.form_wpc_groups.calls": calls("planner.form_wpc_groups"),
        "planner.form_wpc_groups.busy_s": busy("planner.form_wpc_groups"),
        "planner.form_wpc_groups.peak_mb": max(
            info("planner.form_wpc_groups", "peak_mb"), default=0.0),
        "planner.groups": sum(info("planner.form_wpc_groups", "groups")),
        "planner.compare_strategies.calls": calls("planner.compare_strategies"),
        "planner.compare_strategies.busy_s": busy("planner.compare_strategies"),
        "planner.compare_strategies.self_s": sum(
            self_time(s) for s in by_name.get("planner.compare_strategies", ())),
        "planner.generate_nodes.busy_s": busy("planner.generate_nodes"),
        "planner.cover_ratio": planner_cover / main_busy if main_busy else 0.0,
        "missionsim.simulate_mission.busy_s": busy("missionsim.simulate_mission"),
        "missionsim.self_s": layer_self("missionsim."),
        "missionsim.wake_up.calls": calls("missionsim.wake_up"),
        "missionsim.optimize_powering.calls": calls("missionsim.optimize_powering"),
        "missionsim.optimize_powering.busy_s": busy("missionsim.optimize_powering"),
        "missionsim.stops": stops,
        "missionsim.feasible_ratio": (
            sum(g.feasible for r in reports for g in r.groups) / stops if stops else 0.0),
        "missionsim.activated_ratio": (
            sum(g.activated_count for r in reports for g in r.groups) / members
            if members else 0.0),
        "cli.main.busy_s": main_busy,
        "cli.self_s": layer_self("cli."),
        "cli.sweep.busy_s": busy("cli.sweep"),
        "cli.plan_and_simulate.busy_s": busy("cli.plan_and_simulate"),
        "cli.parse_config.busy_s": busy("cli.parse_config"),
        "cli.threads": len({s.thread for s in spans}),
        "sim_mission_time_s": sum(r.mission_time_s for r in reports),
        "sim_uav_energy_j": sum(r.uav_energy_j for r in reports),
    }
