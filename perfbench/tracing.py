"""Span tracing at the library's module boundaries, applied from outside.

Each boundary ``module.function`` is wrapped by rebinding the name in
every ``blockfade`` module that holds the original function, including
the defining module itself, so calls made inside the library are traced
too. Nothing in the library's source changes. Spans stay in memory as
``(boundary, start, end, parent span, command id)`` tuples and are written
out once, at the end of the run.
"""

import importlib
import sys
from time import perf_counter

BOUNDARIES = (
    "cli.main",
    "fading.discretize_rayleigh",
    "fading.make_distribution",
    "waterfill.solve_waterfill",
    "waterfill.capacity",
    "bounds.dispersion_stats",
    "bounds.nocsit_stats",
    "bounds.dispersion_v_bf",
    "bounds.dispersion_v_bf_prime",
    "bounds.bound_point",
    "specfun.std_normal_inv_cdf",
    "specfun.std_normal_cdf",
    "montecarlo.simulate_st_controller",
    "montecarlo.simulate_information_density",
    "svg.render_line_chart",
)


class Tracer:
    """Wraps every boundary found in ``package``; a missing one is listed in ``absent``."""

    def __init__(self, package: str = "blockfade"):
        self.spans = []
        self.command_id = -1
        self.absent = []
        self._current = -1
        self._sites = []   # (module, attribute, original, wrapper)
        wrappers = {}
        for index, boundary in enumerate(BOUNDARIES):
            module_name, func_name = boundary.split(".")
            try:
                module = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(boundary)
                continue
            wrappers[id(original)] = (original, self._wrap(index, original))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._sites.append((module, attr, value, wrappers[id(value)][1]))

    def _wrap(self, index: int, func):
        spans = self.spans

        def traced(*args, **kwargs):
            parent = self._current
            slot = len(spans)
            spans.append(None)
            self._current = slot
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                self._current = parent
                spans[slot] = (index, start, end, parent, self.command_id)

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def summarize(self) -> dict:
        """Per boundary: call count, total span time and self time, in seconds.

        Self time is a span's duration minus the durations of its child
        spans; calls never overlap in one thread, so the children cover
        exactly that much of the parent's interval.
        """
        covered = [0.0] * len(self.spans)
        calls = [0] * len(BOUNDARIES)
        total = [0.0] * len(BOUNDARIES)
        own = [0.0] * len(BOUNDARIES)
        for index, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for slot, (index, start, end, _, _) in enumerate(self.spans):
            calls[index] += 1
            total[index] += end - start
            own[index] += end - start - covered[slot]
        return {b: {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
                for i, b in enumerate(BOUNDARIES) if b not in self.absent}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("command,boundary,start_s,end_s,parent\n")
            for index, start, end, parent, command in self.spans:
                fh.write(f"{command},{BOUNDARIES[index]},{start:.9f},{end:.9f},{parent}\n")
