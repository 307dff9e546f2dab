"""Spans around calls into the library, installed from outside it.

The tracer replaces each traced function by a timing wrapper under every
module attribute that holds it, so a function imported elsewhere under its
own name (`cli.assemble`, `spectrum.Propagator`, ...) is traced too. The
library's own code is unchanged. `Propagator` is replaced by a subclass that
times construction as a factorization and `__call__` as a solve.

A span is [name, start, end, parent index, operation id, count]; spans stay in
memory and are written once by the caller. A span's self time is its duration
minus the time its direct children cover.
"""

import sys
import time

#: (defining module, attribute) of each traced public function
FUNCTIONS = (
    ("twoatom_cbs.basis", "left_multiplication_table"),
    ("twoatom_cbs.liouvillian", "assemble"),
    ("twoatom_cbs.steady_state", "perturbative_steady_state"),
    ("twoatom_cbs.steady_state", "intensities"),
    ("twoatom_cbs.spectrum", "qrt_initial"),
    ("twoatom_cbs.spectrum", "inelastic_spectrum"),
    ("twoatom_cbs.spectrum", "compute_spectrum"),
    ("twoatom_cbs.config_average", "monte_carlo_average"),
    ("twoatom_cbs.config_average", "cbs_cone"),
    ("twoatom_cbs.oracles", "alpha_closed_form"),
    ("twoatom_cbs.cli", "main"),
)
PROPAGATOR = ("twoatom_cbs.steady_state", "Propagator")
FACTOR = "steady_state.Propagator.factor"
SOLVE = "steady_state.Propagator.solve"


def _span_name(module, attr):
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


def _work_count(name, args, kwargs):
    """Work done by one call, read from its arguments: grid points, MC samples."""
    if name == "spectrum.inelastic_spectrum":
        grid = kwargs["nu_grid"] if "nu_grid" in kwargs else args[4]
        return len(grid)
    if name == "config_average.monte_carlo_average":
        model = kwargs["model"] if "model" in kwargs else args[0]
        return int(model.samples)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._patched = []

    def _open(self, name, count=0):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, count])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap_function(self, name, fn):
        def traced(*args, **kwargs):
            index = self._open(name, _work_count(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def _wrap_propagator(self, cls):
        tracer = self

        class TracedPropagator(cls):
            def __init__(self, a, *args, **kwargs):
                index = tracer._open(FACTOR, a.shape[0])
                try:
                    super().__init__(a, *args, **kwargs)
                finally:
                    tracer._close(index)

            def __call__(self, *args, **kwargs):
                index = tracer._open(SOLVE)
                try:
                    return super().__call__(*args, **kwargs)
                finally:
                    tracer._close(index)

        return TracedPropagator

    def _replace_everywhere(self, original, replacement):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "twoatom_cbs" or name.startswith("twoatom_cbs."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patched.append((module, attr, original))

    def install(self):
        """Patch every import site of the traced functions; missing ones are skipped."""
        for module_name, attr in FUNCTIONS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is not None:
                self._replace_everywhere(fn, self._wrap_function(_span_name(module_name, attr), fn))
        cls = getattr(sys.modules.get(PROPAGATOR[0]), PROPAGATOR[1], None)
        if cls is not None:
            self._replace_everywhere(cls, self._wrap_propagator(cls))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def layer_totals(spans):
    """Per span name: calls, total and self seconds, and summed work counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, _, _, count) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += end - start - child_time[i]
        t["count"] += count
    return totals
