"""Per-layer tracing of ginar from outside the package.

``Tracer.install`` replaces the public functions of each ginar module with
timing wrappers, under every name a ginar module resolves them by: the
wrapper of ``ginar.cls.fit_cls`` is also what ``ginar.dispersion_test``
calls, so calls between layers are seen without editing ``src/``. A
function that a later version deletes or merges (``build_regressors``,
say) is listed in ``Tracer.absent`` and its metrics read 0.

Spans are aggregated rather than stored: per function the call count, the
inclusive time and the self time (inclusive time minus the time of the
wrapped calls made inside it), plus every duration of the functions whose
percentiles are reported. Process-pool workers trace into their own tracer
and hand a snapshot back with each task's result; the parent folds the
snapshots in (see ``_traced_pool``).
"""

import functools
import importlib
import inspect
import os
import statistics
import sys
from collections import Counter, defaultdict
from concurrent.futures import Future
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs whose calls are counted and timed.
FUNCTIONS = (
    ("simulate", "sample_path"),
    ("simulate", "read_series"),
    ("simulate", "write_series"),
    ("cls", "build_regressors"),
    ("cls", "fit_cls"),
    ("cls", "estimate_moment_matrices"),
    ("numerics", "invert"),
    ("numerics", "chi_square_quantile"),
    ("numerics", "chi_square_survival"),
    ("dispersion_test", "run_test"),
    ("dispersion_test", "run_subvector_test"),
    ("montecarlo", "replicate_once"),
    ("montecarlo", "run_cell"),
    ("cli", "main"),
)

# Called once per thinning lag and step, so only counted: timing it would
# cost more than the call.
SAMPLE_SUM = ("distributions", "CountDistribution", "sample_sum")

POOL = ("montecarlo", "ProcessPoolExecutor")

TESTS = frozenset({"dispersion_test.run_test", "dispersion_test.run_subvector_test"})

# Failures of a test are counted by exception type; anything else is "other".
FAILURE_TYPES = (
    "InputError",
    "KappaDomainError",
    "SingularMatrixError",
    "EstimationError",
    "TestError",
    "other",
)

LAYERS = ("simulate", "distributions", "cls", "numerics", "dispersion_test", "montecarlo", "cli")

# The tracer installed in this process. A forked pool worker inherits the
# parent's, wrappers included; ``_traced_call`` resets it for each task.
_active = None


class Tracer:
    """Aggregated spans and counts of one process, and the patches that
    collect them."""

    def __init__(self):
        self.absent = []
        self.paused = False
        self.pool_workers = 1
        self._patches = []
        self._pending = []  # worker snapshots, appended by the pool's thread
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.in_test = Counter()  # calls made inside a test span
        self.total = Counter()
        self.samples = defaultdict(list)
        self.events = Counter()
        self._stack = []
        self._test_depth = 0

    @contextmanager
    def pause(self):
        """Call the package untraced, e.g. for correctness checks."""
        self.paused, before = True, self.paused
        try:
            yield
        finally:
            self.paused = before

    # -- installing -------------------------------------------------------

    def install(self):
        global _active
        self.absent = []
        modules = [m for name, m in list(sys.modules.items()) if name == "ginar" or name.startswith("ginar.")]
        for module_name, attr in FUNCTIONS:
            key = f"{module_name}.{attr}"
            original = getattr(_layer(module_name), attr, None)
            if original is None:
                self.absent.append(key)
                continue
            self._patch_everywhere(modules, original, self._wrap(key, original))
        self._install_sample_sum()
        montecarlo = _layer(POOL[0])
        base = getattr(montecarlo, POOL[1], None)
        if base is None:
            self.absent.append(".".join(POOL))
        else:
            self._patch_everywhere(modules, base, _traced_pool(self, base))
        _active = self

    def uninstall(self):
        global _active
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        _active = None

    def _patch_everywhere(self, modules, original, replacement):
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._patches.append((module, name, original))

    def _install_sample_sum(self):
        module_name, base_name, method = SAMPLE_SUM
        module = _layer(module_name)
        base = getattr(module, base_name, None)
        classes = [
            cls
            for cls in vars(module).values()
            if isinstance(cls, type) and base is not None and issubclass(cls, base) and method in cls.__dict__
        ]
        if not classes:
            self.absent.append(f"{module_name}.{method}")
        key = f"{module_name}.{method}"
        for cls in classes:
            original = cls.__dict__[method]
            setattr(cls, method, self._count(key, original))
            self._patches.append((cls, method, original))

    # -- wrappers ---------------------------------------------------------

    def _count(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.paused:
                self.calls[key] += 1
                if self._test_depth:
                    self.in_test[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, key, fn):
        before, after = _BEFORE.get(key), _AFTER.get(key)
        signature = inspect.signature(fn) if before else None
        is_test = key in TESTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.calls[key] += 1
            if self._test_depth:
                self.in_test[key] += 1
            state = before(self, signature, args, kwargs) if before else None
            if is_test:
                self._test_depth += 1
            stack = self._stack
            stack.append(0.0)
            result = error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.total[key] += elapsed
                if is_test:
                    self._test_depth -= 1
                    if not self._test_depth:
                        _record_test(self, result, error, elapsed, elapsed - children)
                if after:
                    after(self, state, result, error, elapsed, elapsed - children)

        return wrapper

    # -- worker snapshots -------------------------------------------------

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "in_test": dict(self.in_test),
            "total": dict(self.total),
            "samples": dict(self.samples),
            "events": dict(self.events),
        }

    def drain(self):
        """Fold in the snapshots workers have returned so far."""
        while self._pending:
            snap = self._pending.pop()
            for name in ("calls", "in_test", "total", "events"):
                getattr(self, name).update(snap[name])
            for key, values in snap["samples"].items():
                self.samples[key].extend(values)


def _layer(name):
    try:
        return importlib.import_module(f"ginar.{name}")
    except ImportError:
        return None


def _traced_call(fn, *args, **kwargs):
    """Run one pool task in a worker and return its result with a snapshot."""
    tracer = _active
    if tracer is None:  # a spawned worker imports ginar afresh
        tracer = Tracer()
        tracer.install()
    tracer.reset()
    result = fn(*args, **kwargs)
    return result, tracer.snapshot()


def _traced_pool(tracer, base):
    """A subclass of the package's pool class that counts start-ups and
    routes every task through ``_traced_call``."""

    class TracedPool(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            if not tracer.paused:
                tracer.calls["montecarlo.pool_startups"] += 1
                tracer.pool_workers = max_workers or os.cpu_count() or 1

        def submit(self, fn, /, *args, **kwargs):
            inner = super().submit(_traced_call, fn, *args, **kwargs)
            outer = Future()

            def relay(done):
                if not outer.set_running_or_notify_cancel():
                    return
                error = None if done.cancelled() else done.exception()
                if done.cancelled() or error is not None:
                    outer.set_exception(error or RuntimeError("pool task cancelled"))
                    return
                result, snap = done.result()
                tracer._pending.append(snap)
                outer.set_result(result)

            inner.add_done_callback(relay)
            return outer

    TracedPool.__name__ = TracedPool.__qualname__ = base.__name__
    return TracedPool


# -- accounting beyond calls and times ----------------------------------------


def _record_test(tracer, result, error, elapsed, self_time):
    """Outcome accounting of one top-level test call."""
    events = tracer.events
    events["dispersion_test.tests"] += 1
    tracer.samples["dispersion_test.test"].append(elapsed)
    events["dispersion_test.self_s"] += self_time
    if error is not None:
        name = type(error).__name__
        events[f"dispersion_test.failed.{name if name in FAILURE_TYPES else 'other'}"] += 1
        return
    events["dispersion_test.rejects" if getattr(result, "reject", False) else "dispersion_test.keeps"] += 1
    if getattr(result, "statistic", 0.0) < 0.0:
        events["dispersion_test.negative_statistic"] += 1
    if getattr(result, "warnings", ()):
        events["dispersion_test.with_warnings"] += 1


def _count_steps(tracer, signature, args, kwargs):
    bound = signature.bind(*args, **kwargs).arguments
    tracer.events["simulate.steps"] += int(bound.get("n", 0)) + int(bound.get("burn_in", 0))


def _replicate_outcome(tracer, state, result, error, elapsed, self_time):
    tracer.samples["montecarlo.replicate_once"].append(elapsed)
    outcome = {True: "rejects", False: "keeps"}.get(result, "failures")
    tracer.events["montecarlo.replications"] += 1
    tracer.events[f"montecarlo.{outcome}"] += 1


def _cell_start(tracer, signature, args, kwargs):
    tracer.drain()
    tracer.pool_workers = 1
    return tracer.total["montecarlo.replicate_once"]


def _cell_overhead(tracer, busy_before, result, error, elapsed, self_time):
    """Pool overhead of a cell: its wall time minus its replication time
    spread over the cell's workers."""
    tracer.drain()
    busy = tracer.total["montecarlo.replicate_once"] - busy_before
    tracer.events["montecarlo.cells"] += 1
    tracer.events["montecarlo.pool_overhead_s"] += elapsed - busy / tracer.pool_workers


def _command_name(tracer, signature, args, kwargs):
    argv = signature.bind(*args, **kwargs).arguments.get("argv") or ()
    return argv[0] if argv else None


def _command_done(tracer, command, result, error, elapsed, self_time):
    """Self time of ``ginar test`` commands: command time minus the wrapped
    calls inside it (read_series and the test)."""
    if error is not None or result != 0:
        tracer.events["cli.nonzero_exits"] += 1
    if command == "test":
        tracer.events["cli.test_commands"] += 1
        tracer.events["cli.test_self_s"] += self_time


# Accounting beyond calls and times. A "before" hook gets the call's bound
# signature and returns state that the "after" hook receives.
_BEFORE = {
    "simulate.sample_path": _count_steps,
    "montecarlo.run_cell": _cell_start,
    "cli.main": _command_name,
}
_AFTER = {
    "montecarlo.replicate_once": _replicate_outcome,
    "montecarlo.run_cell": _cell_overhead,
    "cli.main": _command_done,
}


# -- metrics ------------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def percentile(values, q):
    """The q-th percentile (inclusive method); 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metric_names():
    """Every per-layer metric name with its unit, in report order."""
    names = [
        ("simulate.sample_path_us_per_step", "us"),
        ("simulate.sample_path_share", "fraction"),
        ("simulate.read_series_ms", "ms"),
        ("simulate.write_series_ms", "ms"),
        ("distributions.sample_sum_calls_per_step", "count"),
        ("cls.build_regressors_calls_per_test", "count"),
        ("cls.fit_cls_us", "us"),
        ("cls.estimate_moment_matrices_us", "us"),
        ("numerics.invert_calls_per_test", "count"),
        ("numerics.invert_us", "us"),
        ("numerics.chi_square_quantile_calls_per_test", "count"),
        ("numerics.chi_square_quantile_us", "us"),
        ("numerics.chi_square_survival_us", "us"),
        ("dispersion_test.run_test_us_p50", "us"),
        ("dispersion_test.run_test_us_p99", "us"),
        ("dispersion_test.self_us", "us"),
        ("dispersion_test.tests", "count"),
        ("dispersion_test.rejects", "count"),
        ("dispersion_test.keeps", "count"),
        ("dispersion_test.negative_statistic", "count"),
        ("dispersion_test.with_warnings", "count"),
    ]
    names += [(f"dispersion_test.failed.{name}", "count") for name in FAILURE_TYPES]
    names += [
        ("montecarlo.replicate_us_p50", "us"),
        ("montecarlo.pool_startups", "count"),
        ("montecarlo.pool_overhead_s", "s"),
        ("montecarlo.replications", "count"),
        ("montecarlo.rejects", "count"),
        ("montecarlo.keeps", "count"),
        ("montecarlo.failures", "count"),
        ("cli.self_ms", "ms"),
        ("cli.commands", "count"),
        ("cli.nonzero_exits", "count"),
        ("trace.overhead_s", "s"),
    ]
    names += [(f"{layer}.src_lines", "count") for layer in LAYERS]
    return names


def layer_metrics(tracer, traced_passes, overhead_s, src_dir):
    """Per-layer metrics from a tracer's aggregates; layers not exercised read 0."""
    tracer.drain()
    calls, in_test, total, events = tracer.calls, tracer.in_test, tracer.total, tracer.events
    tests = events["dispersion_test.tests"]
    steps = events["simulate.steps"]
    root = total["montecarlo.replicate_once"] + total["cli.main"]

    def mean(key, scale):
        return _ratio(total[key], calls[key]) * scale

    values = {
        "simulate.sample_path_us_per_step": _ratio(total["simulate.sample_path"], steps) * 1e6,
        "simulate.sample_path_share": _ratio(total["simulate.sample_path"], root),
        "simulate.read_series_ms": mean("simulate.read_series", 1e3),
        "simulate.write_series_ms": mean("simulate.write_series", 1e3),
        "distributions.sample_sum_calls_per_step": _ratio(calls["distributions.sample_sum"], steps),
        "cls.build_regressors_calls_per_test": _ratio(in_test["cls.build_regressors"], tests),
        "cls.fit_cls_us": mean("cls.fit_cls", 1e6),
        "cls.estimate_moment_matrices_us": mean("cls.estimate_moment_matrices", 1e6),
        "numerics.invert_calls_per_test": _ratio(in_test["numerics.invert"], tests),
        "numerics.invert_us": mean("numerics.invert", 1e6),
        "numerics.chi_square_quantile_calls_per_test": _ratio(in_test["numerics.chi_square_quantile"], tests),
        "numerics.chi_square_quantile_us": mean("numerics.chi_square_quantile", 1e6),
        "numerics.chi_square_survival_us": mean("numerics.chi_square_survival", 1e6),
        "dispersion_test.run_test_us_p50": percentile(tracer.samples["dispersion_test.test"], 50) * 1e6,
        "dispersion_test.run_test_us_p99": percentile(tracer.samples["dispersion_test.test"], 99) * 1e6,
        "dispersion_test.self_us": _ratio(events["dispersion_test.self_s"], tests) * 1e6,
        "montecarlo.replicate_us_p50": percentile(tracer.samples["montecarlo.replicate_once"], 50) * 1e6,
        "montecarlo.pool_startups": _ratio(calls["montecarlo.pool_startups"], traced_passes),
        "montecarlo.pool_overhead_s": _ratio(events["montecarlo.pool_overhead_s"], events["montecarlo.cells"]),
        "cli.self_ms": _ratio(events["cli.test_self_s"], events["cli.test_commands"]) * 1e3,
        "cli.commands": calls["cli.main"],
        "trace.overhead_s": overhead_s,
    }
    for name, _ in layer_metric_names():
        if name.endswith(".src_lines"):
            values[name] = _src_lines(src_dir, name.split(".")[0])
        elif name not in values:
            values[name] = events[name]
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in layer_metric_names()}


def _src_lines(src_dir, layer):
    try:
        with open(os.path.join(src_dir, "ginar", f"{layer}.py")) as fh:
            return sum(1 for _ in fh)
    except FileNotFoundError:
        return 0
