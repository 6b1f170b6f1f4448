"""Span tracing around the fracsys layers, installed only for traced iterations.

Each wrapper records a span (name, start, end, parent span, iteration id,
and an optional value such as a count or a byte total) in memory.  The
wrappers sit at the public entry points of each module, at the helpers that
``solver.solve`` and ``solver.step`` look up by name, and at every real and
complex FFT entry point of ``numpy.fft`` and ``scipy.fft``.  A function that
other fracsys modules imported by name is replaced under every name it is
bound to, so the caller's lookup finds the wrapper.

Sweep points run in forked pool workers, which inherit the wrappers.  A
worker returns its spans inside the sweep row it already sends back, and the
traced pool class takes them out again in the coordinator.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict, namedtuple
from concurrent.futures import ProcessPoolExecutor

Span = namedtuple("Span", "pid id parent name start end iteration value")

SPANS_KEY = "_perfbench_spans"

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                 "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _step_iterations(args, kwargs, result):
    return result[1].iterations


def _clamped(args, kwargs, result):
    return result[1]


# (span name, module, attribute, value recorded from (args, kwargs, result))
TARGETS = (
    ("solver.solve", "fracsys.solver", "solve", None),
    ("solver.step", "fracsys.solver", "step", _step_iterations),
    ("solver.multiplier", "fracsys.solver", "_Plan.multiplier", None),
    ("solver.clamp", "fracsys.solver", "_clamp", _clamped),
    ("solver.grid_norms", "fracsys.solver", "_grid_norms", None),
    ("solver.make_initial_data", "fracsys.solver", "make_initial_data", None),
    ("solver.write_snapshot", "fracsys.solver", "write_snapshot", _file_size),
    ("solver.norms_write_csv", "fracsys.solver", "NormSeries.write_csv", None),
    ("kernels.eval_density_grid", "fracsys.kernels", "eval_density_grid", None),
    ("kernels.density_profile", "fracsys.kernels", "density_profile", None),
    ("kernels.lp_norm", "fracsys.kernels", "lp_norm", None),
    ("kernels.semigroup_residual", "fracsys.kernels", "semigroup_residual", None),
    ("exponents.classify", "fracsys.exponents", "classify", None),
    ("verify.decay_report", "fracsys.verify", "decay_report", None),
    ("verify.linf_bound_check", "fracsys.verify", "linf_bound_check", None),
    ("verify.selfsimilar_envelope_check", "fracsys.verify", "selfsimilar_envelope_check", None),
    ("config.parse_config", "fracsys.config", "parse_config", None),
    ("config.sha256_file", "fracsys.config", "sha256_file", _file_size),
    ("config.write_manifest", "fracsys.config", "write_manifest", None),
    ("cli.run_experiment", "fracsys.cli", "run_experiment", None),
)


def _transform_cost(real_forward: bool, real: bool):
    """Computed (bytes, flops) of one transform: input plus output bytes, and
    the standard c * N * log2(N) count over all N real-space points (c = 2.5
    for real transforms, 5 for complex ones), which is exact in form for the
    full n-D transforms fracsys calls."""
    coeff = 2.5 if real else 5.0

    def value(args, kwargs, result):
        data = args[0]
        points = data.size if real_forward else result.size
        flops = coeff * points * math.log2(points) if points > 1 else 0.0
        return (data.nbytes + result.nbytes, flops)

    return value


class Tracer:
    """In-memory span recorder; ``install`` and ``uninstall`` swap wrappers in
    and out, so untraced iterations run the program untouched."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.iteration = -1
        self.missing = []          # targets that could not be found
        self._next_id = 0
        self._in_transform = False
        self._patches = []         # (owner, attribute, original)

    # -- recording -------------------------------------------------------

    def _record(self, sid, parent, name, start, end, value):
        self.spans.append(Span(os.getpid(), sid, parent, name, start, end, self.iteration, value))

    def wrap(self, name, fn, value=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            tracer.stack.append(sid)
            result = None
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer._record(sid, parent, name, start, end,
                               value(args, kwargs, result) if ok and value else None)

        return wrapper

    def wrap_transform(self, name, fn, value):
        traced = self.wrap(name, fn, value)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # a library transform that calls another public transform is one call
            if tracer._in_transform:
                return fn(*args, **kwargs)
            tracer._in_transform = True
            try:
                return traced(*args, **kwargs)
            finally:
                tracer._in_transform = False

        return wrapper

    def wrap_sweep_point(self, fn):
        traced = self.wrap("cli.sweep_point", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(task):
            if os.getpid() == tracer.pid:
                return traced(task)
            # forked pool worker: keep only this point's spans and ship them home
            tracer.spans = []
            tracer.stack = []
            row = traced(task)
            if isinstance(row, dict):
                row[SPANS_KEY] = [tuple(s) for s in tracer.spans]
            return row

        return wrapper

    def harvest(self, row):
        """Move spans a pool worker attached to a sweep row into this tracer."""
        if isinstance(row, dict) and SPANS_KEY in row:
            self.spans.extend(Span(*s) for s in row.pop(SPANS_KEY))
        return row

    def pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Records the pool's wall time and worker count as a span."""

            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._trace_parent = tracer.stack[-1] if tracer.stack else None
                self._trace_id = tracer._next_id
                tracer._next_id += 1
                self._trace_start = time.perf_counter()
                self._trace_open = True

            def map(self, fn, *iterables, **kwargs):
                results = super().map(fn, *iterables, **kwargs)
                return (tracer.harvest(r) for r in results)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._trace_open:
                    self._trace_open = False
                    tracer._record(self._trace_id, self._trace_parent, "cli.sweep_pool",
                                   self._trace_start, time.perf_counter(), self._max_workers)

        return TracedPool

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def _patch_everywhere(self, original, wrapper):
        """Rebind every fracsys module-level name bound to ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fracsys" or mod_name.startswith("fracsys.")):
                continue
            for attribute, bound in list(vars(module).items()):
                if bound is original:
                    self._patch(module, attribute, wrapper)

    def install(self):
        self.missing = []
        for name, mod_name, attribute, value in TARGETS:
            module = importlib.import_module(mod_name)
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method or attribute, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attribute}")
                continue
            if owner_name:
                self._patch(owner, method, self.wrap(name, original, value))
            else:
                self._patch_everywhere(original, self.wrap(name, original, value))
        cli = importlib.import_module("fracsys.cli")
        if hasattr(cli, "sweep_point"):
            self._patch_everywhere(cli.sweep_point, self.wrap_sweep_point(cli.sweep_point))
        else:
            self.missing.append("fracsys.cli.sweep_point")
        if getattr(cli, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            self._patch(cli, "ProcessPoolExecutor", self.pool_class(ProcessPoolExecutor))
        else:
            self.missing.append("fracsys.cli.ProcessPoolExecutor")
        for lib in FFT_MODULES:
            module = importlib.import_module(lib)
            for fn_name in FFT_FUNCTIONS:
                fn = getattr(module, fn_name, None)
                if fn is None:
                    continue
                real = fn_name.startswith(("rfft", "irfft", "hfft", "ihfft"))
                real_forward = fn_name.startswith(("rfft", "ihfft"))
                self._patch(module, fn_name, self.wrap_transform(
                    f"transform.{lib}.{fn_name}", fn, _transform_cost(real_forward, real)))
        self.missing = sorted(set(self.missing))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# per-layer metrics from one iteration's spans

# name -> unit; the order is the report order
PER_LAYER_UNITS = {
    "solver.solve_s": "s",
    "solver.step_s": "s",
    "solver.step_self_s": "s",
    "solver.steps": "count",
    "solver.picard_iters": "count",
    "solver.transform_calls": "count",
    "solver.transform_s": "s",
    "solver.transforms_per_iter": "count/iter",
    "solver.transform_bytes_computed": "bytes",
    "solver.transform_flops_computed": "flop",
    "solver.multiplier_calls": "count",
    "solver.multiplier_s": "s",
    "solver.clamp_s": "s",
    "solver.clamped_values": "count",
    "solver.norms_s": "s",
    "solver.init_s": "s",
    "solver.snapshot_write_s": "s",
    "solver.snapshot_bytes": "bytes",
    "solver.norms_csv_s": "s",
    "kernels.eval_density_grid_calls": "count",
    "kernels.eval_density_grid_s": "s",
    "kernels.density_profile_calls": "count",
    "kernels.density_profile_s": "s",
    "kernels.lp_norm_s": "s",
    "kernels.semigroup_residual_s": "s",
    "exponents.classify_calls": "count",
    "exponents.classify_s": "s",
    "verify.decay_s": "s",
    "verify.linf_s": "s",
    "verify.envelope_s": "s",
    "config.parse_s": "s",
    "config.sha256_s": "s",
    "config.sha256_bytes": "bytes",
    "config.manifest_s": "s",
    "cli.run_experiment_self_s": "s",
    "cli.sweep_points": "count",
    "cli.sweep_dynamics_share": "ratio",
    "cli.sweep_pool_wall_s": "s",
    "cli.sweep_point_s": "s",
    "cli.sweep_worker_busy_share": "ratio",
    "trace.overhead_s": "s",
}

# Computed from array sizes rather than measured; see README.md.
COMPUTED = ("solver.transform_bytes_computed", "solver.transform_flops_computed")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one iteration (all but trace.overhead_s)."""
    index = {(s.pid, s.id): s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[(s.pid, s.parent)] += s.end - s.start
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def has_ancestor(span, name):
        parent = index.get((span.pid, span.parent))
        while parent is not None:
            if parent.name == name:
                return True
            parent = index.get((parent.pid, parent.parent))
        return False

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_time(name):
        return sum(s.end - s.start - covered[(s.pid, s.id)] for s in by_name[name])

    def count(name):
        return len(by_name[name])

    def value_sum(name):
        return sum(s.value for s in by_name[name] if s.value is not None)

    transforms = [s for name, group in by_name.items() if name.startswith("transform.")
                  for s in group if has_ancestor(s, "solver.step")]
    iters = value_sum("solver.step")
    points = count("cli.sweep_point")
    dynamics = sum(1 for s in by_name["cli.run_experiment"] if has_ancestor(s, "cli.sweep_point"))
    pool_capacity = sum((s.end - s.start) * s.value for s in by_name["cli.sweep_pool"])
    return {
        "solver.solve_s": total("solver.solve"),
        "solver.step_s": total("solver.step"),
        "solver.step_self_s": self_time("solver.step"),
        "solver.steps": count("solver.step"),
        "solver.picard_iters": iters,
        "solver.transform_calls": len(transforms),
        "solver.transform_s": sum(s.end - s.start for s in transforms),
        "solver.transforms_per_iter": len(transforms) / iters if iters else 0.0,
        "solver.transform_bytes_computed": sum(s.value[0] for s in transforms),
        "solver.transform_flops_computed": sum(s.value[1] for s in transforms),
        "solver.multiplier_calls": count("solver.multiplier"),
        "solver.multiplier_s": total("solver.multiplier"),
        "solver.clamp_s": total("solver.clamp"),
        "solver.clamped_values": value_sum("solver.clamp"),
        "solver.norms_s": total("solver.grid_norms"),
        "solver.init_s": total("solver.make_initial_data"),
        "solver.snapshot_write_s": total("solver.write_snapshot"),
        "solver.snapshot_bytes": value_sum("solver.write_snapshot"),
        "solver.norms_csv_s": total("solver.norms_write_csv"),
        "kernels.eval_density_grid_calls": count("kernels.eval_density_grid"),
        "kernels.eval_density_grid_s": total("kernels.eval_density_grid"),
        "kernels.density_profile_calls": count("kernels.density_profile"),
        "kernels.density_profile_s": total("kernels.density_profile"),
        "kernels.lp_norm_s": total("kernels.lp_norm"),
        "kernels.semigroup_residual_s": total("kernels.semigroup_residual"),
        "exponents.classify_calls": count("exponents.classify"),
        "exponents.classify_s": total("exponents.classify"),
        "verify.decay_s": total("verify.decay_report"),
        "verify.linf_s": total("verify.linf_bound_check"),
        "verify.envelope_s": total("verify.selfsimilar_envelope_check"),
        "config.parse_s": total("config.parse_config"),
        "config.sha256_s": total("config.sha256_file"),
        "config.sha256_bytes": value_sum("config.sha256_file"),
        "config.manifest_s": total("config.write_manifest"),
        "cli.run_experiment_self_s": self_time("cli.run_experiment"),
        "cli.sweep_points": points,
        "cli.sweep_dynamics_share": dynamics / points if points else 0.0,
        "cli.sweep_pool_wall_s": total("cli.sweep_pool"),
        "cli.sweep_point_s": total("cli.sweep_point"),
        "cli.sweep_worker_busy_share":
            total("cli.sweep_point") / pool_capacity if pool_capacity else 0.0,
    }
