"""Run one workload in a process of its own and write the raw measurements.

``run.py`` starts this script with ``src`` on ``PYTHONPATH``; it is not meant
to be called by hand.  After an untimed warm-up iteration it repeats the
workload until the time budget is spent.  Untraced iterations give wall and
CPU time, each next to a pass of the reference work in ``calibration.py``
before and after it; with ``--trace 1`` every other iteration is traced
instead, and the medians of the two kinds give the tracing overhead.  Every iteration,
warm-up included, runs in a fresh output directory and has its outputs
checked; an iteration with any failed check, exception or non-zero exit code
counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration
import workloads
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics


def _cpu_seconds() -> float:
    """User plus system CPU time of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Runner:
    def __init__(self, wl, cli, work: Path, config_path: Path):
        self.wl = wl
        self.cli = cli
        self.work = work
        self.config_path = config_path
        self.count = 0
        self.first_digest = None
        self.attempted = 0
        self.failures = []        # (iteration, {check: message})
        self.checks_run = set()

    def iterate(self, tracer=None, damage=None) -> tuple:
        """One workload iteration; returns (wall_s, cpu_s, failed checks)."""
        k = self.count
        self.count += 1
        out = self.work / f"iter_{k:04d}"
        if out.exists():
            raise RuntimeError(f"{out} exists; iterations need a fresh output directory")
        argv = self.wl.argv(self.config_path, out)
        stdout = io.StringIO()
        code = None
        error = ""
        if tracer is not None:
            tracer.iteration = k
            tracer.install()
        start_cpu = _cpu_seconds()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=3)
        finally:
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - start_cpu
            if tracer is not None:
                tracer.uninstall()
        text = stdout.getvalue()
        if damage is not None:
            text = damage(out, text)
        results = self.wl.check(out, text, code)
        if error:
            results["exception"] = error
        digest = workloads.digest_tree(out) if out.is_dir() else {}
        digest["stdout"] = hashlib.sha256(text.replace(str(out), "<out>").encode()).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        differ = sorted(k for k in digest.keys() | self.first_digest.keys()
                        if digest.get(k) != self.first_digest.get(k))
        results["determinism"] = f"differs from the first iteration: {differ[:5]}" if differ else ""
        shutil.rmtree(out, ignore_errors=True)
        failed = {name: msg for name, msg in results.items() if msg}
        if damage is None:
            self.attempted += 1
            self.checks_run.update(results)
            if failed:
                self.failures.append((k, failed))
        return wall, cpu, failed


def _damage(out: Path, text: str) -> str:
    """Corrupt one output so that the smoke test can see a check fail."""
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    if files:
        with open(files[0], "ab") as fh:
            fh.write(b"\0")
        return text
    return text + "tampered\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--deadline", type=float, required=True,
                        help="wall-clock time (time.time) after which no iteration starts")
    parser.add_argument("--work", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)

    import numpy
    import scipy

    import fracsys.cli as cli

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"fracsys was imported from {cli.__file__}, not from {src}")
    wl = workloads.make(args.workload, args.seed, smoke=args.smoke)
    runner = Runner(wl, cli, Path(args.work), Path(args.config))
    tracer = Tracer() if args.trace else None

    calibration.measure()
    runner.iterate()  # warm-up: imports, caches and lazy set-up
    untraced, traced, layers, passes = [], [], [], []
    budget_start = time.perf_counter()
    last = 0.0
    while True:
        spent = time.perf_counter() - budget_start
        enough = len(untraced) >= 1 and (tracer is None or len(traced) >= 1)
        if enough and (spent + last > args.seconds or time.time() + last > args.deadline):
            break
        use_tracer = tracer is not None and len(traced) < len(untraced)
        if use_tracer:
            tracer.spans = []
        elif tracer is None:
            passes.append(calibration.measure())
        iter_start = time.perf_counter()
        wall, cpu, _ = runner.iterate(tracer if use_tracer else None)
        last = time.perf_counter() - iter_start
        if use_tracer:
            traced.append(wall)
            layers.append(layer_metrics(tracer.spans))
        else:
            untraced.append((wall, cpu))
    if passes:
        passes.append(calibration.measure())

    result = {
        "attempted": runner.attempted,
        "failures": [[k, f] for k, f in runner.failures],
        "checks": sorted(runner.checks_run),
        "run_s": [w for w, _ in untraced],
        "cpu_s": [c for _, c in untraced],
        "calibration_s": calibration.around([w for w, _ in passes]),
        "calibration_cpu_s": calibration.around([c for _, c in passes]),
        "maxrss_kb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        per_layer = {name: statistics.median(m[name] for m in layers)
                     for name in layers[0]}
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(
            result["run_s"])
        result["per_layer"] = {name: per_layer[name] for name in PER_LAYER_UNITS}
        result["traced_run_s"] = traced
        result["unmeasured"] = tracer.missing
        if args.spans:  # the last traced iteration
            with open(args.spans, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s._asdict()) + "\n")
    if args.smoke:
        _, _, failed = runner.iterate(damage=_damage)
        result["damage_detected"] = sorted(failed)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
