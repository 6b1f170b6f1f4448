"""fracsys benchmark: time, CPU and memory per verified solution on four
workloads, and a traced split of that time over the package's layers.

Run from the root of a fracsys source tree:

    python3 perfbench/run.py --workload ref1d --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, seed 0
    python3 perfbench/run.py --smoke                 # tiny sizes, for the tests

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines before it give the same numbers with sample counts, percentiles,
the failure rate and the machine.  See README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402
from tracing import COMPUTED, PER_LAYER_UNITS  # noqa: E402

# Scratch space inside the source tree (listed in .gitignore): one work
# directory per run, removed at the end, and the span files of traced runs.
RUN_DIR = ROOT / ".perfbench_run"

END_TO_END_UNITS = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_LAUNCHES = 11
SETUP_SNIPPET = """\
import sys
import fracsys.cli
if sys.argv[1]:
    from fracsys.config import parse_config
    from fracsys.exponents import classify
    cfg = parse_config(sys.argv[1])
    classify(cfg.params, delta=cfg.delta)
"""

# A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0
# Time kept back from the worker for the setup launches and the report.
RESERVE_S = 25.0


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH", "")]))
    env["FRACSYS_THREADS"] = str(usable_cores())
    return env


# ---------------------------------------------------------------------------
# the machine

def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _filesystem(path: Path) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    best = ("", "unknown")
    for line in _read("/proc/self/mountinfo").splitlines():
        left, _, right = line.partition(" - ")
        fields = left.split()
        if len(fields) < 5 or not right:
            continue
        mount = fields[4]
        if (str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")) \
                and len(mount) >= len(best[0]):
            best = (mount, right.split()[0])
    return f"{best[1]} on {best[0]}"


def machine(work: Path) -> dict:
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.partition(":")[2].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    threads = {k: v for k, v in sorted(os.environ.items())
               if re.search(r"THREAD|^OMP_|^MKL_|^OPENBLAS|^BLIS|^VECLIB|^NUMEXPR", k)}
    threads["FRACSYS_THREADS"] = str(usable_cores())
    return {
        "cpu_model": cpu_model or platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "thread_env": threads,
        "output_filesystem": _filesystem(work),
    }


# ---------------------------------------------------------------------------
# statistics

def timing_summary(samples) -> str:
    """Minimum, median with the sample count, and the highest of
    p75/p90/p95/p99 that still has at least ten samples beyond it."""
    n = len(samples)
    if not n:
        return "no samples"
    ordered = sorted(samples)
    text = f"min {ordered[0]:.6g}, median {statistics.median(ordered):.6g} (n={n})"
    for p in (99, 95, 90, 75):
        rank = math.ceil(p / 100 * n) - 1   # nearest-rank percentile
        if n - rank - 1 >= 10:
            text += f", p{p} {ordered[rank]:.6g}"
            break
    return text


# ---------------------------------------------------------------------------
# one run

class RunError(RuntimeError):
    pass


def _stop(proc: subprocess.Popen):
    """Kill the worker's whole process group (pool workers included) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def measure_setup(config_path: str, launches: int, deadline: float) -> tuple:
    """Wall seconds of each launch, and of the reference work around each."""
    samples, passes = [], []
    env = program_env()
    calibration.measure()
    for _ in range(launches):
        if time.time() > deadline:
            break
        passes.append(calibration.measure()[0])
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET, config_path], cwd=ROOT,
                                env=env, stdout=subprocess.DEVNULL, start_new_session=True)
        # A blocking wait returns at the child's exit; wait(timeout=...) would
        # poll in steps of up to 50 ms and round every sample up to one.
        killer = threading.Timer(max(1.0, deadline - time.time()), os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            code = proc.wait()
        except BaseException:
            _stop(proc)
            raise
        finally:
            killer.cancel()
        samples.append(time.perf_counter() - start)
        if code == -signal.SIGKILL:
            raise RunError("set-up launch timed out")
        if code != 0:
            raise RunError(f"set-up launch exited with code {code}")
    passes.append(calibration.measure()[0])
    return samples, calibration.around(passes)


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    started = time.time()
    work = RUN_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.make(name, seed, smoke=smoke)
        config_path = work / "workload.cfg"
        config_path.write_text(wl.config_text())
        result_path = work / "result.json"
        spans_path = RUN_DIR / f"spans-{name}-seed{seed}.jsonl" if trace else None
        limit = started + RUN_LIMIT_S
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--deadline", str(limit - RESERVE_S), "--work", str(work / "iterations"),
                "--config", str(config_path), "--result", str(result_path)]
        if smoke:
            argv.append("--smoke")
        if spans_path:
            argv += ["--spans", str(spans_path)]
        (work / "iterations").mkdir()
        # the worker's own output goes to stderr so the last stdout line stays ours
        proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(), stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, limit - time.time()))
        except subprocess.TimeoutExpired:
            _stop(proc)
            raise RunError(f"worker did not finish within {RUN_LIMIT_S:.0f} s") from None
        except BaseException:
            _stop(proc)
            raise
        if code != 0 or not result_path.is_file():
            raise RunError(f"worker exited with code {code}")
        result = json.loads(result_path.read_text())
        result["machine"] = machine(work)
        if not trace:
            setup_config = str(config_path) if wl.config else ""
            result["setup_s"], result["setup_calibration_s"] = measure_setup(
                setup_config, 1 if smoke else SETUP_LAUNCHES, limit)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, seed: int, trace: int, result: dict) -> dict:
    """Print the readable report and return the final JSON object."""
    attempted = result["attempted"]
    failed = len(result["failures"])
    print(f"# workload {name}, seed {seed}, trace {trace}")
    print(f"# machine {json.dumps({**result['machine'], **result['versions']})}")
    for k, failures in result["failures"]:
        for check, message in failures.items():
            print(f"# FAILED iteration {k} check {check}: {message.strip()}")
    print(f"# checks per iteration: {', '.join(result['checks'])}")
    if trace:
        metrics = {m: {"value": result["per_layer"][m], "unit": unit}
                   for m, unit in PER_LAYER_UNITS.items()}
        print(f"# traced run_s {timing_summary(result['traced_run_s'])} s; "
              f"untraced run_s {timing_summary(result['run_s'])} s")
        for m, entry in metrics.items():
            note = " (computed)" if m in COMPUTED else ""
            print(f"{m:34s} {entry['value']:.6g} {entry['unit']}{note}")
        if result["unmeasured"]:
            print(f"# not measured (wrap target missing): {', '.join(result['unmeasured'])}")
    else:
        # Each time is divided by the reference work timed next to it, which
        # cancels most of the host's own slowdowns (README.md, "Calibrated
        # times"); the raw times are printed below.
        metrics = {
            "run_s": calibration.calibrated(result["run_s"], result["calibration_s"]),
            "cpu_s": calibration.calibrated(result["cpu_s"], result["calibration_cpu_s"]),
            "setup_s": calibration.calibrated(result["setup_s"],
                                              result["setup_calibration_s"]),
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        }
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in metrics.items()}
        for m in ("run_s", "cpu_s", "setup_s"):
            print(f"{m:14s} {metrics[m]['value']:.6g} s calibrated; raw "
                  f"{timing_summary(result[m])} s")
        for m in ("calibration_s", "calibration_cpu_s", "setup_calibration_s"):
            print(f"{m:19s} {timing_summary(result[m])} s (reference "
                  f"{calibration.REFERENCE_S:g} s)")
        print(f"{'peak_rss_mb':14s} {metrics['peak_rss_mb']['value']:.6g} MB")
    print(f"{'failure_rate':14s} {failed / attempted:.6g} ratio ({failed} of {attempted} "
          "iterations failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# smoke mode: every workload at tiny size, both modes, schema and checks

def smoke() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    if expected[0] != END_TO_END_UNITS or expected[1] != PER_LAYER_UNITS:
        problems.append("BENCHMARK.json metrics differ from the benchmark's own")
    for name in workloads.NAMES:
        for trace in (0, 1):
            result = run_workload(name, 0, 1, trace, smoke=True)
            out = report(name, 0, trace, result)
            print(f"# a damaged output fails: {', '.join(result['damage_detected'])}")
            if not result["damage_detected"]:
                problems.append(f"{name} trace {trace}: damaged output passed every check")
            result_units = {m: e["unit"] for m, e in out["metrics"].items()}
            if result_units != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(result_units)}")
            if not out["correct"] or out["attempted"] < 2:
                problems.append(f"{name} trace {trace}: {out['failed']} of "
                                f"{out['attempted']} iterations failed")
            print(json.dumps(out))
    for line in problems:
        print(f"# SMOKE FAILED: {line}")
    print("# smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(workloads.NAMES)}, or all")
    parser.add_argument("--seed", type=int, default=workloads.NOMINAL_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, all workloads; checks the schema and the checks")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that the worker is killed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "fracsys" / "__init__.py").is_file():
        print(f"error: no fracsys sources at {SRC}; run from a fracsys source tree",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    if any(n not in workloads.NAMES for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, smoke=False)
        except RunError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        out = report(name, args.seed, args.trace, result)
        correct = correct and out["correct"]
        print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
