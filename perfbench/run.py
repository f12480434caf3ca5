"""k3scan benchmark: each command of a workload as a cold `python -m k3scan.cli`.

Usage (from the repository root):

    python3 perfbench/run.py --workload {series,classify,disc} --seed N \
        --seconds S --trace {0,1}

A single client runs the workload's commands one after another (closed
loop) and repeats the whole list ("a pass") for about --seconds.  Every
command is a fresh interpreter on the checked-out src/, so nothing cached in
one process helps the next.  Every stdout is checked (see workloads.py).
The last line of stdout is one JSON object:

  --trace 0: end-to-end metrics, measured with no tracing.  Times are
             given at a fixed reference speed of the machine, which a
             probe thread measures while each command runs (SpeedProbe).
  --trace 1: per-layer metrics.  Each command runs plain and then through
             trace_child.py, back to back (the order flips every pass).

Lines before it describe the run; a full record goes to
.perfbench_work/result-<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_FIRST = 5  # cold imports before the first pass; two more follow each pass
HARD_LIMIT_S = 150.0  # commands still running then are killed and count as failed
# Speed probe (see "Noise" in README.md): while a child runs, a thread of this
# process on each CPU times probe_work() every PROBE_PERIOD_S.  End-to-end
# times are reported at the reference speed, at which one probe takes
# PROBE_REF_S.
PROBE_PERIOD_S = 0.02
PROBE_REF_S = 0.001
STARTED = time.perf_counter()


@dataclass
class Outcome:
    key: str
    wall_s: float
    cpu_s: float
    stdout: bytes
    slowdown: float = 1.0  # the machine's slowness while the command ran; see SpeedProbe
    error: str | None = None
    layers: dict | None = None  # traced commands only

    @property
    def ref_s(self) -> float:
        """wall_s at the reference machine speed."""
        return self.wall_s / self.slowdown


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def ref_s(self) -> float:
        return sum(o.ref_s for o in self.outcomes)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def probe_work() -> int:
    """A fixed ~1 ms of pure-Python int and Fraction arithmetic and small
    allocations, the kinds of work the program does."""
    acc, q, row, seen = 0, Fraction(0), tuple(range(8)), {}
    for j in range(360):
        acc += sum(a * b for a, b in zip(row, row[j % 8 :] + row[: j % 8])) % 13
        seen[(j, j % 13)] = [j, acc, (j, -j)]
        if j % 6 == 0:
            q += Fraction(j % 7 - 3, j % 11 + 1)
    return acc + len(seen) + q.numerator


class SpeedProbe:
    """Times probe_work() every PROBE_PERIOD_S on each CPU, beside the children.

    The machine's CPU speed drifts by up to ~2x in phases that last from
    seconds to minutes, and a command slows with the probes that run at the
    same time, so dividing its wall time by the slowdown measured during it
    removes most of that drift.  There is one probe thread pinned to each CPU,
    because the CPUs do not always drift together and an unpinned probe runs
    on whichever CPU the command leaves idle.  Each probe keeps its CPU ~5%
    busy, so a command shares its CPU with one of them.
    """

    def __init__(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        self.lanes: list[list[tuple[float, float]]] = [[] for _ in cpus]  # (start, cpu s)
        self._stop = threading.Event()
        self._threads = [threading.Thread(target=self._run, args=(c, lane), daemon=True)
                         for c, lane in zip(cpus, self.lanes)]

    def _run(self, cpu: int, lane: list) -> None:
        os.sched_setaffinity(0, {cpu})  # 0: this thread only
        while not self._stop.wait(PROBE_PERIOD_S):
            t0, cpu0 = time.perf_counter(), time.thread_time()
            probe_work()
            lane.append((t0, time.thread_time() - cpu0))

    def __enter__(self) -> "SpeedProbe":
        for t in self._threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for t in self._threads:
            t.join()

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean over the CPUs of the median probe CPU time from t0 to t1, over
        PROBE_REF_S.  CPU time, so that a probe that waits for its CPU (as
        beside a command) or for the GIL does not read high.  A window too
        short to hold three probes is widened around its middle until it
        holds them."""
        return statistics.mean(self._lane_slowdown(lane, t0, t1) for lane in self.lanes)

    @staticmethod
    def _lane_slowdown(samples, t0: float, t1: float) -> float:
        mid, half = (t0 + t1) / 2, max((t1 - t0) / 2, PROBE_PERIOD_S)
        while True:
            inside = [d for t, d in samples if mid - half <= t <= mid + half]
            if len(inside) >= 3 or half > 10.0:
                return statistics.median(inside) / PROBE_REF_S if inside else 1.0
            half *= 2


PROBE = SpeedProbe()


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def spawn(argv, env) -> tuple[int | None, bytes, bytes, float, float, float]:
    """(exit code or None on timeout, stdout, stderr, wall s, cpu s, slowdown)."""
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - STARTED))
    cpu0 = children_cpu_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the command and any workers it started
        out, err = proc.communicate()
        code = None
    t1 = time.perf_counter()
    return code, out, err, t1 - t0, children_cpu_s() - cpu0, PROBE.slowdown(t0, t1)


def pin_code_under_test(env) -> str:
    """Import k3scan once (this also writes its bytecode) and check where from."""
    expected = (SRC / "k3scan" / "__init__.py").resolve()
    code, out, err, *_ = spawn(
        [sys.executable, "-c", "import k3scan, k3scan.cli; print(k3scan.__file__)"], env
    )
    if code != 0 or Path(out.decode().strip()).resolve() != expected:
        sys.exit(f"k3scan must import from {expected}: {(out or err).decode().strip()}")
    return str(expected)


def measure_setup(env, repeats: int) -> list[tuple[float, float]]:
    """(wall s, slowdown) of cold `import k3scan.cli` processes that do no command work."""
    times = []
    for _ in range(repeats):
        code, _, err, wall, _, slowdown = spawn([sys.executable, "-c", "import k3scan.cli"], env)
        if code != 0:
            sys.exit(f"import k3scan.cli failed: {err.decode().strip()}")
        times.append((wall, slowdown))
    return times


def run_command(cmd: workloads.Command, traced: bool, env) -> Outcome:
    if traced:
        trace_path = WORK / "trace.json"
        argv = [sys.executable, str(HERE / "trace_child.py"), str(trace_path), *cmd.argv]
        trace_path.unlink(missing_ok=True)
    else:
        argv = [sys.executable, "-m", "k3scan.cli", *cmd.argv]
    code, out, err, wall, cpu, slowdown = spawn(argv, env)
    outcome = Outcome(cmd.key, wall, cpu, out, slowdown)
    if code != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        outcome.error = f"exit code {code}: {tail[0]}"
    elif traced:
        try:
            outcome.layers = layer_totals(json.loads(trace_path.read_text()))
        except (OSError, ValueError) as exc:
            outcome.error = f"no trace written: {exc}"
    return outcome


def run_paired_pass(cmds, env, flip: bool) -> list[Pass]:
    """[untraced pass, traced pass], each command run both ways back to back.

    Pairing puts both runs of a command in the same stretch of machine speed,
    so their difference measures the tracing overhead; `flip` runs the
    traced one first, alternately, to cancel any drift.
    """
    untraced, traced = Pass(False), Pass(True)
    for c in cmds:
        for p in (traced, untraced) if flip else (untraced, traced):
            p.outcomes.append(run_command(c, p.traced, env))
    return [untraced, traced]


def check_pass(p: Pass, cmds, digests, reference: dict[str, bytes]) -> None:
    """Record a failure on each outcome whose stdout is wrong.

    `reference` maps command keys to untraced stdout of the same pass; a
    traced command must print the same bytes, and so must each --jobs twin.
    """
    stdout = {o.key: o.stdout for o in p.outcomes}
    for cmd, o in zip(cmds, p.outcomes):
        if o.error is not None:
            continue
        try:
            workloads.check_output(cmd, o.stdout, digests)
        except (ValueError, KeyError, TypeError) as exc:
            o.error = f"wrong output: {exc}"
            continue
        twin = workloads.JOBS_TWINS.get(cmd.argv)
        if twin is not None and stdout.get(" ".join(twin)) != o.stdout:
            o.error = "stdout differs from its --jobs 1 twin"
        elif p.traced and reference.get(o.key) != o.stdout:
            o.error = "traced stdout differs from untraced stdout"


# --- per-layer aggregation ---------------------------------------------------


def layer_totals(trace: dict) -> dict:
    """Per span name: inclusive seconds, self seconds, calls; plus counters."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _), inner in zip(spans, child_s):
        t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += end - start
        t["self_s"] += end - start - inner
        t["calls"] += 1
    return {
        "spans": totals,
        "counters": trace["counters"],
        "import_s": trace["import_s"],
        "absent": trace["absent"],
    }


# (metric, unit, kind, span name, field); kind "span" reads totals, "count" counters.
LAYER_METRICS = (
    ("enumeration.s", "s", "span", "enumeration", "s"),
    ("enumeration.calls", "count", "span", "enumeration", "calls"),
    ("enumeration.classes", "count", "count", "enumeration", "classes"),
    ("enumeration.lifts_tried", "count", "count", "enumeration", "lifts_tried"),
    ("enumeration.lifts_discarded", "count", "count", "enumeration", "lifts_discarded"),
    ("cone.is_nef.s", "s", "span", "cone.is_nef", "s"),
    ("cone.is_nef.calls", "count", "span", "cone.is_nef", "calls"),
    ("series.self_s", "s", "span", "series", "self_s"),
    ("cone.vinberg_sieve.s", "s", "span", "cone.vinberg_sieve", "s"),
    ("cone.chamber_vertices.s", "s", "span", "cone.chamber_vertices", "s"),
    ("classify.search.self_s", "s", "span", "classify.search", "self_s"),
    ("classify.solutions", "count", "count", "classify.search", "solutions"),
    ("classify.identify_type.s", "s", "span", "classify.identify_type", "s"),
    ("classify.identify_type.calls", "count", "span", "classify.identify_type", "calls"),
    ("isometry.isometry_small.s", "s", "span", "isometry.isometry_small", "s"),
    ("isometry.isometry_small.calls", "count", "span", "isometry.isometry_small", "calls"),
    ("lattice.isotropic_elements.s", "s", "span", "lattice.isotropic_elements", "s"),
    ("lattice.isotropic_elements.elements_scanned", "count", "count",
     "lattice.isotropic_elements", "elements_scanned"),
    ("lattice.isotropic_elements.found", "count", "count", "lattice.isotropic_elements", "found"),
    ("lattice.discriminant_group.s", "s", "span", "lattice.discriminant_group", "s"),
    ("lattice.overlattice_from_isotropic.s", "s", "span",
     "lattice.overlattice_from_isotropic", "s"),
)
# (metric, (span name, counter), denominator metric): useful outcomes per attempt.
RATIOS = (
    ("enumeration.lift_yield", ("enumeration", "classes"), "enumeration.lifts_tried"),
    ("cone.is_nef.pass_ratio", ("cone.is_nef", "passed"), "cone.is_nef.calls"),
    ("classify.identify_type.identified_ratio", ("classify.identify_type", "found"),
     "classify.identify_type.calls"),
    ("isometry.isometry_small.found_ratio", ("isometry.isometry_small", "found"),
     "isometry.isometry_small.calls"),
)


def pass_layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its commands."""
    m: dict[str, float] = {name: 0.0 for name, *_ in LAYER_METRICS}
    raw: dict[tuple[str, str], float] = {}
    m["import.s"] = 0.0
    for o in p.outcomes:
        if o.layers is None:
            continue
        m["import.s"] += o.layers["import_s"]
        for name, _, kind, span, key in LAYER_METRICS:
            source = o.layers["spans"] if kind == "span" else o.layers["counters"]
            m[name] += source.get(span, {}).get(key, 0)
        for span, counts in o.layers["counters"].items():
            for key, n in counts.items():
                raw[(span, key)] = raw.get((span, key), 0) + n
    for name, num, den in RATIOS:
        m[name] = raw.get(num, 0) / m[den] if m[den] else 0.0
    return m


def per_layer_metrics(passes: list[Pass], absent: set[str]) -> dict[str, float]:
    traced = [pass_layer_metrics(p) for p in passes if p.traced]
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
    untraced = [p for p in passes if not p.traced]
    out["process.cpu_s"] = statistics.median(sum(o.cpu_s for o in p.outcomes) for p in untraced)
    out["trace.overhead_s"] = statistics.median(
        t.ref_s - u.ref_s for u, t in zip(passes[0::2], passes[1::2])
    )
    out["trace.absent"] = float(len(absent))
    return out


def layer_units() -> dict[str, str]:
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    units.update({name: "ratio" for name, *_ in RATIOS})
    units.update({"import.s": "s", "process.cpu_s": "s", "trace.overhead_s": "s",
                  "trace.absent": "count"})
    return units


# --- main --------------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "k3scan" / "cli.py").is_file():
        sys.exit(f"no k3scan sources under {SRC}")
    WORK.mkdir(exist_ok=True)
    env = child_env()
    pinned = pin_code_under_test(env)
    setup_times = measure_setup(env, SETUP_FIRST)
    digests = workloads.load_digests()
    cmds = workloads.build(args.workload, args.seed, WORK, ROOT)

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        if args.trace:
            new = run_paired_pass(cmds, env, flip=len(passes) % 4 == 2)
        else:
            new = [Pass(False, [run_command(c, False, env) for c in cmds])]
        reference = {o.key: o.stdout for o in new[0].outcomes}
        for p in new:
            check_pass(p, cmds, digests, reference)
        passes += new
        # Spread the set-up samples over the run rather than one stretch of it.
        setup_times += measure_setup(env, 2)
        # Stop when the next pass would end nearer after --seconds than before it.
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 > args.seconds:
            break

    outcomes = [o for p in passes for o in p.outcomes]
    failures = [o for o in outcomes if o.error is not None]
    untraced = [p for p in passes if not p.traced]
    absent = {a for o in outcomes if o.layers for a in o.layers["absent"]}
    env_info = machine()
    n_cmds, n_passes = len(cmds), len(untraced)
    print(f"k3scan benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"code under test   {pinned}")
    print(f"machine           nproc={env_info['nproc']} python={env_info['python']} "
          f"cpu={env_info['cpu']}")
    print(f"fail_ratio        {len(failures)}/{len(outcomes)} = "
          f"{len(failures) / len(outcomes):.4f}")
    for o in failures:
        print(f"FAILED            {o.key}: {o.error}", file=sys.stderr)

    if args.trace:
        values = per_layer_metrics(passes, absent)
        units = layer_units()
        n_traced = len(passes) - n_passes
        print(f"per-layer metrics: medians over {n_traced} traced passes of {n_cmds} commands; "
              f"process.cpu_s over the {n_passes} untraced passes; trace.overhead_s over "
              f"the {n_traced} traced-minus-untraced pass pairs")
        if absent:
            print(f"absent names      {', '.join(sorted(absent))}")
    else:
        # Times at the reference speed (see SpeedProbe).  Means over passes,
        # not medians: with 3-12 passes a median jumps between speed phases
        # where the mean (total time / passes) averages over them.
        values = {
            "wall_s": statistics.mean(p.ref_s for p in untraced),
            "cmd_max_s": max(
                statistics.mean(p.outcomes[i].ref_s for p in untraced) for i in range(n_cmds)
            ),
            "setup_s": statistics.median(wall / slow for wall, slow in setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
        units = {"wall_s": "s", "cmd_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        slowdown = statistics.mean(o.slowdown for p in untraced for o in p.outcomes)
        print(f"wall_s: mean over {n_passes} passes of {n_cmds} commands; cmd_max_s: "
              f"slowest of the {n_cmds} per-command means over {n_passes} passes")
        print(f"setup_s: median of {len(setup_times)} cold imports; peak_rss_mb: max over "
              f"all {len(outcomes) + len(setup_times) + 1} child processes")
        print(f"times below are at the reference speed ({PROBE_REF_S * 1000:g} ms per "
              f"probe); measured: wall_s "
              f"{statistics.mean(p.wall_s for p in untraced):.4f} s at a mean slowdown "
              f"of {slowdown:.3f}")
    for name, value in values.items():
        print(f"  {name:<44} {value:>14.6f} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record = {
        "args": vars(args),
        "code_under_test": pinned,
        "machine": env_info,
        "setup_s": setup_times,
        "passes": [
            {"traced": p.traced,
             "commands": [{"key": o.key, "wall_s": o.wall_s, "cpu_s": o.cpu_s,
                           "slowdown": o.slowdown, "error": o.error} for o in p.outcomes]}
            for p in passes
        ],
        "result": result,
    }
    out = WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    with PROBE:
        sys.exit(main())
