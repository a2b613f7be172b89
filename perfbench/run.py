"""Benchmark of the ruledsurf command-line tool.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout: the CLI is `python3 -m ruledsurf`
with `src/` on PYTHONPATH, one process per invocation, started one at a
time from this process; scans use the CLI's default process pool.  Inputs
(argv lists, scenario files) are generated from the seed into a scratch
directory under perfbench/out/.

Both modes start with one untimed warm-up run of pass 0 through the CLI,
watched: a poll every 5 ms sums the resident sets of the CLI process and
its descendants (the pool workers) and counts the workers.  --trace 0
then times a fixed number of passes, as many as take about S seconds at
the seed commit's speed (a closed loop: the next invocation starts when
the previous one has exited, and nothing polls it), and prints the
end-to-end metrics.  The count does not follow the clock, so a seed always
checks the same ops and reports the same attempted and failed counts.
--trace 1 runs pass 0 four more ways: through the CLI with the default
pool, through the CLI serially (RSK_THREADS=1), in-process untraced and
in-process traced; it prints the per-layer metrics and writes the spans to
perfbench/out/.  Every output is checked (see checks.py) once the clock
has stopped; the last line of stdout is one JSON object.

--selfcheck runs every workload once at minimal size in both modes,
asserts that every metric is emitted, and that the checker flags a
corrupted scan row and a wrong exit code.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads
from tracing import Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
}
PER_LAYER = {
    "sections.h0_class_interval.calls": "count",
    "sections.h0_class_interval.self_s": "s",
    "sections.lattice_points": "count",
    "sections.h0_interval_curve.calls": "count",
    "sections.curve_calls_per_point": "calls/point",
    "sections.growth_classify.calls": "count",
    "sections.growth_classify.self_s": "s",
    "sections.volume.calls": "count",
    "sections.volume.self_s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "cli.pool_speedup": "x",
    "cli.workers": "count",
    "surfaces.calls": "count",
    "surfaces.self_s": "s",
    "bundles.calls": "count",
    "bundles.self_s": "s",
    "blowups.calls": "count",
    "blowups.self_s": "s",
    "trace.overhead_frac": "frac",
}

SETUP_PROBES = 15
OVERHEAD_PAIRS, OVERHEAD_SECONDS = 5, 8.0
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")
PROBE = ("import time; t0 = time.perf_counter(); import ruledsurf; t1 = time.perf_counter(); "
         "import ruledsurf.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1, ruledsurf.__file__)")


@dataclass
class Call:
    rc: int | None
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0  # ru_maxrss, or the watched peak of the process tree's summed RSS
    workers: int = 0  # most live children seen while watched
    stdout: str = ""
    stderr: str = ""


@dataclass
class PassResult:
    calls: list[Call]
    outcome: checks.Outcome
    rows: int
    digest: str = ""

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)


class Runner:
    """Spawns CLI processes one at a time and measures each from outside."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        env = {k: v for k, v in os.environ.items()
               if k not in ("RSK_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
        env.update(PYTHONPATH=str(SRC), TMPDIR=str(workdir))
        self.env = env
        self.serial_env = dict(env, RSK_THREADS="1")

    def spawn(self, args: list[str], serial: bool = False, watch: bool = False) -> Call:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.serial_env if serial else self.env,
                                    start_new_session=True)
            peak_rss, workers, status = 0, 0, None
            try:
                while status is None:
                    pid, st, usage = os.wait4(proc.pid, os.WNOHANG if watch else 0)
                    if pid:
                        status = st
                    else:
                        rss, children = _tree(proc.pid)
                        peak_rss, workers = max(peak_rss, rss), max(workers, children)
                        time.sleep(0.005)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its pool workers
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = max(usage.ru_maxrss / 1024, peak_rss / 2**20)  # ru_maxrss is in KiB
        return Call(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    rss_mb, workers, out_path.read_text(), err_path.read_text())


def _tree(pid: int) -> tuple[int, int]:
    """Resident bytes summed over pid and its descendants, and the number of
    pid's live children.  Forked pool workers share pages with the CLI, so
    the sum counts shared pages once per process, as each resident set does."""
    rss, children, todo = 0, 0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                resident = int(fh.read().split()[1]) * PAGE_BYTES
            kids = []
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    kids += fh.read().split()
        except (OSError, IndexError, ValueError):
            continue  # exited between two reads
        rss += resident
        if p == pid:
            children = len(kids)
        todo += map(int, kids)
    return rss, children


# ------------------------------------------------------------------- passes

def _digest(calls: list[Call]) -> str:
    h = hashlib.sha256()
    for c in calls:
        h.update(c.stdout.encode())
    return h.hexdigest()


def _judge(ops: list[workloads.Op], calls: list[Call]) -> PassResult:
    outcome = checks.Outcome()
    for op, call in zip(ops, calls):
        outcome.add(checks.check(op, call.rc, call.stdout, call.stderr))
    return PassResult(calls, outcome, sum(op.rows for op in ops), _digest(calls))


def spawn_pass(runner: Runner, ops: list[workloads.Op], serial: bool = False,
               watch: bool = False) -> list[Call]:
    return [runner.spawn(["-m", "ruledsurf", *op.argv], serial, watch) for op in ops]


def cli_pass(runner: Runner, ops: list[workloads.Op], serial: bool = False) -> PassResult:
    return _judge(ops, spawn_pass(runner, ops, serial))


def inprocess_pass(ops: list[workloads.Op]) -> PassResult:
    """Call ruledsurf.cli.main(argv) for each op in this process, serially."""
    import ruledsurf.cli

    calls = []
    gc.collect()  # start every pass from the same heap state
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = ruledsurf.cli.main(op.argv)
            except Exception:
                rc = None
                traceback.print_exc()
        calls.append(Call(rc, time.perf_counter() - t0, stdout=out.getvalue(), stderr=err.getvalue()))
    return _judge(ops, calls)


class SetupProbe:
    """Fresh interpreters that import ruledsurf.cli and exit.  Each probe
    gives a spawn-to-exit wall and, measured inside the interpreter, the
    import time of cli on top of the package."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.walls: list[float] = []
        self.cli_imports: list[float] = []
        first = runner.spawn(["-c", PROBE])  # untimed: writes bytecode caches
        where = first.stdout.split()[-1] if first.rc == 0 and first.stdout else ""
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"ruledsurf was not imported from {SRC}: {first.stdout}{first.stderr}")

    def __call__(self, at_least: int = 1) -> None:
        while True:
            call = self.runner.spawn(["-c", PROBE])
            self.walls.append(call.wall)
            self.cli_imports.append(float(call.stdout.split()[1]))
            if len(self.walls) >= at_least:
                return


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond
    it, as (value, percentile, samples beyond); the median when none has.
    A fixed ladder keeps the percentile from sliding with the sample count,
    which on a workload mixing fast and slow queries would move it from one
    query kind to another, and the median keeps a run of a few long
    invocations from reporting its single slowest one."""
    s = sorted(values)
    n = len(s)
    for pct in (99.9, 99.0, 90.0):
        rank = math.ceil(pct / 100 * n)  # nearest rank, 1-based
        if n - rank >= 10:
            return s[rank - 1], pct, n - rank
    return statistics.median(s), 50.0, n // 2


# ------------------------------------------------------------------- modes

@dataclass
class Report:
    metrics: dict[str, float]
    outcome: checks.Outcome
    notes: dict = field(default_factory=dict)


def measure(runner: Runner, wl: workloads.Workload, seconds: float, probe: SetupProbe,
            warmup: list[Call]) -> Report:
    """Closed loop over a fixed number of whole passes, about `seconds` of
    them at the seed commit's speed, checked afterwards.  A set-up probe
    follows each pass, so set-up time is sampled across the whole run
    rather than in one burst."""
    timed: list[tuple[list[workloads.Op], list[Call]]] = []
    for i in range(workloads.passes_per_run(wl.name, seconds)):
        ops = wl.pass_ops(i)
        timed.append((ops, spawn_pass(runner, ops)))
        probe()
    probe(at_least=SETUP_PROBES)
    passes = [_judge(ops, calls) for ops, calls in timed]
    outcome = checks.Outcome()
    for p in passes:
        outcome.add(p.outcome)
    if wl.name.startswith("scan") and len({p.digest for p in passes}) > 1:
        outcome.problems.append("repeated scans printed different TSV")
    walls = [c.wall for p in passes for c in p.calls]
    tail_value, tail_pct, beyond = tail(walls)
    metrics = {
        "ops_per_s": statistics.median(p.rows / p.wall for p in passes),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "cpu_s": statistics.median(sum(c.cpu for c in p.calls) for p in passes),
        "peak_rss_mb": max(c.rss_mb for c in (*warmup, *(c for p in passes for c in p.calls))),
        "setup_s": statistics.median(probe.walls),
    }
    notes = {"passes": len(passes), "invocations": len(walls), "setup_probes": len(probe.walls),
             "op_tail_percentile": round(tail_pct, 2), "op_tail_samples_beyond": beyond,
             "stdout_sha256_pass0": passes[0].digest}
    return Report(metrics, outcome, notes)


def traced(runner: Runner, wl: workloads.Workload, seed: int, warmup: list[Call]) -> Report:
    ops = wl.pass_ops(0)
    pool = cli_pass(runner, ops)
    serial = cli_pass(runner, ops, serial=True)
    sys.path.insert(0, str(SRC))
    os.environ["RSK_THREADS"] = "1"
    import ruledsurf.cli  # noqa: F401  (imported before timing)

    # Untraced and traced passes alternate, and so does their order, so the
    # overhead estimate absorbs neither a drift in machine speed nor the
    # first call's costs; spans come from the first traced pass.
    tracer = Tracer()
    plain: list[PassResult] = []
    spanned: list[PassResult] = []
    start = time.perf_counter()
    while not plain or (len(plain) < OVERHEAD_PAIRS and time.perf_counter() - start < OVERHEAD_SECONDS):
        for traced_now in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            if traced_now:
                with instrument(tracer if not spanned else Tracer()):
                    spanned.append(inprocess_pass(ops))
            else:
                plain.append(inprocess_pass(ops))

    outcome = checks.Outcome()
    for p in (pool, serial, *plain, *spanned):
        outcome.add(p.outcome)
    digests = {"pool": pool.digest, "serial": serial.digest,
               "in_process": plain[0].digest, "traced": spanned[0].digest}
    if len({p.digest for p in (pool, serial, *plain, *spanned)}) > 1:
        outcome.problems.append(f"pool, serial and in-process outputs differ: {digests}")
    plain_wall = statistics.median(p.wall for p in plain)
    traced_wall = statistics.median(p.wall for p in spanned)

    summary = tracer.summary()

    def calls(name: str) -> int:
        return summary.get(name, (0, 0.0))[0]

    def self_s(name: str) -> float:
        return summary.get(name, (0, 0.0))[1]

    def module(prefix: str) -> tuple[int, float]:
        hits = [v for k, v in summary.items() if k.startswith(prefix + ".")]
        return sum(c for c, _ in hits), sum(s for _, s in hits)

    points = sum(op.lattice_points for op in ops)
    curve_calls = calls("sections.h0_interval_curve")
    metrics = {
        "sections.h0_class_interval.calls": calls("sections.h0_class_interval"),
        "sections.h0_class_interval.self_s": self_s("sections.h0_class_interval"),
        "sections.lattice_points": points,
        "sections.h0_interval_curve.calls": curve_calls,
        "sections.curve_calls_per_point": curve_calls / points if points else 0.0,
        "sections.growth_classify.calls": calls("sections.growth_classify"),
        "sections.growth_classify.self_s": self_s("sections.growth_classify"),
        "sections.volume.calls": calls("sections.volume"),
        "sections.volume.self_s": self_s("sections.volume"),
        "cli.main.self_s": module("cli")[1],
        "cli.pool_speedup": serial.wall / pool.wall,
        "cli.workers": max([1] + [c.workers for c in warmup]),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    for mod in ("surfaces", "bundles", "blowups"):
        metrics[f"{mod}.calls"], metrics[f"{mod}.self_s"] = module(mod)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"workload": wl.name, "seed": seed, "spans": tracer.spans,
                                      "counts": dict(tracer.counts)}))
    notes = {"stdout_sha256": digests, "spans": str(spans_path.relative_to(ROOT)),
             "walls_s": {"pool": pool.wall, "serial": serial.wall,
                         "in_process": plain_wall, "traced": traced_wall},
             "overhead_pairs": len(plain)}
    return Report(metrics, outcome, notes)


def machine_facts() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model,
            "pool_default_workers": os.cpu_count()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 small: bool = False) -> Report:
    runner = Runner(workdir)
    wl = workloads.build(name, seed, workdir, ROOT, small)
    probe = SetupProbe(runner)
    warmup = spawn_pass(runner, wl.pass_ops(0), watch=True)  # untimed; memory and workers
    if trace:
        report = traced(runner, wl, seed, warmup)
        probe(at_least=SETUP_PROBES)
        report.metrics["cli.import_s"] = statistics.median(probe.cli_imports)
    else:
        report = measure(runner, wl, seconds, probe, warmup)
    report.notes["machine"] = machine_facts()
    return report


def print_report(name: str, seed: int, trace: bool, report: Report) -> None:
    units = PER_LAYER if trace else END_TO_END
    o = report.outcome
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for key, unit in units.items():
        print(f"  {key:<36} {report.metrics[key]:>16.6g} {unit}")
    frac = o.failed / o.attempted if o.attempted else 0.0
    print(f"  {'failed_frac':<36} {frac:>16.6g} frac  ({o.failed} of {o.attempted} ops failed, "
          f"{o.verdict_failed} of them on the oracle verdict alone)")
    for key, value in report.notes.items():
        print(f"  {key}: {json.dumps(value)}")
    for problem in o.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    result = {"correct": not o.problems, "attempted": o.attempted, "failed": o.failed,
              "metrics": {k: {"value": report.metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result))


# ---------------------------------------------------------------- selfcheck

def _ensure(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"selfcheck failed: {what}")


def selfcheck(workdir: Path) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    _ensure([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    _ensure({m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END,
            "BENCHMARK.json end_to_end metrics differ from END_TO_END")
    _ensure({m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER,
            "BENCHMARK.json per_layer metrics differ from PER_LAYER")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            sub = workdir / f"{name}-{int(trace)}"
            sub.mkdir()
            report = run_workload(name, 1, 0.0, trace, sub, small=True)
            want = PER_LAYER if trace else END_TO_END
            missing = set(want) - set(report.metrics)
            _ensure(not missing, f"{name}: metrics not emitted: {sorted(missing)}")
            _ensure(not report.outcome.problems, f"{name}: {report.outcome.problems}")
            print(f"selfcheck {name} trace {int(trace)}: {len(want)} metrics, "
                  f"{report.outcome.attempted} ops checked")

    # The checker must flag a corrupted scan row and a wrong exit code.
    runner = Runner(workdir)
    op = workloads.build("scan-r2", 1, workdir, ROOT, small=True).pass_ops(0)[0]
    call = runner.spawn(["-m", "ruledsurf", *op.argv])
    _ensure(not checks.check(op, call.rc, call.stdout, call.stderr).problems, "clean scan flagged")
    lines = call.stdout.splitlines()
    cols = lines[1].split("\t")
    cols[-4] = "false" if cols[-4] == "true" else "true"  # the big column
    corrupted = "\n".join([lines[0], "\t".join(cols), *lines[2:]]) + "\n"
    _ensure(checks.check(op, call.rc, corrupted, "").problems, "corrupted big column not flagged")
    cols = lines[1].split("\t")
    cols[-1] = "false"  # agree
    disagreeing = "\n".join([lines[0], "\t".join(cols), *lines[2:]]) + "\n"
    outcome = checks.check(op, 1, disagreeing, "")
    _ensure(outcome.verdict_failed == 1 and not outcome.problems, "agree=false not counted")
    _ensure(checks.check(op, 2, call.stdout, "").problems, "wrong exit code not flagged")

    # ... and an h0 upper bound above the sum of the per-point bounds.
    op = workloads.h0_op(3, (2, -1), (2, 1), 8)
    call = runner.spawn(["-m", "ruledsurf", *op.argv])
    _ensure(not checks.check(op, call.rc, call.stdout, call.stderr).problems, "clean h0 flagged")
    ref_hi = checks.slice_bounds(3, (2, -1), 2, 1)[1]
    wrong = "".join(f"h0_hi: {ref_hi + 1}\n" if line.startswith("h0_hi:") else line
                    for line in call.stdout.splitlines(keepends=True))
    _ensure(checks.check(op, call.rc, wrong, "").problems, "h0_hi above the per-point bounds not flagged")
    print("selfcheck ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (SRC / "ruledsurf" / "cli.py").is_file():
        print(f"error: no ruledsurf sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.selfcheck:
            return selfcheck(workdir)
        for name in names:
            sub = workdir / name
            sub.mkdir()
            report = run_workload(name, args.seed, args.seconds, bool(args.trace), sub)
            print_report(name, args.seed, bool(args.trace), report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
