"""Benchmark of vslcontrol: seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload paper-presets --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke

Run from the repository root.  One process runs one workload: it builds the
workload's inputs from the seed, runs one untimed warm-up case, then runs
cases back to back until `--seconds` have passed and checks the outputs of
every case.  With `--trace 0` it reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run (traced and untraced cases
alternate, which gives the tracing overhead).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

End-to-end case timings are CPU time of the workload process; the work is
single-threaded, so CPU time is its own cost.  The user-mode part is scaled
by the host speed that `reference.cpu_seconds` measures right before and
right after each case, which takes out the slow and fast regimes of a
shared host; system time is added unscaled.  `setup_s` is CPU time of the
probe child, unscaled.
Raw CPU and wall times are kept in the `record` line; spans of a traced run
use wall time.

`--smoke` runs every workload in both modes at tiny sizes and checks that
each metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays.  Whether the kernel
# grants them depends on the host's memory state, not on the program, and a
# granted huge page counts in RSS whole; so they are off.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("paper-presets", "oracle-grid", "oracle-batch", "fine-grid")
SETUP_PROBES = 7


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes (used by --smoke)")
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs and exit (one set-up probe)")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at tiny sizes and check the printed metrics")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    sha = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE")}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the tail timing.

    The highest percentile with at least ten samples beyond it, but never
    below the median: with fewer than 21 samples no percentile above the
    median has ten beyond it, so the median is reported.
    """
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0, n // 2
    return s[n - 11], 100.0 * (n - 10) / n, 10


def cpu_times() -> tuple[float, float]:
    """(user, system) CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime, usage.ru_stime


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe(args) -> tuple[float | None, str | None]:
    """CPU time of a fresh process that imports the package and builds the inputs.

    The probe is the only child that ends while it runs, so the growth of
    the children's CPU time is the probe's own.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    start = child_cpu_s()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return None, "set-up probe timed out after 120 s"
    if proc.returncode != 0:
        return None, f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return child_cpu_s() - start, None


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "vslcontrol")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import workloads  # noqa: E402  (imports numpy and vslcontrol)
    import_s = time.perf_counter() - t0

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        build_s = time.perf_counter() - t0
        if args.setup_only:
            return 0
        return measure(args, wl, import_s, build_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, import_s: float, build_s: float) -> int:
    import reference  # noqa: E402

    def to_reference(user: float, system: float, before: float, after: float) -> float:
        """A case's CPU time with its user part scaled by the reference timings around it."""
        return user * reference.REF_S / ((before + after) / 2) + system

    recorder = None
    if args.trace:
        import tracing  # noqa: E402
        recorder = tracing.Recorder()
    failures: list[str] = []
    attempted = failed = 0
    untraced: list[float] = []  # scaled CPU seconds per case; none in a traced run
    untraced_wall: list[float] = []
    untraced_cpu: list[tuple[float, float]] = []  # (user, system) seconds per case
    kernels: list[float] = []  # reference CPU seconds: first, then after each case
    traced: list[float] = []  # wall seconds per case, as its spans measure it
    traced_ids: list[int] = []
    bytes_written: dict[int, int] = {}

    def one_case(i: int, trace_it: bool) -> tuple[tuple[float, float] | None, float] | None:
        """((user, system) CPU seconds, wall seconds) of a case that ran, or None.

        A case that raised gives None; a traced case reports only its span's
        wall time.
        """
        nonlocal attempted, failed
        attempted += 1
        elapsed = None
        try:
            if trace_it:
                recorder.install()
                try:
                    with recorder.case(i) as span:
                        res = wl.case(i)
                finally:
                    recorder.uninstall()
                elapsed = None, span.end - span.start
                out = wl.out_dir(res)
                bytes_written[i] = dir_bytes(out) if out else 0
            else:
                cpu, wall = cpu_times(), time.perf_counter()
                res = wl.case(i)
                elapsed = (tuple(b - a for a, b in zip(cpu, cpu_times())),
                           time.perf_counter() - wall)
            bad = wl.check(res)
        except Exception as exc:  # a failing case is counted, not fatal
            bad = [f"{type(exc).__name__}: {exc}"]
            elapsed = None
        if bad:
            failed += 1
            failures.extend(f"case {i}: {b}" for b in bad)
        return elapsed

    n_probes = 0 if args.trace else 1 if args.tiny else SETUP_PROBES
    probes: list[float] = []  # CPU seconds per probe
    probe_errors: list[str] = []

    def probe() -> None:
        elapsed, error = setup_probe(args)
        if error:
            probe_errors.append(error)
        else:
            probes.append(elapsed)

    one_case(0, False)  # warm-up: counted and checked, not timed
    if not args.trace:
        reference.cpu_seconds()  # warm-up
        kernels.append(reference.cpu_seconds())
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 1
    while True:
        trace_it = bool(args.trace) and i % 2 == 0
        elapsed = one_case(i, trace_it)
        if not args.trace:
            kernels.append(reference.cpu_seconds())
        if elapsed is not None and trace_it:
            traced.append(elapsed[1])
            traced_ids.append(i)
        elif elapsed is not None:
            if not args.trace:
                untraced.append(to_reference(*elapsed[0], *kernels[-2:]))
            untraced_cpu.append(elapsed[0])
            untraced_wall.append(elapsed[1])
        i += 1
        # Set-up probes are spread over the run, so that they meet the same
        # machine conditions as the cases.
        done = len(probes) + len(probe_errors)
        if done < n_probes and time.perf_counter() - start >= done * args.seconds / n_probes:
            probe()
        have_all = bool(untraced_wall) and (bool(traced) or not args.trace)
        if time.perf_counter() >= deadline and have_all:
            break
        if i > 3 and not have_all:
            break  # every case of one kind fails; stop rather than spin forever
    while len(probes) + len(probe_errors) < n_probes:
        probe()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "input_digest": wl.digest,
              "environment": environment(), "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "failures": failures[:20],
              "case_s": untraced, "case_user_system_s": untraced_cpu,
              "case_wall_s": untraced_wall, "reference_cpu_s": kernels,
              "traced_case_wall_s": traced}
    if not untraced_wall or (args.trace and not traced):
        print("record " + json.dumps(record))
        print(f"error: no {'traced ' if untraced_wall else ''}case completed: {failures[:5]}",
              file=sys.stderr)
        return 1

    if args.trace:
        metrics = layer_metrics(recorder, traced_ids, traced, untraced_wall, bytes_written,
                                import_s, build_s)
        spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        recorder.dump(spans_path)
        record["spans"] = os.path.relpath(spans_path, ROOT)
    else:
        if not probes:
            print("record " + json.dumps(record))
            print(f"error: no set-up probe completed: {probe_errors}", file=sys.stderr)
            return 1
        if probe_errors:
            failed += 1
            attempted += 1
            failures.extend(probe_errors)
            record.update(attempted=attempted, failed=failed,
                          fail_ratio=failed / attempted, failures=failures[:20])
        value, pct, beyond = tail(untraced)
        record.update(cases=len(untraced), tail_percentile=pct, tail_beyond=beyond,
                      setup_probes_s=probes, main_import_s=import_s, main_build_s=build_s)
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "case_s_p50": (statistics.median(untraced), "s"),
            "case_s_tail": (value, "s"),
            "cases_per_s": (len(untraced) / sum(untraced), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed}/{attempted}")
    for line in failures[:5]:
        print(f"  FAIL {line}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


LAYER_UNITS = {
    "setup.import_s": "s",
    "config.build_s": "s",
    "cli.self_s": "s",
    "free_inlet.simulate_s": "s",
    "free_inlet.picard_windows": "count",
    "free_inlet.picard_iters_max": "count",
    "fixed_inlet.calibrate_s": "s",
    "fixed_inlet.simulate_s": "s",
    "fixed_inlet.picard_iters": "count",
    "fixed_inlet.admissible_s": "s",
    "fixed_inlet.admissible_calls": "count",
    "runner.checks_s": "s",
    "runner.write_s": "s",
    "runner.bytes_written": "bytes",
    "runner.load_trace_s": "s",
    "fundamental_diagram.speed_limits_s": "s",
    "fundamental_diagram.speed_limits_cells": "count",
    "pde_oracle.integrate_s": "s",
    "pde_oracle.steps": "count",
    "pde_oracle.step_us": "us",
    "pde_oracle.calls": "count",
    "pde_oracle.compare_s": "s",
    "pde_oracle.gap_max": "density",
    "unattributed_s": "s",
    "case_s_traced": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(recorder, traced_ids, traced, untraced, bytes_written,
                  import_s, build_s) -> dict[str, tuple[float, str]]:
    """Per traced case means of self times and counts (maxima for *_max).

    `traced` and `untraced` are wall seconds per case, so the overhead
    ratio compares like with like and the self times add up to
    `case_s_traced`.
    """
    n = len(traced_ids)
    values = {"setup.import_s": import_s, "config.build_s": build_s,
              "case_s_traced": sum(traced) / n,
              "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
              "runner.bytes_written": sum(bytes_written.get(i, 0) for i in traced_ids) / n}
    summary = recorder.summary(traced_ids)
    for name in LAYER_UNITS:
        values.setdefault(name, summary.get(name, 0))
    steps = values["pde_oracle.steps"]
    values["pde_oracle.step_us"] = 1e6 * values["pde_oracle.integrate_s"] / steps if steps else 0.0
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def smoke() -> int:
    """Run each workload in both modes at tiny sizes; check names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=180)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if not result["correct"]:
                    problems.append(f"{result['failed']} of {result['attempted']} cases failed")
                if got != want:
                    problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                    f"extra {sorted(set(got) - set(want))}, units "
                                    f"{sorted(k for k in want if k in got and got[k] != want[k])}")
            except (IndexError, KeyError, TypeError, ValueError) as exc:
                problems.append(f"no result line ({exc}); exit {proc.returncode}; "
                                f"stderr {proc.stderr.strip()[-300:]!r}")
            ok = ok and not problems and proc.returncode == 0
            print(f"smoke {workload} trace {trace}: {'; '.join(problems) or 'ok'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return smoke() if args.smoke else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
