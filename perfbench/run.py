"""fpmdesign benchmark: runs `fpm` commands (and `fpmdesign.grad_design`)
in-process, closed loop, one at a time, and prints one JSON result line.

    python3 perfbench/run.py --workload reconstruct-p35 --seed 1 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced passes over the same commands, reports the
per-layer metrics from the traced ones, prints the per-call layer table,
runs the thread-count determinism check and writes the spans to
.perfbench_runs/. Timings are process CPU seconds, rescaled to reference
speed; see perfbench/README.md.
"""

import os

# Pin every thread pool before numpy is imported anywhere in this process.
for _var in ("FPM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from tracing import COMMAND, clock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
# set-up is repeated and its median reported
SETUP_REPEATS = 5
# CPU seconds of one Reference.measure() on the 2-core Xeon virtual machine
# the benchmark was tuned on; reported times are rescaled to that speed
REF_S = 0.075


class Reference:
    """A fixed numpy workload that calls nothing in fpmdesign: batched 2-D
    FFTs and products at the p=21 sizes, like the solver's inner loop.

    A shared host's speed changes from second to second. The reference is
    timed right before and right after each measured interval, and the
    interval's CPU time is divided by the mean of the two and multiplied by
    REF_S: seconds on a host as fast as the tuning machine. A change to
    fpmdesign moves the interval and not the reference.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        rng = np.random.default_rng(0)
        self.stack = rng.standard_normal((89, 21, 21)) + 1j * rng.standard_normal((89, 21, 21))
        self.field = rng.standard_normal((63, 63)) + 1j * rng.standard_normal((63, 63))
        self.measure()  # warm-up: first-call FFT set-up

    def measure(self) -> float:
        np = self.np
        t0 = clock()
        for _ in range(40):
            fields = np.fft.ifft2(np.fft.fft2(self.stack) * self.stack)
            np.abs(fields) ** 2
            np.fft.fft2(self.field) * self.field
        return clock() - t0

    @staticmethod
    def rescale(cpu_s, before, after):
        return cpu_s * REF_S / ((before + after) / 2.0)


def import_package():
    """Import fpmdesign from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    package = src / "fpmdesign"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: package source not found at {package}")
    sys.path.insert(0, str(src))
    import fpmdesign
    if Path(fpmdesign.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported fpmdesign from {fpmdesign.__file__}, not {package}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def environment(seed):
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "commit": _commit(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in
                    ("FPM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def make_runner():
    """run(argv) -> (exit code, stderr) of one in-process `fpm` command."""
    from fpmdesign.cli import main

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, err.getvalue()

    return run


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _error_text():
    return traceback.format_exc(limit=-3).strip().replace("\n", " | ")


class Run:
    """Timed passes over a workload's commands, with checks after each command."""

    def __init__(self, workload, run, tracer, reference):
        self.wl = workload
        self.run = run
        self.tracer = tracer
        self.ref = reference
        # traced? -> CPU seconds, the same at reference speed, and wall
        # seconds, per command
        self.times = {False: [], True: []}
        self.ref_times = {False: [], True: []}
        self.wall_times = {False: [], True: []}
        self.digests = {}
        self.failures = []
        self.attempted = 0

    def command(self, i, argv, first, traced):
        from workloads import CheckFailed
        self.attempted += 1
        before = self.ref.measure()
        t0, w0 = clock(), time.perf_counter()
        try:
            if traced:
                with self.tracer.installed(), self.tracer.span(COMMAND):
                    rc, err = self.wl.execute(i, argv, self.run)
            else:
                rc, err = self.wl.execute(i, argv, self.run)
        except Exception:
            self.failures.append(f"{argv[0]} #{i} raised: {_error_text()}")
            return
        finally:
            cpu, wall = clock() - t0, time.perf_counter() - w0
            self.times[traced].append(cpu)
            self.wall_times[traced].append(wall)
            self.ref_times[traced].append(self.ref.rescale(cpu, before, self.ref.measure()))
        if rc != 0:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            self.failures.append(f"{argv[0]} #{i} exited {rc}: {last}")
            return
        try:
            self.wl.check(i, first, self.run)
            digest = _digest(self.wl.outputs(i))
        except CheckFailed as exc:
            self.failures.append(f"{argv[0]} #{i}: {exc}")
            return
        except Exception:
            self.failures.append(f"{argv[0]} #{i} check raised: {_error_text()}")
            return
        if self.digests.setdefault(i, digest) != digest:
            self.failures.append(f"{argv[0]} #{i}: outputs differ from the first run "
                                 f"on identical inputs")

    def passes(self, seconds, trace):
        """Run commands pass after pass until `seconds` of wall time have
        passed, every command ran once and the first one twice, so at least
        one output can be compared with a rerun on identical inputs. In trace
        mode passes alternate untraced and traced, and the run ends on a
        whole traced pass."""
        commands = self.wl.commands()
        stop_every = 2 * len(commands) if trace else 1
        start = time.perf_counter()
        n = 0
        while True:
            p, i = divmod(n, len(commands))
            self.command(i, commands[i], p == 0, trace and p % 2 == 1)
            n += 1
            if (n > len(commands) and n % stop_every == 0
                    and time.perf_counter() - start >= seconds):
                return

    def extra_checks(self):
        self.attempted += self.wl.extra_commands
        try:
            self.failures.extend(self.wl.extra_checks(self.run))
        except Exception:
            self.failures.append(f"extra checks raised: {_error_text()}")


def end_to_end(wl, setup_ref_times, ref_times):
    ops = ref_times[False]
    m = {
        "setup_s": (statistics.median(setup_ref_times), "s"),
        "op_ref_s_p50": (statistics.median(ops), "s"),
        "solves_per_ref_s": (wl.solves_per_command * len(ops) / sum(ops), "1/s"),
    }
    m.update(wl.quality.metrics())
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def _finite_or_none(metrics):
    """JSON has no NaN; a metric a failed run could not measure becomes null."""
    for entry in metrics.values():
        if not math.isfinite(entry["value"]):
            entry["value"] = None
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]

    env = environment(args.seed)
    print("perfbench: env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    origin = clock()
    try:
        run = make_runner()
        reference = Reference()
        setup_times, setup_ref_times = [], []
        for _ in range(SETUP_REPEATS):
            wl = cls(work, args.seed)
            before = reference.measure()
            t0 = clock()
            wl.setup(run)
            cpu = clock() - t0
            setup_times.append(cpu)
            setup_ref_times.append(reference.rescale(cpu, before, reference.measure()))

        tracer = tracing.Tracer()
        bench = Run(wl, run, tracer, reference)
        bench.passes(args.seconds, bool(args.trace))

        if args.trace:
            bench.extra_checks()
            with tracer.installed(), tracer.span(tracing.PROBE):
                wl.probes()
            metrics = tracing.layer_metrics(tracer.spans, wl.unroll_T,
                                            sum(bench.ref_times[True]),
                                            sum(bench.ref_times[False]))
            for line in tracing.layer_table(tracer.spans, wl.patch_px):
                print("perfbench: " + line)
            spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}-spans.jsonl"
            tracer.write_jsonl(spans_path, origin)
            print(f"perfbench: wrote {len(tracer.spans)} spans to {spans_path}")
        else:
            metrics = end_to_end(wl, setup_ref_times, bench.ref_times)
            walls = bench.wall_times[False]
            print(f"perfbench: op_ref_s_p50 over n={len(walls)} commands; no tail "
                  f"percentile (needs >= 10 samples beyond it); unscaled medians: "
                  f"CPU {statistics.median(bench.times[False]):.3f} s, "
                  f"wall {statistics.median(walls):.3f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = _finite_or_none(metrics)
    for name, entry in metrics.items():
        print(f"perfbench: {name} = {entry['value']} {entry['unit']}")
    for failure in bench.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "command_cpu_s": bench.times[False], "traced_command_cpu_s": bench.times[True],
        "command_ref_s": bench.ref_times[False],
        "traced_command_ref_s": bench.ref_times[True],
        "command_wall_s": bench.wall_times[False],
        "traced_command_wall_s": bench.wall_times[True],
        "setup_cpu_s": setup_times, "setup_ref_s": setup_ref_times,
        "output_sha256": bench.digests,
        "failures": bench.failures, "metrics": metrics,
    }
    with open(OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": len(bench.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
