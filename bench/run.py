"""fchi benchmark: seeded closed-loop workloads against the library and CLI.

Usage, from the repository root:

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

Workloads (one client, one request at a time, thread pools at one thread):

* catalog-sweep  batch_evaluate of 16 generators at k = 30 on small
                 discrete pairs: the per-generator expansion work dominates;
* deep-orders    high-order bases on every chi route, mixtures and
                 conjugated generators: basis construction dominates;
* cli-cold       a fresh ``fchi`` process per command: start-up dominates.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` replays the
requests with a span around each call into fchi and prints the per-layer
metrics.  Every output is checked against an independent route outside
the timed region.  Times are reported at a reference host speed (see
HostSpeed).  The last stdout line is the JSON result; the lines before it
name each metric with its unit, raw value and sample count, and record
the machine state.  ``--smoke`` runs a handful of requests per workload.
"""

from __future__ import annotations

import os
import sys

# Before numpy loads: one client, one thread.
THREAD_VARS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse
import bisect
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

E2E = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "families.pair_ratio_bounds.busy_ms": "ms",
    "families.pair_ratio_bounds.calls": "count",
    "generators.coeff.busy_ms": "ms",
    "generators.coeff.calls": "count",
    "generators.conjugate.busy_ms": "ms",
    "generators.conjugate.calls": "count",
    "chi.compute_basis.busy_ms": "ms",
    "chi.compute_basis.calls": "count",
    "chi.compute_basis.orders": "count",
    "chi.compute_basis.failed": "count",
    "chi.compute_basis.discrete_exact.busy_ms": "ms",
    "chi.compute_basis.discrete_float.busy_ms": "ms",
    "chi.compute_basis.aef.busy_ms": "ms",
    "chi.compute_basis.mixture.busy_ms": "ms",
    "chi.gens_per_basis": "ratio",
    "expansion.converge.busy_ms": "ms",
    "expansion.converge.calls": "count",
    "expansion.remainder_bound.busy_ms": "ms",
    "expansion.remainder_bound.calls": "count",
    "expansion.remainder_bound.unbounded": "count",
    "expansion.verdict.converging": "count",
    "expansion.verdict.diverging": "count",
    "expansion.verdict.inconclusive": "count",
    "reference.exact.busy_ms": "ms",
    "reference.exact.calls": "count",
    "reference.quadrature.busy_ms": "ms",
    "reference.quadrature.calls": "count",
    "reference.quadrature.err_est_max": "1",
    "cli.import.fchi_ms": "ms",
    "cli.import.scipy_integrate_ms": "ms",
    "cli.main.busy_ms": "ms",
    "cli.main.chi.busy_ms": "ms",
    "cli.main.batch.busy_ms": "ms",
    "cli.main.expand.busy_ms": "ms",
    "cli.main.exact.busy_ms": "ms",
    "share.families": "frac",
    "share.generators.coeff": "frac",
    "share.generators.conjugate": "frac",
    "share.chi": "frac",
    "share.expansion": "frac",
    "share.reference": "frac",
    "share.other": "frac",
    "share.cli.import": "frac",
    "share.cli.main": "frac",
    "trace.overhead_frac": "frac",
}

# Requests run before timing.  A catalog-sweep pass fills the per-pair
# memo of alpha derivative sups that every later pass hits; the first four
# deep-orders requests touch each chi route once.
WARMUP = {"catalog-sweep": None, "deep-orders": 4}

CLI_ENTRY = "import sys; from fchi.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    """Environment of every process the benchmark starts.

    fchi comes from this checkout's ``src``; byte code is cached under
    ``.bench_build`` so cold starts compile nothing after the first run.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def build_bytecode() -> None:
    """Fill the byte-code cache in a separate process, once per checkout.

    With a cold cache the first process compiles numpy and scipy, which
    costs seconds and a fifth more peak memory; no measured process
    should pay that.
    """
    if not (BUILD / "pycache").is_dir():
        subprocess.run([sys.executable, "-c", "import fchi.cli"], env=child_env(),
                       cwd=ROOT, check=True, timeout=600)


def configure_imports() -> None:
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))


# ---------------------------------------------------------------------------
# environment record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "threads": THREAD_VARS,
    }


# ---------------------------------------------------------------------------
# set-up


class Setup:
    """Everything built before the first timed request."""

    def __init__(self, args):
        import fchi

        if not Path(fchi.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"fchi imported from {fchi.__file__}, not {SRC}")
        import workloads

        self.cli = args.workload == "cli-cold"
        BUILD.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=BUILD, prefix="cli-")
        self.workdir = self._tmp.name
        if self.cli:
            import fchi.cli  # noqa: F401  (the warm checks call main)

            self.items = workloads.build(args.workload, args.seed, args.smoke,
                                         self.workdir)
            run_cold(self.items[0])
        else:
            from tracing import run_request

            self.items = workloads.build(args.workload, args.seed, args.smoke)
            for req in self.items[:WARMUP[args.workload]]:
                run_request(req)

    def close(self) -> None:
        self._tmp.cleanup()


def setup_probes(args, n: int, host) -> tuple:
    """Wall time from process start to the end of set-up, in fresh processes.

    Each probe prints the wall clock at which its set-up ended.  Returns
    the times at reference speed and raw.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    def probe() -> float:
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        return float(proc.stdout.split()[-1]) - t0

    scaled, raw = [], []
    for _ in range(n):
        elapsed, _, factor = host.bracketed(probe)
        raw.append(elapsed)
        scaled.append(elapsed * factor)
    return scaled, raw


# ---------------------------------------------------------------------------
# closed loops


def calibration_kernel(steps: int) -> float:
    """Seconds per step of a fixed pure-Python integer loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(steps):
        acc += i * i % 7
    return (time.perf_counter() - t0) / steps


class HostSpeed:
    """Host speed over time, from a calibration loop run between requests.

    The host this benchmark was written on changes speed by up to 2x over
    seconds and by tens of percent over minutes, for every process at
    once.  So each measured time is reported at a reference speed: scaled
    by REFERENCE_S_PER_STEP over the calibration loop's time per step
    around it.  REFERENCE_S_PER_STEP is the loop's time at that host's
    usual best speed (Intel Xeon, Python 3.11).

    Requests far shorter than a second use short loops (SHORT steps) run
    once per EVERY_S of measured time, and take the fastest loop within
    WINDOW_S of the request, as best-of-N timing takes the fastest pass.
    Sub-second processes (CLI calls, set-up probes) are bracketed by a
    LONG loop before and after, whose mean tracks the average speed they
    ran at.
    """

    REFERENCE_S_PER_STEP = 5.5e-8
    SHORT = 20_000
    LONG = 400_000
    EVERY_S = 0.05
    WINDOW_S = 0.5

    def __init__(self):
        self.at = []
        self.per_step = []
        self._owed = 0.0

    def _short(self) -> None:
        self.at.append(time.perf_counter())
        self.per_step.append(calibration_kernel(self.SHORT))

    def burst(self, n: int = 10) -> None:
        for _ in range(n):
            self._short()

    def after(self, measured_s: float) -> None:
        self._owed += measured_s
        while self._owed >= self.EVERY_S:
            self._owed -= self.EVERY_S
            self._short()

    def scale(self, start: float, seconds: float) -> float:
        """Factor for a short interval: the fastest short loop near it."""
        half = self.WINDOW_S + seconds / 2
        mid = start + seconds / 2
        lo = bisect.bisect_left(self.at, mid - half)
        hi = bisect.bisect_right(self.at, mid + half)
        if lo == hi:  # no loop in the window: use the loops either side
            lo, hi = max(lo - 1, 0), lo + 1
        return self.REFERENCE_S_PER_STEP / min(self.per_step[lo:hi])

    def bracketed(self, fn):
        """Run ``fn`` between two long loops: (result, seconds, factor)."""
        before = calibration_kernel(self.LONG)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            seconds = time.perf_counter() - t0
            after = calibration_kernel(self.LONG)
            self.per_step += [before, after]
            self.at += [t0, t0 + seconds]
        return out, seconds, 2 * self.REFERENCE_S_PER_STEP / (before + after)

    @property
    def factor(self) -> float:
        """Run-wide factor: reference over the fastest loop step time."""
        return self.REFERENCE_S_PER_STEP / min(self.per_step)


class Loop:
    """Whole passes over the request list until the time budget is spent.

    Only request time counts toward the budget; checks and calibration run
    between requests with the clock stopped.  Short requests: each
    request's time is its fastest over the passes at reference speed
    (best-of-N, as timeit does), and the metrics are taken over those
    per-request times.  Bracketed requests (processes): every call counts,
    each at the reference speed measured around it.
    """

    def __init__(self, n_items: int, host: HostSpeed, bracket: bool = False):
        self.samples = [[] for _ in range(n_items)]
        self.host = host
        self.bracket = bracket
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _attempt(self, call, idx, item):
        """(start, seconds, factor, output, problems) of one request."""
        t0 = time.perf_counter()
        try:
            if self.bracket:
                out, dt, factor = self.host.bracketed(lambda: call(idx, item))
            else:
                out = call(idx, item)
                dt, factor = time.perf_counter() - t0, None
                self.host.after(dt)
            return t0, dt, factor, out, None
        except Exception:
            return (t0, time.perf_counter() - t0, self.host.factor, None,
                    [traceback.format_exc()])

    def run(self, items, seconds, call, check) -> None:
        self.host.burst()
        spent = 0.0
        while spent < seconds or not self.passes:
            for idx, item in enumerate(items):
                t0, dt, factor, out, problems = self._attempt(call, idx, item)
                self.samples[idx].append((t0, dt, factor))
                spent += dt
                self.attempted += 1
                if problems is None:
                    problems = check(idx, item, out)
                if problems:
                    self.failed += 1
                    if len(self.problems) < 5:
                        self.problems.append(f"request {idx}: {problems}")
            self.passes += 1
        self.host.burst()

    def times(self, scaled: bool = True) -> list:
        """The times the metrics are taken over, at reference speed or raw."""
        if self.bracket:
            return [dt * (f if scaled else 1.0)
                    for s in self.samples for _, dt, f in s]
        if not scaled:
            return [min(dt for _, dt, _ in s) for s in self.samples]
        return [min(dt * self.host.scale(t0, dt) for t0, dt, _ in s)
                for s in self.samples]

    def rate(self, scaled: bool = True) -> float:
        t = self.times(scaled)
        return len(t) / sum(t)

    def describe(self) -> str:
        if self.bracket:
            return (f"{self.attempted} calls, each scaled by the calibration "
                    f"loops around it")
        return f"{len(self.samples)} requests, each best of {self.passes} passes"


class ApiChecker:
    """Output checks for catalog-sweep and deep-orders, references cached."""

    def __init__(self, workload):
        import checks

        self.checks = checks
        self.catalog = workload == "catalog-sweep"
        self._exact = {}
        self._rational = None

    def __call__(self, idx, req, out):
        import fchi

        reports, ref = out
        if not self.catalog:
            return self.checks.deep(req, reports, ref)
        if self._rational is None:
            self._rational = {g.name for g in req.gens
                              if self.checks.rational_stream(g, req.k)}
        if idx not in self._exact:
            self._exact[idx] = {
                g.name: fchi.exact_f_divergence_discrete(g, req.pair.p, req.pair.q)
                for g in req.gens}
        return self.checks.catalog(req, reports, self._exact[idx], self._rational)


def run_cold(op):
    cmd = [sys.executable, "-c", CLI_ENTRY, *op.argv]
    proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def run_warm(op):
    from fchi.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(op.argv))
    return code, out.getvalue().encode("utf-8")


class CliChecker:
    """Exit code 0 and stdout byte-identical to a warm in-process main(argv)."""

    def __init__(self):
        self._warm = {}

    def __call__(self, idx, op, out):
        code, stdout = out
        if idx not in self._warm:
            self._warm[idx] = run_warm(op)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if self._warm[idx] != (0, stdout):
            problems.append("stdout differs from the warm in-process main()")
        return problems


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# per-layer measurements of the CLI


def _importtime_rows(stderr: str) -> list:
    """(depth, module, cumulative us) rows of ``python -X importtime``."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            rows.append((depth, name.strip(), int(parts[1])))
    return rows


def _namespace_us(rows, prefix: str) -> int:
    """Cumulative time of the outermost imports inside a package namespace.

    A package loaded lazily (as scipy loads its submodules) may have no
    line of its own, so the outermost lines under its name are summed.
    Children precede their parent in the output, hence the reverse walk.
    """
    total, inside = 0, None
    for depth, name, cumulative in reversed(rows):
        if inside is not None and depth > inside:
            continue
        inside = None
        if name == prefix or name.startswith(prefix + "."):
            total += cumulative
            inside = depth
    return total


def import_times(n: int, host: HostSpeed):
    """Median cumulative import time of fchi and of scipy.integrate, in ms."""
    fchi_ms, scipy_ms = [], []
    cmd = [sys.executable, "-X", "importtime", "-c", "import fchi"]
    for _ in range(n):
        proc, _, factor = host.bracketed(lambda: subprocess.run(
            cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S))
        if proc.returncode != 0:
            raise RuntimeError(f"import fchi failed: {proc.stderr}")
        rows = _importtime_rows(proc.stderr)
        fchi_ms.append(_namespace_us(rows, "fchi") * factor / 1e3)
        scipy_ms.append(_namespace_us(rows, "scipy.integrate") * factor / 1e3)
    return statistics.median(fchi_ms), statistics.median(scipy_ms)


def warm_main_times(ops, repeats: int, host: HostSpeed) -> dict:
    """Best warm in-process main(argv) time per op, averaged per subcommand."""
    for op in ops:
        run_warm(op)
    samples = [[] for _ in ops]
    host.burst()
    for _ in range(repeats):
        for idx, op in enumerate(ops):
            t0 = time.perf_counter()
            run_warm(op)
            dt = time.perf_counter() - t0
            host.after(dt)
            samples[idx].append((t0, dt))
    host.burst()
    best = [min(dt * host.scale(t0, dt) for t0, dt in s) * 1e3 for s in samples]
    out = {"cli.main.busy_ms": statistics.fmean(best)}
    for sub in ("chi", "batch", "expand", "exact"):
        mine = [t for t, op in zip(best, ops) if op.subcommand == sub]
        out[f"cli.main.{sub}.busy_ms"] = statistics.fmean(mine) if mine else 0.0
    return out


def cli_layers(args, workdir: str, host: HostSpeed) -> dict:
    import workloads

    ops = workloads.build("cli-cold", args.seed, args.smoke, workdir)
    fchi_ms, scipy_ms = import_times(1 if args.smoke else 3, host)
    out = {"cli.import.fchi_ms": fchi_ms,
           "cli.import.scipy_integrate_ms": scipy_ms}
    out.update(warm_main_times(ops, 1 if args.smoke else 5, host))
    return out


# ---------------------------------------------------------------------------
# runs


def run_e2e(args, st: Setup, host: HostSpeed):
    """End-to-end metrics as (value at reference speed, raw value, samples)."""
    loop = Loop(len(st.items), host, bracket=st.cli)
    if st.cli:
        loop.run(st.items, args.seconds, lambda i, op: run_cold(op), CliChecker())
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_n = f"largest of {loop.attempted + 1} processes"
    else:
        from tracing import run_request

        loop.run(st.items, args.seconds, lambda i, req: run_request(req),
                 ApiChecker(args.workload))
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_n = "1 process"
    probes, probes_raw = setup_probes(args, 1 if args.smoke else 3, host)
    times, raw = loop.times(), loop.times(scaled=False)
    n = loop.describe()
    metrics = {
        "latency_p50_ms": (statistics.median(times) * 1e3,
                           statistics.median(raw) * 1e3, n),
        "latency_p90_ms": (percentile(times, 90) * 1e3,
                           percentile(raw, 90) * 1e3, n),
        "pairs_per_s": (loop.rate(), loop.rate(scaled=False), n),
        "peak_rss_mb": (rss_kb / 1024.0, rss_kb / 1024.0, rss_n),
        "setup_s": (statistics.median(probes), statistics.median(probes_raw),
                    f"median of {len(probes)} processes"),
    }
    return loop, metrics


def run_traced(args, st: Setup, host: HostSpeed):
    """Half the budget untraced, half traced; per-layer metrics per pass."""
    import fchi
    import checks
    from tracing import Tracer, layer_metrics, run_request, traced_request

    half = args.seconds / 2.0
    tr = Tracer()
    plain = Loop(len(st.items), host, bracket=st.cli)
    traced = Loop(len(st.items), host, bracket=st.cli)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if st.cli:
        checker = CliChecker()
        plain.run(st.items, half, lambda i, op: run_cold(op), checker)

        def call(idx, op):
            tr.begin("cli.process", traced.attempted, op.subcommand)
            try:
                return run_cold(op)
            finally:
                tr.end()

        traced.run(st.items, half, call, checker)
    else:
        checker = ApiChecker(args.workload)
        first = {}

        def plain_call(idx, req):
            out = run_request(req)
            first.setdefault(idx, out)
            return out

        def traced_check(idx, req, out):
            problems = checker(idx, req, out)
            if not checks.same(out, first.get(idx)):
                problems.append("traced reports differ from batch_evaluate")
            return problems

        plain.run(st.items, half, plain_call, checker)
        builds = fchi.basis_build_count()
        traced.run(st.items, half,
                   lambda i, req: traced_request(req, tr, traced.attempted),
                   traced_check)
        builds = fchi.basis_build_count() - builds
        metrics.update(layer_metrics(tr, len(st.items), host.scale))
        reports = traced.attempted * len(st.items[0].gens)
        metrics["chi.gens_per_basis"] = reports / builds
    metrics.update(cli_layers(args, st.workdir, host))
    if st.cli:
        p50 = statistics.median(plain.times()) * 1e3
        metrics["share.cli.import"] = metrics["cli.import.fchi_ms"] / p50
        metrics["share.cli.main"] = metrics["cli.main.busy_ms"] / p50
    metrics["trace.overhead_frac"] = plain.rate() / traced.rate() - 1.0
    trace_dir = BUILD / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tr.write(trace_dir / f"{args.workload}-seed{args.seed}.json")

    merged = Loop(0, host)
    for part in (plain, traced):
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.problems += part.problems
    n = f"{traced.passes} traced passes of {len(st.items)} requests"
    return merged, {k: (v, n) for k, v in metrics.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-sweep", "deep-orders", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="request time to measure (whole passes are run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a handful of requests, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fchi" / "__init__.py").is_file():
        print(f"run.py: no fchi sources under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    build_bytecode()
    configure_imports()
    st = Setup(args)
    if args.setup_probe:
        print(f"ready {time.time()!r}", flush=True)
        st.close()
        return 0
    host = HostSpeed()
    try:
        loop, metrics = (run_traced if args.trace else run_e2e)(args, st, host)
    finally:
        st.close()

    env = environment()
    env["loadavg_1m_start"] = load_start
    env["loadavg_1m_end"] = os.getloadavg()[0]
    env["calibration_best_ns_per_step"] = min(host.per_step) * 1e9
    env["calibration_runs"] = len(host.per_step)
    units = PER_LAYER if args.trace else E2E
    print(f"fchi benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in loop.problems:
        print(f"FAILED {problem}")
    failed_frac = loop.failed / loop.attempted
    print(f"failed_frac = {failed_frac:g} ({loop.failed}/{loop.attempted} requests)")
    for name, unit in units.items():
        value, *raw, n = metrics[name]
        raw = f"raw {raw[0]:.6g}; " if raw else ""
        print(f"{name} = {value:.6g} {unit} ({raw}{n})")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
