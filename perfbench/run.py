"""Benchmark for complementa: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 36 --trace 0

The library is imported from ``src/`` of the current directory.  Set-up
builds the workload's groups and writes seeded, relabeled cayley-v1 files
under ``.perfbench/``; the timed region then sends in-process CLI requests
(``complementa.cli.run``) in passes until ``--seconds`` have elapsed, one
request at a time.  Every answer is compared with an expected value recorded
in ``perfbench/expected/`` or given by a closed formula.  End-to-end times
are scaled by a reference kernel timed between requests (``reference.py``),
so that they do not follow the machine's changes of speed.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` it runs one untraced pass, then traced passes, and holds the
per-layer metrics computed from the spans (also saved under ``.perfbench/``).
The last line of stdout is the JSON result; the lines before it are a
readable summary.  Exits 2 without a result if the library is missing.
"""

from __future__ import annotations

import sys

# perfbench/ holds the benchmark only: keep bytecode caches out of it.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import compileall  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from reference import MIN_SAMPLES, REF_S, SPAWN_ARGS, SPAWN_REF_S, Speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
PROBE_EVERY_S = 2.5
MIN_PROBES = 5
REF_EVERY_S = 0.4
COLD_START_TIMEOUT_S = 60


def clear_constructor_caches(constructions) -> None:
    """Drop memoized constructor results, also behind tracing wrappers."""
    for obj in list(vars(constructions).values()):
        while obj is not None and not hasattr(obj, "cache_clear"):
            obj = getattr(obj, "__wrapped__", None)
        if obj is not None:
            obj.cache_clear()


def execute(cli, argv):
    """Run one in-process CLI request; returns (seconds, rc, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        return time.perf_counter() - t0, None, out.getvalue(), repr(exc)
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def judge(request, answers, rc, stdout, error) -> tuple[bool, dict, str]:
    """(ok, counters, reason) for one request's outcome."""
    if rc != 0:
        return False, {}, f"exit {rc}: {error.strip()[-200:]}"
    try:
        summary = request.summarize(stdout)
        if request.key not in answers:
            return False, {}, "no recorded answer"
        if summary != answers[request.key]:
            return False, {}, f"answer {summary!r} != expected {answers[request.key]!r}"
        if not request.extra_check(stdout):
            return False, {}, "closed-form subgroup count mismatch"
        return True, request.counters(stdout), ""
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return False, {}, f"unreadable output: {exc!r}"


class Run:
    """State of one benchmark run: requests sent, failures and timings."""

    def __init__(self, ca, cli, workload, seed, work_dir):
        self.ca, self.cli = ca, cli
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.answers, self.digests = workloads.expected_for(workload)
        self.attempted = 0
        self.failed = 0
        self.request_s: list[float] = []
        self.pass_s: list[float] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload} seed={self.seed}: {what}", file=sys.stderr)

    def setup(self):
        clear_constructor_caches(self.ca.constructions)
        t0 = time.perf_counter()
        setup = workloads.WORKLOADS[self.workload](self.ca, self.seed, self.work_dir)
        t1 = time.perf_counter()
        for name, digest in setup.digests.items():
            self.attempted += 1
            if self.digests.get(name) != digest:
                self.fail(f"{name}: constructor table differs from the recorded one")
        return setup.requests, (t0, t1)

    def check(self, req, dt, rc, stdout, error) -> dict:
        """Count one request's outcome; returns its counters."""
        self.attempted += 1
        self.request_s.append(dt)
        ok, found, reason = judge(req, self.answers, rc, stdout, error)
        if not ok:
            self.fail(f"{req.key}: {reason}")
        return found

    def send(self, req, before=None):
        """One request on a clean slate: (start, end, rc, stdout, error)."""
        clear_constructor_caches(self.ca.constructions)
        # Groups and their caches form reference cycles; collect the last
        # request's garbage now, as a fresh process would not inherit it.
        gc.collect()
        if before is not None:
            before(req)
        t0 = time.perf_counter()
        dt, rc, stdout, error = execute(self.cli, req.argv)
        return t0, t0 + dt, rc, stdout, error

    def one_pass(self, requests, before=None) -> dict:
        """Send every request once and check the answers."""
        outcomes = [(req, *self.send(req, before)) for req in requests]
        self.pass_s.append(sum(end - start for _, start, end, *_ in outcomes))
        counters: dict = {}
        for req, start, end, rc, stdout, error in outcomes:
            for k, v in self.check(req, end - start, rc, stdout, error).items():
                counters[k] = counters.get(k, 0) + v
        return counters

    def cold_start_probe(self, src: str):
        """A function that spawns the reference process, then one trivial
        ``complementa`` process; it returns the latter's spawn and exit
        times and the reference's duration, or None if either failed."""
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        argv = [sys.executable, "-m", "complementa.cli", *workloads.COLD_START_ARGV]
        with open(os.path.join(workloads.EXPECTED_DIR, "cold-start.json"),
                  encoding="utf-8") as fh:
            golden = fh.read()

        def spawn(cmd):
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                      timeout=COLD_START_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc = None
            return proc, t0, time.perf_counter()

        def probe():
            self.attempted += 1
            ref, r0, r1 = spawn([sys.executable, *SPAWN_ARGS])
            if ref is None or ref.returncode != 0:
                self.fail("reference process failed or timed out")
                return None
            proc, t0, t1 = spawn(argv)
            if proc is None:
                self.fail("cold start timed out")
                return None
            if proc.returncode != 0 or proc.stdout != golden:
                self.fail(f"cold start exit {proc.returncode}, output differs")
                return None
            return t0, t1, r1 - r0

        return probe


def percentile(values, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean
    of all order statistics.  With a few values per run, the plain sample
    percentile jumps between neighbouring requests; this one moves smoothly.
    """
    n = len(values)
    if n == 1:
        return values[0]
    p = q / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # The Beta CDF at i/n by the midpoint rule, away from its end points.
    steps = 400
    h = 1.0 / (n * steps)
    cdf, total = [0.0], 0.0
    for k in range((n - 1) * steps):
        t = (k + 0.5) * h
        total += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta) * h
        if (k + 1) % steps == 0:
            cdf.append(total)
    cdf.append(1.0)
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(sorted(values)))


def metric_units(section: str) -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def emit(run: Run, metrics: dict, section: str, notes: dict) -> None:
    units = metric_units(section)
    print(f"workload={run.workload} seed={run.seed} requests={len(run.request_s)}")
    for name, unit in units.items():
        value = metrics[name]
        note = notes.get(name, "")
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:40s} {shown} {unit:6s} {note}")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'fail_ratio':40s} {ratio:14.6g} {'':6s} "
          f"({run.failed} of {run.attempted} operations)")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))


def measure(run: Run, seconds: float, src: str, import_at: tuple) -> None:
    """Requests in passes until ``seconds`` have elapsed, one at a time.

    Between requests, as they fall due, come reference-kernel samples,
    cold-start probes and further set-ups, so that every metric samples the
    whole run.  The first pass always runs whole; after it, a request whose
    last time would overrun the deadline is skipped, so a run lasts about
    ``seconds``, and each round sends the requests with the fewest samples
    first.  Times are scaled for the machine's speed by the kernel samples
    around them, cold starts by the reference process before each
    (``reference.py``).
    """
    speed = Speed(REF_EVERY_S)
    for _ in range(MIN_SAMPLES):
        speed.sample()
    requests, first_setup = run.setup()
    setups = [first_setup]
    probe = run.cold_start_probe(src)
    probes = []
    start = time.perf_counter()
    deadline = start + seconds
    next_probe = start
    next_setup = start + seconds / SETUP_REPEATS
    times: list[list[tuple]] = [[] for _ in requests]

    def between():
        # The kernel runs first: right after a child process exits it reads
        # slower than the requests do.
        nonlocal next_probe, next_setup
        speed.catch_up()
        now = time.perf_counter()
        if now >= next_probe:
            found = probe()
            if found is not None:
                probes.append(found)
            next_probe = time.perf_counter() + PROBE_EVERY_S
        elif len(setups) < SETUP_REPEATS and now >= next_setup:
            setups.append(run.setup()[1])
            next_setup = time.perf_counter() + seconds / SETUP_REPEATS

    order = list(range(len(requests)))
    first = True
    while True:
        sent = 0
        for i in order:
            last_s = times[i][-1][1] - times[i][-1][0] if times[i] else 0.0
            if not first and time.perf_counter() + last_s > deadline:
                continue
            req = requests[i]
            between()
            t0, t1, rc, stdout, error = run.send(req)
            run.check(req, t1 - t0, rc, stdout, error)
            times[i].append((t0, t1))
            sent += 1
        first = False
        if not sent or time.perf_counter() >= deadline:
            break
        # Requests with the fewest samples go first, so that the rounds cut
        # short by the deadline do not always skip the same requests.
        order.sort(key=lambda i: len(times[i]))
    for _ in range(MIN_SAMPLES):
        speed.sample()
    while len(setups) < SETUP_REPEATS:
        setups.append(run.setup()[1])
    while len(probes) < MIN_PROBES:
        found = probe()
        if found is None:
            break
        probes.append(found)

    def scaled(t0, t1):
        return (t1 - t0) * speed.scale(t0, t1)

    # Per request of the pass: the median of its scaled times.
    per_request = [statistics.median(scaled(*t) for t in ts) for ts in times]
    req_ms = [t * 1000.0 for t in per_request]
    cold = [(t1 - t0) * SPAWN_REF_S / ref_s for t0, t1, ref_s in probes]
    setup_s = [scaled(*t) for t in setups]
    metrics = {
        "setup_s": scaled(*import_at) + statistics.median(setup_s),
        "wall_s": sum(per_request),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "req_p50_ms": percentile(req_ms, 50),
        "req_p90_ms": percentile(req_ms, 90),
        "cold_start_ms": statistics.median(cold) * 1000.0 if cold else 0.0,
    }
    unscaled = sum(statistics.median(t1 - t0 for t0, t1 in ts) for ts in times)
    notes = {
        "setup_s": f"(import + median of {len(setups)} set-ups)",
        "wall_s": f"(one pass, from per-request medians; unscaled {unscaled:.4g} s)",
        "peak_rss_mb": "(benchmark process)",
        "req_p50_ms": f"(Harrell-Davis, over the {len(req_ms)} requests of a "
                      f"pass; {len(run.request_s)} sent)",
        "req_p90_ms": f"(Harrell-Davis, over the {len(req_ms)} requests of a "
                      f"pass; {len(run.request_s)} sent)",
        "cold_start_ms": f"(median of {len(cold)} processes, each scaled by "
                         f"the reference process before it)",
    }
    kernel_s = speed.durations()
    print(f"reference kernel: median {statistics.median(kernel_s) * 1000.0:.4g} ms "
          f"over {len(kernel_s)} samples; times are scaled to {REF_S * 1000.0:g} ms")
    with open(os.path.join(run.work_dir, f"samples-seed{run.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"requests": [[req.key, ts] for req, ts in zip(requests, times)],
                   "setups": setups, "import": import_at, "cold_starts": probes,
                   "reference": list(zip(speed.start, speed.end))}, fh)
    emit(run, metrics, "end_to_end", notes)


def measure_traced(run: Run, seconds: float, import_s: float) -> None:
    """One untraced pass, then traced passes while ``seconds`` last; the
    per-layer metrics are unscaled."""
    from tracer import Tracer, combine, span_raws

    tracer = Tracer()
    labels = ["setup"]
    phase_of_request = [0]
    tracer.install()
    try:
        requests, _ = run.setup()
    finally:
        tracer.uninstall()

    deadline = time.perf_counter() + seconds
    run.one_pass(requests)
    untraced_s = run.pass_s[-1]

    def on_request(req):
        labels.append(req.key)
        phase_of_request.append(len(run.pass_s))
        tracer.current_request = len(labels) - 1

    extras = {}
    tracer.install()
    try:
        # At least one traced pass; another only if it should end in time.
        while True:
            phase = len(run.pass_s)
            extras[phase] = run.one_pass(requests, before=on_request)
            if time.perf_counter() + run.pass_s[-1] > deadline:
                break
    finally:
        tracer.uninstall()
    traced_s = run.pass_s[1:]

    tracer.save(os.path.join(run.work_dir, f"trace-seed{run.seed}.npz"), labels)
    metrics = combine(span_raws(tracer.arrays(), tracer.names, phase_of_request), extras)
    metrics["cli.import_ms"] = import_s * 1000.0
    metrics["trace.overhead_s"] = statistics.median(traced_s) - untraced_s
    units = metric_units("per_layer")
    for name, unit in units.items():
        metrics.setdefault(name, 0.0)
        if unit == "count" and float(metrics[name]).is_integer():
            metrics[name] = int(metrics[name])
    notes = {"trace.overhead_s": f"(median of {len(traced_s)} traced passes "
                                 f"minus 1 untraced pass)"}
    emit(run, metrics, "per_layer", notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "complementa", "__init__.py")):
        print(f"error: no complementa package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    # Compile the library up front, so that the first run in a fresh checkout
    # does not pay for bytecode compilation in its timed import and probes.
    compileall.compile_dir(src, quiet=1)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import complementa.cli as cli
    t1 = time.perf_counter()
    import complementa as ca

    work_dir = os.path.join(root, ".perfbench", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    run = Run(ca, cli, args.workload, args.seed, work_dir)
    if args.trace:
        measure_traced(run, args.seconds, t1 - t0)
    else:
        measure(run, args.seconds, src, (t0, t1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
