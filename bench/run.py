"""rategame benchmark: one workload, serial, closed loop, in one process.

    python3 bench/run.py --workload mc_c11 --seed 1 --seconds 20 --trace 0

Runs from a source checkout and imports the package from its src/. Inputs
come from --seed (see workloads.py). Ops run one at a time for at least
--seconds of timed op time, and at least the counted window of ops whose
solver counts and digest are reported. Every op's output is checked outside
the timed region (check.py); an op that raises or fails its check counts as
failed.

--trace 0 reports the end-to-end metrics. Their times are scaled to a fixed
host speed: a shared host's own speed drifts by tens of percent within
minutes, so between ops, outside the timed region, the run keeps timing a
fixed reference loop that calls no rategame code (HostSpeed). Each op's time
is multiplied by REF_NOMINAL_S over the mean of the REF_SPAN samples taken
on each side of it, and so is each set-up. On a host of steady speed this
is a constant factor. The unscaled values are printed too, as
"# raw_metrics".

--trace 1 runs the window with
spans recorded around each layer's public functions (spans.py) and reports
per-layer metrics over it; the window's first quarter also runs untraced,
for the tracing overhead. Spans go to .bench_out/ when the run ends.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
The full result, with provenance, is written to .bench_out/ as well.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGEST_FILE = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
PROBLEMS_SHOWN = 5
WALL_CAP_S = 150  # stop starting ops after this long, whatever is left
REF_EVERY_S = 0.25    # wall time between two samples of the reference loop
REF_SPAN = 2          # an op is scaled by this many samples on each side of it
REF_NOMINAL_S = 6e-3  # reference loop time at the nominal host speed; about
                      # its median on the 2-vCPU Xeon VM the bounds were set on


def add_package_path():
    """Put the checkout's src/ first on sys.path; exit if it holds no package."""
    if not (SRC / "rategame" / "__init__.py").is_file():
        raise SystemExit(f"error: no rategame package under {SRC}")
    sys.path.insert(0, str(SRC))


def git_sha():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class HostSpeed:
    """Times of a fixed reference loop, sampled all through a run.

    The loop calls no rategame code. Like the ops, it mixes Python-level work
    with numpy calls on small arrays, so on a shared host its time follows
    the host's speed. Samples run between ops, never inside a timed one.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._rows = rng.random((8, 64))
        self._mix = rng.random((8, 8))
        self.at = []       # perf_counter at the start of each sample
        self.samples = []  # seconds of each sample
        self._due = 0.0

    def sample(self):
        np, rows, mix = self._np, self._rows, self._mix
        t0 = perf_counter()
        self.at.append(t0)
        acc = 0.0
        for k in range(400):
            acc += float(np.cumsum(np.sort(rows[k % 8]))[-1])
            acc += float((mix @ rows[:, k % 64]).sum())
            acc += sum({j: j * 2 for j in range(20)}.values())
        self.samples.append(perf_counter() - t0)

    def sample_if_due(self):
        now = perf_counter()
        if now >= self._due:
            self.sample()
            self._due = now + REF_EVERY_S

    def scales(self, starts):
        """Per interval starting at `starts`: the factor that turns its seconds
        into seconds at nominal speed, from the mean of the REF_SPAN samples
        before it and the REF_SPAN samples after it."""
        np = self._np
        at, ref = np.asarray(self.at), np.asarray(self.samples)
        first_after = np.searchsorted(at, starts)
        near = first_after[:, None] + np.arange(-REF_SPAN, REF_SPAN)
        return REF_NOMINAL_S / ref[near.clip(0, ref.size - 1)].mean(axis=1)

    def summary(self):
        return dict(samples=len(self.samples),
                    mean_ms=statistics.fmean(self.samples) * 1e3,
                    median_ms=statistics.median(self.samples) * 1e3)


class Tally:
    """Per-op outcomes of a run; the first `window` ops also feed the counts."""

    def __init__(self, window):
        self.window = window
        self.times = []       # timed seconds of each op that passed
        self.starts = []      # and when it started
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.solves = []      # (iterations, converged) of every solve
        self.window_solves = []
        self.digest = hashlib.sha256()

    def run(self, wl, i, call):
        t0 = perf_counter()
        try:  # a failing op is counted, and the run goes on
            out = call(i)
        except Exception as exc:
            dt = perf_counter() - t0
            problems, digest, solves = [f"raised {exc!r}"], ["failed"], []
        else:
            dt = perf_counter() - t0
            try:
                problems, digest, solves = wl.check(out)
            except Exception as exc:
                problems, digest, solves = [f"check raised {exc!r}"], ["failed"], []
        self.attempted += 1
        self.elapsed += dt
        if problems:
            self.failed += 1
            if len(self.problems) < PROBLEMS_SHOWN:
                self.problems += [f"op {i}: {p}" for p in problems]
        else:
            self.times.append(dt)
            self.starts.append(t0)
        self.solves += solves
        if i < self.window:
            self.window_solves += solves
            for line in digest:
                self.digest.update(f"{i} {line}\n".encode())
        return dt

    def counts(self):
        """Exact solver counts over the window; equal in traced and untraced runs."""
        rounds = sum(it for it, _ in self.window_solves)
        return dict(
            solves=len(self.window_solves),
            rounds=rounds,
            nonconverged=sum(not ok for _, ok in self.window_solves),
            converged_rounds=sum(it for it, ok in self.window_solves if ok),
        )


def window_digest(wl):
    """Digest of the window's ops, run without timing."""
    tally = Tally(wl.window)
    for i in range(wl.window):
        tally.run(wl, i, wl.run)
    return tally.digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally, setup_s, np, scales=1.0):
    """End-to-end metrics; each passed op's time is multiplied by its scale."""
    times = np.asarray(tally.times) * scales
    if not tally.times:  # report zeros; the run is marked incorrect anyway
        times = np.zeros(1)
    return {
        "ops_per_s": metric(len(tally.times) / times.sum() if tally.times else 0.0,
                            "1/s"),
        "op_ms_p50": metric(float(np.percentile(times, 50)) * 1e3, "ms"),
        "op_ms_p95": metric(float(np.percentile(times, 95)) * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, counts, overhead_frac):
    out = {}
    summary = tracer.summary()
    for name, s in summary.items():
        out[f"{name}.calls"] = metric(s["calls"], "count")
        out[f"{name}.busy_s"] = metric(s["busy_s"], "s")
        out[f"{name}.self_s"] = metric(s["self_s"], "s")
    rounds = max(1, counts["rounds"])
    out["waterfill.find_water_level.bins"] = metric(tracer.bins, "count")
    out["solver.rounds"] = metric(counts["rounds"], "count")
    out["solver.nonconverged"] = metric(counts["nonconverged"], "count")
    out["solver.nonconverged_frac"] = metric(
        counts["nonconverged"] / max(1, counts["solves"]), "ratio")
    out["solver.round_us"] = metric(
        summary["solver.solve"]["busy_s"] / rounds * 1e6, "us")
    out["solver.br_per_round"] = metric(
        summary["waterfill.best_response_powers"]["calls"] / rounds, "1/round")
    out["solver.useful_round_share"] = metric(
        counts["converged_rounds"] / rounds, "ratio")
    out["trace.overhead_frac"] = metric(overhead_frac, "ratio")
    return out


def set_up(cls, seed, seconds, repeats, host):
    """Build the inputs and run one warm-up op, `repeats` times; keep the last.

    Returns the workload, and the start and seconds of each repeat.
    """
    starts, times = [], []
    for _ in range(repeats):
        wl = None  # free the last inputs first, so they never exist twice
        host.sample()
        t0 = perf_counter()
        starts.append(t0)
        wl = cls(seed, seconds)
        with wl:
            wl.warmup()
        times.append(perf_counter() - t0)
    host.sample()
    return wl, starts, times


def stored_digest_match(name, seed, window, digest):
    """True/False against the stored default-seed digest; None when none applies."""
    stored = json.loads(DIGEST_FILE.read_text()).get(name) if DIGEST_FILE.is_file() else None
    if not stored or (stored["seed"], stored["window"]) != (seed, window):
        return None
    return stored["sha256"] == digest


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    add_package_path()
    import numpy as np
    import rategame

    if not Path(rategame.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: rategame imported from {rategame.__file__}, not {SRC}")
    import workloads
    from spans import Tracer

    import_s = perf_counter() - T_START
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    cls = workloads.WORKLOADS[args.workload]
    host = HostSpeed(np)

    wl, setup_starts, setup_times = set_up(cls, args.seed, args.seconds,
                                           1 if args.trace else SETUP_REPEATS, host)
    # every set-up counts the imports, which ran once
    setups = import_s + np.asarray(setup_times)
    setup_s = float(np.median(setups))
    tally = Tally(wl.window)
    with wl:
        if args.trace:
            # the first quarter of the window also runs untraced, each op just
            # before its traced run, so host drift hits both sides alike
            base = Tally(0)
            n_base = max(1, wl.window // 4)
            tracer = Tracer()
            base_s = traced_s = 0.0
            for i in range(wl.window):
                if perf_counter() - T_START > WALL_CAP_S:
                    break
                if i < n_base:
                    base_s += base.run(wl, i, wl.run)
                tracer.install()
                try:
                    dt = tally.run(wl, i, lambda i: tracer.span_op(i, wl.run, i))
                finally:
                    tracer.uninstall()
                traced_s += dt if i < n_base else 0.0
            overhead = traced_s / base_s - 1.0
        else:
            i = 0
            while ((tally.elapsed < args.seconds or i < wl.window or i % wl.block)
                   and perf_counter() - T_START < WALL_CAP_S):
                tally.run(wl, i, wl.run)
                host.sample_if_due()
                i += 1
    host.sample()

    counts = tally.counts()
    raw_metrics = None
    if args.trace:
        metrics = per_layer(tracer, counts, overhead)
        attempted = base.attempted + tally.attempted
        failed = base.failed + tally.failed
        problems = base.problems + tally.problems
    else:
        scaled_setup_s = float(np.median(setups * host.scales(setup_starts)))
        metrics = end_to_end(tally, scaled_setup_s, np, host.scales(tally.starts))
        raw_metrics = end_to_end(tally, setup_s, np)
        attempted, failed, problems = tally.attempted, tally.failed, tally.problems
    digest = tally.digest.hexdigest()
    all_solves = tally.solves
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {
            "git_sha": git_sha(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "host_reference": host.summary(),
        },
        "ops": tally.attempted,
        "latency_samples": len(tally.times),
        "timed_s": tally.elapsed,
        "failed_frac": failed / attempted,
        "nonconverged_frac": (sum(not ok for _, ok in all_solves)
                              / max(1, len(all_solves))),
        "setup_runs_s": setup_times,
        "window": dict(counts, ops=wl.window, digest=digest,
                       digest_match=stored_digest_match(
                           args.workload, args.seed, wl.window, digest)),
        "problems": problems[:PROBLEMS_SHOWN],
        "metrics": metrics,
        "raw_metrics": raw_metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.npz")

    for key in ("provenance", "ops", "latency_samples", "timed_s", "failed_frac",
                "nonconverged_frac", "window", "problems", "raw_metrics"):
        print(f"# {key}: {json.dumps(result[key])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
