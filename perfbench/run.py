"""omnisync benchmark: one workload, timed end to end, or traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sec6-reduced --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's operation closed-loop (each operation starts
when the previous one returns) for --seconds and reports the end-to-end
metrics.  --trace 1 spends half of --seconds on untraced operations and half
on a serial traced run, and reports the per-layer metrics.  Every operation's
output is checked.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it records
the environment.  --size smoke runs the same code at tiny shapes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, rep_seeds

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"

# The largest pool any workload starts; BLAS threads are pinned so that
# workers x BLAS threads <= the CPUs this process may use.
MAX_WORKERS = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_OPS = 3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas() -> int:
    threads = max(1, _cpus() // MAX_WORKERS)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; children reports the largest reaped child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class SkippedDrops(logging.Handler):
    """Counts drops `omnisync.montecarlo` reports as skipped.

    The count comes from the merge step's warning, which the parent process
    logs for any worker count.
    """

    def __init__(self):
        super().__init__(logging.WARNING)
        self.skipped = 0

    def emit(self, record):
        if record.msg.startswith("%d of %d drops skipped"):
            self.skipped += int(record.args[0])


# ===== Environment =====


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(blas_threads: int) -> dict:
    import numpy as np  # imported only after pin_blas has run
    blas = "unknown"
    config = getattr(np.__config__, "CONFIG", None)
    if isinstance(config, dict):
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": _cpus(), "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "blas_threads": blas_threads,
            "max_workers": MAX_WORKERS, "git_commit": _git_commit(), "src_lines": src_lines}


# ===== Running operations =====


class Runner:
    """Runs one workload's operations, checks them and keeps the samples."""

    def __init__(self, workload, inputs, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.seeds = rep_seeds(seed)
        self.attempted = 0
        self.failed = 0
        self.drops = 0

    def run_one(self, workers: int, tracer: Tracer | None = None) -> dict | None:
        """One checked operation; None if it raised or failed a check."""
        self.attempted += 1
        rep_seed = next(self.seeds)
        try:
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            with tracer.recording() if tracer else contextlib.nullcontext():
                out = self.workload.op(self.inputs, rep_seed, workers)
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            bad = self.workload.check(self.inputs, out)
            self.drops += out.drops
            sample = {"wall": wall, "cpu": cpu, "out": out, "serial_wall": wall}
            if workers > 1:
                # The same repetition serially: the CSV must match byte for byte.
                t1 = time.perf_counter()
                twin = self.workload.op(self.inputs, rep_seed, 1)
                sample["serial_wall"] = time.perf_counter() - t1
                self.drops += twin.drops
                if twin.csv != out.csv:
                    bad.append(f"CSV at workers={workers} differs from workers=1")
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if bad:
            print(f"check failed ({self.workload.name}, seed {rep_seed}): " + "; ".join(bad),
                  file=sys.stderr)
            self.failed += 1
            return None
        return sample

    def run_for(self, seconds: float, workers: int, tracer: Tracer | None = None,
                min_ops: int = MIN_OPS) -> list[dict]:
        samples = []
        tries = 0
        deadline = time.perf_counter() + seconds
        while tries < min_ops or time.perf_counter() < deadline:
            tries += 1
            sample = self.run_one(workers, tracer)
            if sample is not None:
                samples.append(sample)
        return samples


def probe_setup(workload: str, seed: int, size: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# ===== Metrics =====


def end_to_end_metrics(samples, probes) -> dict:
    return {
        "op_s": _median([s["wall"] for s in samples]),
        "cpu_s": _median([s["cpu"] for s in samples]),
        "setup_s": _median([p["setup_s"] for p in probes]),
        "peak_rss_mb": _peak_rss_mib(),
    }


def md_spread(samples) -> tuple[float, float]:
    """(mean relative variance of p_md_hat across repetitions,
    mean ratio of that spread to the reported stderr), over SNR points."""
    per_rep = [s["out"].md_rows for s in samples]
    if len(per_rep) < 2 or not per_rep[0]:
        return 0.0, 0.0
    relvar, ratio = [], []
    for point in zip(*per_rep):
        p = [r.p_md_hat for r in point]
        mean = statistics.fmean(p)
        sd = statistics.stdev(p)
        relvar.append((sd / mean) ** 2)
        ratio.append(sd / statistics.fmean(r.p_md_stderr for r in point))
    return statistics.fmean(relvar), statistics.fmean(ratio)


_COV = ["analysis.build_R_general", "analysis.build_R_single_path", "analysis.build_R_iid"]


def layer_metrics(workload, plain, traced, op_tracer, setup_tracer, probes, runner,
                  skipped) -> dict:
    n = max(len(traced), 1)
    t = op_tracer

    def per_op(value):
        return value / n

    threshold_calls = t.count(["detector.threshold_from_fa"])
    relvar, spread_ratio = md_spread(plain)
    cpu = _median([s["cpu"] for s in plain])
    serial_plain = _median([s["serial_wall"] for s in plain])
    parallel_plain = _median([s["wall"] for s in plain])
    trace_op = _median([s["wall"] for s in traced])
    layer_self = t.layer_self()
    work = [s["out"] for s in plain]
    metrics = {
        "codebook.build_s": per_op(t.total(["codebook.build_omni_codebook",
                                            "codebook.build_approach_codebook"])),
        "codebook.pattern_s": per_op(t.total(["codebook.beam_pattern"])),
        "codebook.pattern_calls": per_op(t.count(["codebook.beam_pattern"])),
        "codebook.verify_s": per_op(t.total(["codebook.verify_codebook"])),
        "codebook.json_s": per_op(t.total(["codebook.codebook_to_json",
                                           "codebook.codebook_from_json"])),
        "channel.draw_s": per_op(t.total(["channel._complex_normal"])),
        "channel.draw_calls": per_op(t.count(["channel._complex_normal"])),
        "channel.draw_bytes": per_op(t.bytes.get("channel._complex_normal", 0)),
        "channel.paths_s": per_op(t.total(["channel.sample_paths"])),
        "channel.paths_calls": per_op(t.count(["channel.sample_paths"])),
        "channel.corr_s": per_op(t.total(["channel.correlation_matrix"])),
        "analysis.cov_s": per_op(t.total(_COV)),
        "analysis.cov_calls": per_op(t.count(_COV)),
        "analysis.fa_law_s": per_op(t.total(["analysis.fa_closed_form"])),
        "analysis.fa_law_calls": per_op(t.count(["analysis.fa_closed_form"])),
        "analysis.asym_s": per_op(t.total(["analysis.asymptotic_md"])),
        "detector.threshold_s": per_op(t.total(["detector.threshold_from_fa"])),
        "detector.threshold_calls": per_op(threshold_calls),
        "detector.fa_evals_per_threshold": t.count(
            ["analysis.fa_closed_form"], {"detector.threshold_from_fa"}) / max(threshold_calls, 1),
        "montecarlo.csv_s": per_op(t.total(["montecarlo.results_to_csv"])),
        "montecarlo.frame_snr_points": _median([o.frame_snr_points for o in work]),
        "montecarlo.drops": _median([o.drops for o in work]),
        "montecarlo.drops_kept_ratio": (1.0 - skipped / runner.drops) if runner.drops else 0.0,
        "montecarlo.spread_over_stderr": spread_ratio,
        "cli.import_s": _median([p["import_s"] for p in probes]),
        "cli.config_s": _median([p["config_s"] for p in probes]),
        "cli.self_s": setup_tracer.layer_self()["cli"],
        "md_work_var": relvar * cpu,
        "scaling_eff": (serial_plain / (workload.workers * parallel_plain)
                        if workload.workers > 1 and parallel_plain > 0 else 0.0),
        "failed_frac": runner.failed / runner.attempted,
        "trace.op_s": trace_op,
        "trace.overhead_s": trace_op - serial_plain,
    }
    metrics.update({f"{layer}.self_s": per_op(layer_self[layer])
                    for layer in LAYERS if layer != "cli"})
    return metrics


# ===== Entry point =====


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "omnisync" / "__init__.py").is_file():
        print(f"error: no omnisync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    import omnisync
    if Path(omnisync.__file__).resolve().parent != ROOT / "src" / "omnisync":
        print(f"error: imported omnisync from {omnisync.__file__}", file=sys.stderr)
        return 2
    skipped = SkippedDrops()
    logging.getLogger("omnisync.montecarlo").addHandler(skipped)

    workload = WORKLOADS[args.workload]
    probes = [probe_setup(workload.name, args.seed, args.size) for _ in range(SETUP_PROBES)]
    runner = Runner(workload, workload.setup(args.seed, args.size), args.seed)
    runner.run_one(workload.workers)  # warm-up, checked but not timed

    if not args.trace:
        samples = runner.run_for(args.seconds, workload.workers)
        metrics = end_to_end_metrics(samples, probes)
        print(f"{len(samples)} timed operations, {len(probes)} set-up probes")
    else:
        plain = runner.run_for(args.seconds / 2, workload.workers, min_ops=2)
        setup_tracer, op_tracer = Tracer(), Tracer()
        with setup_tracer.installed(), setup_tracer.recording():
            workload.setup(args.seed, args.size)
        with op_tracer.installed():
            traced = runner.run_for(args.seconds / 2, 1, tracer=op_tracer, min_ops=2)
        metrics = layer_metrics(workload, plain, traced, op_tracer, setup_tracer, probes,
                                runner, skipped.skipped)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-{args.seed}.json"
        spans_path.write_text(json.dumps({"setup": setup_tracer.dump(),
                                          "ops": op_tracer.dump()}))
        print(f"spans -> {spans_path.relative_to(ROOT)}")

    print(json.dumps({"environment": environment(blas_threads)}))
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {UNITS[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
