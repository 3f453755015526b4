"""The benchmark's workloads: inputs from a seed, one operation, output checks.

Every workload runs through the public API of `omnisync`.  Names are looked
up on the `omnisync` submodules at call time, so a traced run sees the
tracer's wrappers.  Nothing here imports `omnisync` at module import time:
the set-up probe times that import in a fresh interpreter.

Each workload has a `full` size (the measured one) and a `smoke` size with
tiny shapes that runs the same operation, checks and traced run in seconds.
"""

from __future__ import annotations

import copy
import importlib
import math
import random
from dataclasses import dataclass, replace
from typing import Callable


def _mod(short: str):
    return importlib.import_module(f"omnisync.{short}")


def rep_seeds(seed: int):
    """Distinct master seeds for successive repetitions, fixed by `seed`."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


@dataclass
class Outcome:
    """What one operation returned, kept for its checks."""

    md_rows: list
    fa_row: object = None
    csv: str = ""
    drops: int = 0  # Monte Carlo drops attempted
    report: object = None
    codebook_pair: tuple = ()
    thresholds: tuple = ()

    @property
    def frame_snr_points(self) -> int:
        """Frames scored, counted once per SNR point (and once for noise-only)."""
        return sum(r.trials for r in self.md_rows) + (self.fa_row.trials if self.fa_row else 0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (seed, size) -> inputs, built and validated
    op: Callable  # (inputs, rep_seed, workers) -> Outcome
    check: Callable  # (inputs, Outcome) -> list of failure messages
    workers: int = 1


# ===== Sweep inputs =====

_MULTIPATH_DOC = {
    "schema": 1, "approach": "quasi-omni-zc", "k": 8, "mt": 64, "nt": 1, "mr": 16, "nr": 2,
    "l": 64, "channel": {"model": "geometric", "paths": 4},
    "snr_db": [-18.0, -16.0, -14.0, -12.0], "p_fa_target": 1e-2,
    "drops": 1000, "frames_per_drop": 200, "estimator": "reduced",
}

# Shape overrides per workload and size; "full" sizes are the measured ones.
_SIZES = {
    "sec6-reduced": {"full": {}, "smoke": {"drops": 4, "frames_per_drop": 2000}},
    "multipath-reduced": {
        "full": {}, "smoke": {"drops": 10, "frames_per_drop": 100, "snr_db": [-18.0, -16.0]}},
    "full-detector": {
        "full": {"drops": 20, "frames_per_drop": 1000},
        "smoke": {"drops": 2, "frames_per_drop": 400, "snr_db": [-4.0, -2.0, 0.0]},
    },
}


def _sweep_doc(workload: str, size: str, master_seed: int) -> dict:
    cli = _mod("cli")
    if workload == "multipath-reduced":
        doc = copy.deepcopy(_MULTIPATH_DOC)
        doc["channel"].update(doppler_hz=cli.SEC6_DOPPLER_HZ,
                              slot_interval_s=cli.SEC6_SLOT_INTERVAL_S)
    else:
        doc = copy.deepcopy(cli.PAPER_SEC6)
        if workload == "full-detector":
            doc.update(p_fa_target=1e-2, estimator="full")
    doc.update(_SIZES[workload][size], master_seed=master_seed)
    return doc


@dataclass(frozen=True)
class SweepInputs:
    config: object  # omnisync.ExperimentConfig
    gamma: float


def _sweep_setup(workload: str):
    def setup(seed: int, size: str) -> SweepInputs:
        doc = _sweep_doc(workload, size, next(rep_seeds(seed)))
        config = _mod("cli").experiment_config_from_doc(doc)
        gamma = _mod("detector").threshold_from_fa(
            config.p_fa_target, config.k, config.l, config.n_r, config.n_t)
        return SweepInputs(config=config, gamma=gamma)
    return setup


def _sweep_op(inputs: SweepInputs, rep_seed: int, workers: int) -> Outcome:
    mc = _mod("montecarlo")
    rows = mc.sweep(replace(inputs.config, master_seed=rep_seed), workers=workers)
    return Outcome(md_rows=rows, csv=mc.results_to_csv(rows), drops=inputs.config.drops)


def _detector_op(inputs: SweepInputs, rep_seed: int, workers: int) -> Outcome:
    mc = _mod("montecarlo")
    config = replace(inputs.config, master_seed=rep_seed)
    rows = mc.run_md_full(config, workers=workers)
    fa_row = mc.estimate_fa(config, workers=workers)
    return Outcome(md_rows=rows, fa_row=fa_row, csv=mc.results_to_csv(rows + [fa_row]),
                   drops=2 * config.drops)


def check_md_rows(rows, config) -> list[str]:
    """MD rows lie in (0, 1), do not increase with SNR, and count every trial."""
    bad = []
    if len(rows) != len(config.snr_db_list):
        bad.append(f"{len(rows)} rows for {len(config.snr_db_list)} SNR points")
    trials = config.drops * config.frames_per_drop
    ordered = sorted(rows, key=lambda r: r.snr_db)
    for row in ordered:
        if not 0.0 < row.p_md_hat < 1.0:
            bad.append(f"p_md_hat={row.p_md_hat!r} at {row.snr_db} dB outside (0, 1)")
        if row.trials != trials:
            bad.append(f"trials={row.trials} at {row.snr_db} dB, expected {trials}")
    for lo, hi in zip(ordered, ordered[1:]):
        if hi.p_md_hat > lo.p_md_hat:
            bad.append(f"p_md_hat rises from {lo.p_md_hat!r} at {lo.snr_db} dB "
                       f"to {hi.p_md_hat!r} at {hi.snr_db} dB")
    return bad


def check_fa_row(row, config) -> list[str]:
    """The noise-only estimate lies within 4 stderr of the closed-form law."""
    exact = _mod("analysis").fa_closed_form(row.gamma, config.k, config.l, config.n_r, config.n_t)
    stderr = math.sqrt(exact * (1.0 - exact) / row.trials)
    bad = []
    if abs(row.p_md_hat - exact) > 4.0 * stderr:
        bad.append(f"noise-only estimate {row.p_md_hat!r} is more than 4 stderr "
                   f"({stderr:.3g}) from the closed form {exact!r}")
    if row.trials != config.drops * config.frames_per_drop:
        bad.append(f"noise-only run counted {row.trials} trials")
    return bad


def _sweep_check(inputs: SweepInputs, out: Outcome) -> list[str]:
    bad = check_md_rows(out.md_rows, inputs.config)
    if out.fa_row is not None:
        bad += check_fa_row(out.fa_row, inputs.config)
    return bad


# ===== Codebook design and threshold calibration =====

_DESIGN_SIZES = {
    "full": {"m": 1024, "n": 2, "k": 8, "thr": (16, 256, 4, 4)},
    "smoke": {"m": 16, "n": 2, "k": 2, "thr": (2, 16, 2, 2)},
}


@dataclass(frozen=True)
class DesignInputs:
    m: int
    n: int
    k: int
    thr_shape: tuple[int, int, int, int]  # (K, L, N_r, N_t)
    targets: tuple[float, ...]


def _design_setup(seed: int, size: str) -> DesignInputs:
    spec = _DESIGN_SIZES[size]
    rng = random.Random(seed)
    # One target per decade 1e-1 .. 1e-6, placed within the decade by the seed.
    targets = tuple(10.0 ** (-j + rng.uniform(-0.25, 0.25)) for j in range(1, 7))
    k, l, n_r, n_t = spec["thr"]
    if not k * n_r * n_t < k * l * n_r or not all(0.0 < t < 1.0 for t in targets):
        raise ValueError("threshold calibration inputs out of range")
    return DesignInputs(m=spec["m"], n=spec["n"], k=spec["k"], thr_shape=spec["thr"],
                        targets=targets)


def _design_op(inputs: DesignInputs, rep_seed: int, workers: int) -> Outcome:
    cb_mod = _mod("codebook")
    det = _mod("detector")
    cb = cb_mod.build_omni_codebook(inputs.m, inputs.n, inputs.m, inputs.n, k=inputs.k)
    report = cb_mod.verify_codebook(cb)
    back = cb_mod.codebook_from_json(cb_mod.codebook_to_json(cb))
    thresholds = tuple(det.threshold_from_fa(t, *inputs.thr_shape) for t in inputs.targets)
    return Outcome(md_rows=[], report=report, codebook_pair=(cb, back), thresholds=thresholds)


def _design_check(inputs: DesignInputs, out: Outcome) -> list[str]:
    bad = []
    if not out.report.passed:
        bad.append("verify_codebook failed a required condition")
    cb, back = out.codebook_pair
    same = (cb.design == back.design and cb.k == back.k and all(
        a.shape == b.shape and (a == b).all() for a, b in zip(cb.w + cb.f, back.w + back.f)))
    if not same:
        bad.append("codebook JSON round trip changed the codebook")
    fa = _mod("analysis").fa_closed_form
    for target, gamma in zip(inputs.targets, out.thresholds):
        achieved = fa(gamma, *inputs.thr_shape)
        if abs(achieved - target) > 1e-12 * max(1.0, target):
            bad.append(f"threshold {gamma!r} gives false alarm {achieved!r}, target {target!r}")
    return bad


WORKLOADS = {w.name: w for w in (
    Workload(
        "sec6-reduced",
        "paper-sec6 preset through sweep at workers=2: sampling and scoring dominate, "
        "covariance builds do not",
        _sweep_setup("sec6-reduced"), _sweep_op, _sweep_check, workers=2),
    Workload(
        "multipath-reduced",
        "K=8, P=4 quasi-omni-zc reduced sweep: per-drop covariance builds dominate and "
        "drop-to-drop spread sets the error",
        _sweep_setup("multipath-reduced"), _sweep_op, _sweep_check),
    Workload(
        "full-detector",
        "full estimator MD sweep plus noise-only run: the only antenna-level frame "
        "synthesis and batched detector statistic",
        _sweep_setup("full-detector"), _detector_op, _sweep_check),
    Workload(
        "design-verify",
        "M=1024 codebook build, verify, JSON round trip and large-K*L*N_r threshold "
        "calibration: the only beam patterns and bisection",
        _design_setup, _design_op, _design_check),
)}
