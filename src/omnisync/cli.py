"""Command-line front end: codebook generation and verification, beam-pattern
export, threshold calibration, analytic curves, and Monte Carlo sweeps.

All commands are non-interactive and exit-code-disciplined: 0 on success,
1 on domain or validation failures (messages on stderr), 2 on usage errors.
No output file is written unless the command succeeds.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

from . import __version__
from .analysis import (
    GeneralizedFRatio,
    asymptotic_md,
    fa_closed_form,
    fa_closed_form_log,
    lemma1_cdf,
)
from .channel import SEC6_DOPPLER_HZ, SEC6_SLOT_INTERVAL_S, ChannelConfig, uniform_gains
from .codebook import (
    EXPORT_GRID,
    NAMED_DESIGNS,
    AngleGrid,
    basis_codebook,
    build_approach_codebook,
    codebook_from_json,
    codebook_to_json,
    pattern_csv_rows,
    verify_codebook,
)
from .detector import threshold_from_fa
from .montecarlo import ESTIMATORS, ExperimentConfig, sweep, write_results_csv

logger = logging.getLogger(__name__)

ANALYTIC_HEADER = "quantity,k,l,nr,nt,gamma,noise_var,value,log_value"

# Production-scale experiment defaults (K=1 beam-pair design, 64x2 transmit,
# 16x2 receive, single path at 30 GHz / 30 km/h, 500 drops of 10000 frames,
# false-alarm target 1e-4).
PAPER_SEC6 = {
    "schema": 1,
    "approach": "omni-golay",
    "k": 1,
    "mt": 64,
    "nt": 2,
    "mr": 16,
    "nr": 2,
    "l": 64,
    "channel": {
        "model": "geometric",
        "paths": 1,
        "beta": [1.0],
        "doppler_hz": SEC6_DOPPLER_HZ,
        "slot_interval_s": SEC6_SLOT_INTERVAL_S,
    },
    "snr_db": [-4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
    "p_fa_target": 1e-4,
    "drops": 500,
    "frames_per_drop": 10000,
    "estimator": "reduced",
    "master_seed": 1,
    "zc_root": 1,
}


# ===== Experiment config schema =====

_TOP_KEYS = {"schema", "approach", "k", "mt", "nt", "mr", "nr", "l", "channel",
             "snr_db", "p_fa_target", "drops", "frames_per_drop", "estimator",
             "master_seed", "zc_root"}
_CHANNEL_KEYS = {"model", "paths", "beta", "doppler_hz", "slot_interval_s"}


def _check_int(doc, key, errors, minimum=1):
    val = doc.get(key)
    if not isinstance(val, int) or isinstance(val, bool) or val < minimum:
        errors.append(f"$.{key}: expected an integer >= {minimum}, got {val!r}")
        return minimum
    return val


def _is_finite_number(val) -> bool:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_number(doc, key, errors, path="$"):
    """The field as a float, or None after recording an error."""
    val = doc.get(key)
    if not _is_finite_number(val):
        errors.append(f"{path}.{key}: expected a finite number, got {val!r}")
        return None
    return float(val)


def experiment_config_from_doc(doc: dict) -> ExperimentConfig:
    """Builds an ExperimentConfig from a parsed JSON document.

    Raises ValueError listing every schema violation, one per line, each
    prefixed with the JSON path of the offending field.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        raise ValueError("$: expected a JSON object")
    if doc.get("schema") != 1:
        errors.append(f"$.schema: expected 1, got {doc.get('schema')!r}")
    for key in sorted(set(doc) - _TOP_KEYS):
        errors.append(f"$.{key}: unknown field")

    approach = doc.get("approach")
    if approach not in NAMED_DESIGNS:
        errors.append(f"$.approach: expected one of {list(NAMED_DESIGNS)}, got {approach!r}")
    k = _check_int(doc, "k", errors)
    mt = _check_int(doc, "mt", errors)
    nt = _check_int(doc, "nt", errors)
    mr = _check_int(doc, "mr", errors)
    nr = _check_int(doc, "nr", errors)
    l = _check_int(doc, "l", errors)
    drops = _check_int(doc, "drops", errors)
    frames = _check_int(doc, "frames_per_drop", errors)
    master_seed = _check_int(doc, "master_seed", errors, minimum=0)
    zc_root = doc.get("zc_root", 1)
    if not isinstance(zc_root, int) or isinstance(zc_root, bool) or zc_root < 1:
        errors.append(f"$.zc_root: expected an integer >= 1, got {zc_root!r}")
        zc_root = 1

    pfa = _check_number(doc, "p_fa_target", errors)
    if pfa is not None and not 0.0 < pfa < 1.0:
        errors.append(f"$.p_fa_target: must be inside (0, 1), got {doc.get('p_fa_target')!r}")
    estimator = doc.get("estimator", "reduced")
    if estimator not in ESTIMATORS:
        errors.append(f"$.estimator: expected 'reduced' or 'full', got {estimator!r}")
        estimator = "reduced"
    snr = doc.get("snr_db")
    if not isinstance(snr, list) or not all(_is_finite_number(s) for s in snr):
        errors.append(f"$.snr_db: expected a list of finite numbers, got {snr!r}")
        snr = []

    chan_doc = doc.get("channel")
    channel = None
    if not isinstance(chan_doc, dict):
        errors.append(f"$.channel: expected an object, got {chan_doc!r}")
    else:
        for key in sorted(set(chan_doc) - _CHANNEL_KEYS):
            errors.append(f"$.channel.{key}: unknown field")
        model = chan_doc.get("model")
        if model not in ("geometric", "iid"):
            errors.append(f"$.channel.model: expected 'geometric' or 'iid', got {model!r}")
            model = "geometric"
        paths = chan_doc.get("paths", 1)
        if not isinstance(paths, int) or isinstance(paths, bool) or paths < 1:
            errors.append(f"$.channel.paths: expected an integer >= 1, got {paths!r}")
            paths = 1
        beta = chan_doc.get("beta")
        if beta is None:
            beta = list(uniform_gains(paths))
        if (not isinstance(beta, list) or len(beta) != paths
                or not all(_is_finite_number(b) for b in beta)):
            errors.append(
                f"$.channel.beta: expected a list of {paths} finite numbers, got {beta!r}")
            beta = list(uniform_gains(paths))
        doppler = _check_number(chan_doc, "doppler_hz", errors, path="$.channel")
        slot_interval = _check_number(chan_doc, "slot_interval_s", errors, path="$.channel")
        if not errors:
            try:
                channel = ChannelConfig(m_t=mt, m_r=mr, p=paths, beta=tuple(float(b) for b in beta),
                                        f_d=doppler, t_s=slot_interval, k=k, model=model)
            except ValueError as exc:
                errors.append(f"$.channel: {exc}")
    if errors:
        raise ValueError("\n".join(errors))
    try:
        return ExperimentConfig(
            approach=approach, k=k, m_t=mt, m_r=mr, n_t=nt, n_r=nr, l=l, channel=channel,
            snr_db_list=tuple(float(s) for s in snr), p_fa_target=pfa, drops=drops,
            frames_per_drop=frames, estimator=estimator, master_seed=master_seed,
            zc_root=zc_root)
    except ValueError as exc:
        raise ValueError(f"$: {exc}") from exc


# ===== Commands =====


def _cmd_codebook(args) -> int:
    if args.design == "basis":
        cb = basis_codebook(args.mt, args.k)
    else:
        cb = build_approach_codebook(
            args.design, args.mt, args.nt, args.mr, args.nr, args.k,
            seed=args.seed, zc_root=args.zc_root)
    text = codebook_to_json(cb)
    report = verify_codebook(cb)
    if not report.passed:
        failing = [c.name for c in report.conditions if c.required and not c.passed]
        print(f"error: built codebook fails required conditions: {failing}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{cb.design}: k={cb.k} tx {cb.m_t}x{cb.n_t} rx {cb.m_r}x{cb.n_r} "
          f"required-conditions=pass -> {args.out}")
    return 0


def _cmd_pattern(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        cb = codebook_from_json(fh.read())
    grid = AngleGrid(args.grid)
    rows = list(pattern_csv_rows(cb, grid))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("theta,slot,side,power\n")
        for theta, slot, side, power in rows:
            fh.write(f"{theta!r},{slot},{side},{power!r}\n")
    print(f"{len(rows)} pattern rows ({cb.k} slots x {args.grid} angles x 2 sides) -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        cb = codebook_from_json(fh.read())
    report = verify_codebook(cb)
    for cond in report.conditions:
        status = "pass" if cond.passed else "fail"
        scope = "required" if cond.required else f"informational for design {report.design}"
        extra = f"; {cond.detail}" if cond.detail else ""
        print(f"{cond.name}: {status} (worst deviation {cond.worst:.3e}; {scope}{extra})")
    print(f"overall: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_threshold(args) -> int:
    gamma = threshold_from_fa(args.pfa, args.k, args.l, args.nr, args.nt)
    achieved = fa_closed_form(gamma, args.k, args.l, args.nr, args.nt)
    print(json.dumps({"gamma": gamma, "p_fa_target": args.pfa, "achieved_fa": achieved,
                      "k": args.k, "l": args.l, "nr": args.nr, "nt": args.nt}))
    return 0


def _number_list(doc: dict, key: str) -> list[float]:
    value = doc[key]
    if not isinstance(value, list) or not all(_is_finite_number(v) for v in value):
        raise ValueError(f"analytic config field {key!r}: expected a list of finite numbers")
    return [float(v) for v in value]


def _int_field(doc: dict, key: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"analytic config field {key!r}: expected an integer, got {value!r}")
    return value


def _analytic_rows(doc: dict, quantity: str) -> list[str]:
    if not isinstance(doc, dict):
        raise ValueError("analytic config: expected a JSON object")
    rows = []

    def fmt(value):
        return "" if value is None else repr(float(value))

    if quantity == "fa":
        k, l, nr, nt = (_int_field(doc, key) for key in ("k", "l", "nr", "nt"))
        for gamma in _number_list(doc, "gamma"):
            val = fa_closed_form(gamma, k, l, nr, nt)
            logv = fa_closed_form_log(gamma, k, l, nr, nt)
            rows.append(f"fa,{k},{l},{nr},{nt},{fmt(gamma)},,{fmt(val)},{fmt(logv)}")
    elif quantity == "md-asym":
        k, l, nr, nt = (_int_field(doc, key) for key in ("k", "l", "nr", "nt"))
        eigs = _number_list(doc, "eigenvalues")
        if any(v < 0 for v in eigs):
            raise ValueError("analytic config field 'eigenvalues': must be nonnegative")
        for gamma in _number_list(doc, "gamma"):
            for nv in _number_list(doc, "noise_var"):
                pred = asymptotic_md(eigs, gamma, nv, k, l, nr, nt)
                rows.append(f"md-asym,{k},{l},{nr},{nt},{fmt(gamma)},{fmt(nv)},"
                            f"{fmt(pred.value)},{fmt(pred.log_value)}")
    elif quantity == "lemma1":
        ratio = GeneralizedFRatio(lam=tuple(_number_list(doc, "lambda")),
                                  sigma=tuple(_number_list(doc, "sigma")))
        for t in _number_list(doc, "t"):
            val = lemma1_cdf(ratio, t)
            logv = math.log(val) if val > 0 else -math.inf
            # The ratio threshold t rides in the gamma column.
            rows.append(f"lemma1,,,,,{fmt(t)},,{fmt(val)},{fmt(logv)}")
    else:
        raise ValueError(f"unsupported quantity {quantity!r}")
    return rows


def _cmd_analytic(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        rows = _analytic_rows(doc, args.quantity)
    except KeyError as exc:
        raise ValueError(f"analytic config missing field {exc}") from exc
    text = "\n".join([ANALYTIC_HEADER] + rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{len(rows)} analytic rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    if args.config == "paper-sec6":
        doc = json.loads(json.dumps(PAPER_SEC6))
        source = "paper-sec6"
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        source = args.config
    env_seed = os.environ.get("OMNISYNC_SEED")
    if env_seed is not None:
        try:
            doc["master_seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"OMNISYNC_SEED must be an integer, got {env_seed!r}") from None
    config = experiment_config_from_doc(doc)
    gamma = threshold_from_fa(config.p_fa_target, config.k, config.l, config.n_r, config.n_t)
    manifest = {
        "schema": 1,
        "source": source,
        "resolved_config": doc,
        "gamma": gamma,
        "workers": args.workers,
        "package_version": __version__,
    }
    if args.dry_run:
        with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        print(f"config valid; gamma={gamma!r}; manifest -> {args.out}.manifest.json")
        return 0
    rows = sweep(config, workers=args.workers)
    for row in rows:
        note = ""
        if row.p_md_asym is not None and row.p_md_hat > 0:
            note = f" asym/mc={row.p_md_asym / row.p_md_hat:.3g}"
        logger.info("snr=%+.1f dB p_md=%.3e (stderr %.1e)%s",
                    row.snr_db, row.p_md_hat, row.p_md_stderr, note)
    write_results_csv(rows, args.out)
    with open(args.out + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"{len(rows)} result rows -> {args.out} (manifest alongside)")
    return 0


# ===== Entry point =====


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omnisync",
        description="Omnidirectional synchronization codebooks, detection analysis, "
                    "and Monte Carlo experiments.")
    parser.add_argument("--version", action="version", version=f"omnisync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="generate a codebook JSON file")
    p.add_argument("--mt", type=int, required=True)
    p.add_argument("--nt", type=int, default=1)
    p.add_argument("--mr", type=int, default=1)
    p.add_argument("--nr", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--design", required=True, choices=list(NAMED_DESIGNS) + ["basis"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zc-root", type=int, default=1, dest="zc_root")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_codebook)

    p = sub.add_parser("pattern", help="export beam patterns to CSV")
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--grid", type=int, default=EXPORT_GRID)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("verify", help="verify a codebook file, printing each condition")
    p.add_argument("--in", required=True, dest="infile")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("threshold", help="calibrate the detection threshold for a target FA")
    p.add_argument("--pfa", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--nr", type=int, required=True)
    p.add_argument("--nt", type=int, required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("analytic", help="evaluate analytic quantities to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--quantity", required=True, choices=["fa", "md-asym", "lemma1"])
    p.add_argument("--out")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("simulate", help="run a Monte Carlo sweep from a config file")
    p.add_argument("--config", required=True,
                   help="path to an experiment JSON, or the preset name 'paper-sec6'")
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--dry-run", action="store_true",
                   help="validate the config and write only the run manifest")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("OMNISYNC_LOGLEVEL", "INFO"),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
