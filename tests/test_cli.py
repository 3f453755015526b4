"""Command-line interface tests, driven through main() with in-process
argument lists: exit codes, file side effects, JSON/CSV payloads, env
override, and schema error reporting.
"""

import csv
import json
import math

import pytest

import omnisync
from omnisync.analysis import fa_closed_form
from omnisync.cli import main
from omnisync.detector import threshold_from_fa


def run_cli(*argv):
    return main(list(argv))


def write_config(path, **overrides):
    doc = {
        "schema": 1,
        "approach": "omni-golay",
        "k": 1, "mt": 16, "nt": 2, "mr": 4, "nr": 2, "l": 8,
        "channel": {"model": "geometric", "paths": 1, "beta": [1.0],
                    "doppler_hz": 833.3333333333334, "slot_interval_s": 0.0005},
        "snr_db": [-4.0],
        "p_fa_target": 0.01,
        "drops": 5,
        "frames_per_drop": 200,
        "estimator": "reduced",
        "master_seed": 3,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return doc


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ===== codebook / verify / pattern =====


def test_codebook_verify_pattern_round_trip(tmp_path, capsys):
    cb_path = tmp_path / "omni.json"
    assert run_cli("codebook", "--mt", "16", "--nt", "2", "--mr", "16", "--nr", "2",
                   "--k", "2", "--design", "omni-golay", "--out", str(cb_path)) == 0
    assert cb_path.exists()
    assert "required-conditions=pass" in capsys.readouterr().out

    assert run_cli("verify", "--in", str(cb_path)) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "per-slot-flatness: pass" in out

    pat_path = tmp_path / "pattern.csv"
    assert run_cli("pattern", "--in", str(cb_path), "--grid", "64",
                   "--out", str(pat_path)) == 0
    rows = read_csv_rows(pat_path)
    assert len(rows) == 2 * 64 * 2
    tx_powers = [float(r["power"]) for r in rows if r["side"] == "tx"]
    assert max(abs(p - 2.0) for p in tx_powers) <= 1e-9


def test_codebook_rejects_bad_streams_without_writing(tmp_path, capsys):
    out_path = tmp_path / "bad.json"
    assert run_cli("codebook", "--mt", "16", "--nt", "3", "--mr", "16", "--nr", "2",
                   "--k", "1", "--design", "omni-golay", "--out", str(out_path)) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out_path.exists(), "failed commands must not leave output files"


def test_verify_zc_reports_informational_flatness(tmp_path, capsys):
    cb_path = tmp_path / "zc.json"
    assert run_cli("codebook", "--mt", "64", "--nt", "1", "--mr", "16", "--nr", "2",
                   "--k", "1", "--design", "quasi-omni-zc", "--out", str(cb_path)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--in", str(cb_path)) == 0
    out = capsys.readouterr().out
    assert "per-slot-flatness: fail" in out
    assert "informational" in out
    assert "overall: pass" in out


def test_verify_missing_file(capsys):
    assert run_cli("verify", "--in", "/nonexistent/cb.json") == 1
    assert capsys.readouterr().err.startswith("error:")


def codebook_with(tmp_path, field, value):
    """A K=1 omni-golay codebook file with one top-level field replaced."""
    path = tmp_path / "edited.json"
    assert run_cli("codebook", "--mt", "4", "--nt", "2", "--mr", "4", "--nr", "2",
                   "--k", "1", "--design", "omni-golay", "--out", str(path)) == 0
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc[field] = value
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def malformed_codebook(tmp_path, kind):
    """A codebook file that parses as JSON but is not a codebook document."""
    if kind == "non-numeric":
        return codebook_with(tmp_path, "w", [[["a", "b"]]])
    path = tmp_path / f"{kind}.json"
    path.write_text("[]", encoding="utf-8")
    return path


@pytest.mark.parametrize("kind", ["array", "non-numeric"])
@pytest.mark.parametrize("command", ["verify", "pattern"])
def test_codebook_commands_reject_malformed_documents(tmp_path, capsys, command, kind):
    path = malformed_codebook(tmp_path, kind)
    capsys.readouterr()
    out = tmp_path / "pattern.csv"
    extra = ("--out", str(out)) if command == "pattern" else ()
    assert run_cli(command, "--in", str(path), *extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert {"array": "JSON object", "non-numeric": "field 'w'"}[kind] in err
    assert not out.exists()


WRONG_TYPES = [None, [2], "2"]


@pytest.mark.parametrize("field,value", [
    *((field, value) for field in ("mt", "nt", "mr", "nr", "k") for value in WRONG_TYPES),
    ("w", 5), ("w", None), ("f", "pairs"), ("f", {"0": []}),
    ("schedules", [[1]]), ("schedules", "t"), ("schedules", 3),
    ("schedules", {"t": 5}), ("schedules", {"r": [[None]]}), ("schedules", {"t": [[1.5]]}),
])
def test_verify_rejects_wrongly_typed_codebook_field(tmp_path, capsys, field, value):
    path = codebook_with(tmp_path, field, value)
    capsys.readouterr()
    assert run_cli("verify", "--in", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"field '{field}" in err


# ===== threshold =====


def test_threshold_emits_calibrated_json(capsys):
    assert run_cli("threshold", "--pfa", "1e-2", "--k", "1", "--l", "64",
                   "--nr", "2", "--nt", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["gamma"] - 0.0769301181402087) <= 1e-12
    assert abs(doc["achieved_fa"] - 1e-2) <= 1e-12
    assert doc["l"] == 64


def test_threshold_rejects_degenerate_geometry(capsys):
    assert run_cli("threshold", "--pfa", "1e-2", "--k", "1", "--l", "2",
                   "--nr", "1", "--nt", "2") == 1
    assert "error:" in capsys.readouterr().err


# ===== analytic =====


def test_analytic_fa_rows(tmp_path):
    config = tmp_path / "fa.json"
    config.write_text(json.dumps({"k": 1, "l": 64, "nr": 2, "nt": 2, "gamma": [0.05]}),
                      encoding="utf-8")
    out = tmp_path / "fa.csv"
    assert run_cli("analytic", "--config", str(config), "--quantity", "fa",
                   "--out", str(out)) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "quantity,k,l,nr,nt,gamma,noise_var,value,log_value"
    fields = lines[1].split(",")
    assert fields[0] == "fa"
    assert abs(float(fields[7]) - 0.11627867139820966) <= 1e-15
    assert abs(float(fields[8]) - math.log(0.11627867139820966)) <= 1e-12


def test_analytic_md_asym_to_stdout(tmp_path, capsys):
    config = tmp_path / "md.json"
    config.write_text(json.dumps({"k": 1, "l": 2, "nr": 1, "nt": 1,
                                  "eigenvalues": [1.0], "gamma": [0.1],
                                  "noise_var": [1.0]}), encoding="utf-8")
    assert run_cli("analytic", "--config", str(config), "--quantity", "md-asym") == 0
    lines = capsys.readouterr().out.splitlines()
    value = float(lines[1].split(",")[7])
    assert abs(value - 1.0 / 18.0) <= 1e-15


def test_analytic_lemma_rows(tmp_path, capsys):
    config = tmp_path / "lemma.json"
    config.write_text(json.dumps({"lambda": [1.0], "sigma": [1.0], "t": [0.01]}),
                      encoding="utf-8")
    assert run_cli("analytic", "--config", str(config), "--quantity", "lemma1") == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[1].split(",")[7]) == 0.01


def test_analytic_missing_field(tmp_path, capsys):
    config = tmp_path / "short.json"
    config.write_text(json.dumps({"k": 1}), encoding="utf-8")
    assert run_cli("analytic", "--config", str(config), "--quantity", "fa") == 1
    assert "missing field" in capsys.readouterr().err


ANALYTIC_DOCS = {
    "fa": {"k": 1, "l": 8, "nr": 1, "nt": 1, "gamma": [0.1]},
    "md-asym": {"k": 1, "l": 2, "nr": 1, "nt": 1, "eigenvalues": [1.0], "gamma": [0.1],
                "noise_var": [1.0]},
    "lemma1": {"lambda": [1.0], "sigma": [1.0], "t": [0.01]},
}


@pytest.mark.parametrize("quantity,field", [
    ("fa", "gamma"), ("md-asym", "gamma"), ("md-asym", "noise_var"),
    ("md-asym", "eigenvalues"), ("lemma1", "lambda"), ("lemma1", "sigma"), ("lemma1", "t"),
])
def test_analytic_rejects_non_list_field(tmp_path, capsys, quantity, field):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(dict(ANALYTIC_DOCS[quantity], **{field: 0.5})),
                      encoding="utf-8")
    assert run_cli("analytic", "--config", str(config), "--quantity", quantity) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(field) in err


@pytest.mark.parametrize("value", WRONG_TYPES)
@pytest.mark.parametrize("quantity,field", [
    ("fa", "k"), ("fa", "l"), ("fa", "nr"), ("fa", "nt"), ("md-asym", "k"), ("md-asym", "nt"),
])
def test_analytic_rejects_non_integer_field(tmp_path, capsys, quantity, field, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(dict(ANALYTIC_DOCS[quantity], **{field: value})),
                      encoding="utf-8")
    assert run_cli("analytic", "--config", str(config), "--quantity", quantity) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"field {field!r}: expected an integer" in err


def test_analytic_md_asym_rejects_negative_eigenvalue(tmp_path, capsys):
    config = tmp_path / "neg.json"
    config.write_text(json.dumps(dict(ANALYTIC_DOCS["md-asym"], eigenvalues=[1.0, -0.5])),
                      encoding="utf-8")
    assert run_cli("analytic", "--config", str(config), "--quantity", "md-asym") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nonnegative" in err


# ===== simulate =====


def test_simulate_writes_rows_and_manifest(tmp_path):
    config_path = tmp_path / "exp.json"
    write_config(config_path)
    out = tmp_path / "run.csv"
    assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 0
    rows = read_csv_rows(out)
    assert len(rows) == 1
    assert rows[0]["approach"] == "omni-golay"
    assert rows[0]["seed"] == "3"
    assert int(rows[0]["trials"]) == 5 * 200
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["resolved_config"]["master_seed"] == 3
    assert manifest["package_version"] == omnisync.__version__
    assert abs(manifest["gamma"] - threshold_from_fa(0.01, 1, 8, 2, 2)) <= 1e-15


def test_simulate_env_seed_override(tmp_path, monkeypatch):
    config_path = tmp_path / "exp.json"
    write_config(config_path)
    out = tmp_path / "run.csv"
    monkeypatch.setenv("OMNISYNC_SEED", "9")
    assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 0
    assert read_csv_rows(out)[0]["seed"] == "9"
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["resolved_config"]["master_seed"] == 9


def test_simulate_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "exp.json"
    write_config(config_path)
    monkeypatch.setenv("OMNISYNC_SEED", "lucky")
    assert run_cli("simulate", "--config", str(config_path),
                   "--out", str(tmp_path / "run.csv")) == 1
    assert "OMNISYNC_SEED" in capsys.readouterr().err


def test_simulate_dry_run_validates_without_rows(tmp_path, capsys):
    config_path = tmp_path / "exp.json"
    write_config(config_path)
    out = tmp_path / "run.csv"
    assert run_cli("simulate", "--config", str(config_path), "--out", str(out),
                   "--dry-run") == 0
    assert "config valid" in capsys.readouterr().out
    assert not out.exists()
    assert (tmp_path / "run.csv.manifest.json").exists()


def test_simulate_reports_every_schema_violation(tmp_path, capsys):
    config_path = tmp_path / "broken.json"
    write_config(config_path, approach="bogus", drops=0, p_fa_target=2.0,
                 channel={"model": "nope", "paths": 1, "beta": [1.0],
                          "doppler_hz": 1.0, "slot_interval_s": 1.0},
                 zz="extra")
    out = tmp_path / "run.csv"
    assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    for needle in ("$.approach", "$.drops", "$.p_fa_target", "$.channel.model", "$.zz"):
        assert needle in err, f"expected {needle} in the error listing"
    assert err.count("$.p_fa_target") == 1
    assert not out.exists()
    assert not (tmp_path / "run.csv.manifest.json").exists()


@pytest.mark.parametrize("value", ["missing", "0.01", math.nan])
def test_simulate_reports_one_error_per_bad_p_fa_target(tmp_path, capsys, value):
    """A non-number is reported once as such, not again as out of range."""
    config_path = tmp_path / "broken.json"
    doc = write_config(config_path, p_fa_target=value)
    if value == "missing":
        del doc["p_fa_target"]
        config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("simulate", "--config", str(config_path),
                   "--out", str(tmp_path / "run.csv")) == 1
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "$.p_fa_target" in ln]
    assert len(lines) == 1, lines
    assert "expected a finite number" in lines[0]


def test_simulate_rejects_non_finite_numbers(tmp_path, capsys):
    """NaN, Infinity and integers beyond the float range parse as JSON
    numbers; each is reported under its path before any drop runs."""
    config_path = tmp_path / "broken.json"
    write_config(config_path, snr_db=[-4.0, math.nan, math.inf, 10**400],
                 channel={"model": "geometric", "paths": 1, "beta": [math.nan],
                          "doppler_hz": math.nan, "slot_interval_s": math.inf})
    assert "NaN" in config_path.read_text(encoding="utf-8")
    out = tmp_path / "run.csv"
    assert run_cli("simulate", "--config", str(config_path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    for needle in ("$.snr_db", "$.channel.beta", "$.channel.doppler_hz",
                   "$.channel.slot_interval_s"):
        assert needle in err, f"expected {needle} in the error listing"
    assert not out.exists()
    assert not (tmp_path / "run.csv.manifest.json").exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_simulate_rejects_workers_below_one(tmp_path, capsys, workers):
    config_path = tmp_path / "exp.json"
    write_config(config_path)
    out = tmp_path / "run.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--config", str(config_path), "--out", str(out),
                "--workers", workers)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_paper_sec6_preset_dry_run(tmp_path):
    out = tmp_path / "sec6.csv"
    assert run_cli("simulate", "--config", "paper-sec6", "--out", str(out),
                   "--dry-run") == 0
    manifest = json.loads((tmp_path / "sec6.csv.manifest.json").read_text(encoding="utf-8"))
    resolved = manifest["resolved_config"]
    assert resolved["mt"] == 64 and resolved["mr"] == 16
    assert resolved["drops"] == 500 and resolved["frames_per_drop"] == 10000
    assert resolved["p_fa_target"] == 1e-4
    achieved = fa_closed_form(manifest["gamma"], 1, 64, 2, 2)
    assert abs(achieved - 1e-4) <= 1e-12


def test_simulate_missing_config_file(tmp_path, capsys):
    assert run_cli("simulate", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "run.csv")) == 1
    assert capsys.readouterr().err.startswith("error:")


# ===== global flags =====


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert omnisync.__version__ in capsys.readouterr().out
