import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import featdc.classify as classify
from featdc.cli import main
from featdc.config import config_echo, parse_config
from featdc.dataio import save_libsvm, select_instances
from featdc.datasets import make_blobs
from featdc.errors import ConfigError
from featdc.fuse import LearnerSpec

FIXTURE_MODEL = Path(__file__).parent / "fixtures" / "model_v1.json"


def write_blob_file(path, n=200, n_features=8, seed=0, separation=8.0):
    ds = make_blobs(n, n_features=n_features, separation=separation,
                    seed=seed)
    save_libsvm(ds, path)
    return ds


def base_config(tmp_path, **overrides):
    cfg = {
        "train_path": str(tmp_path / "train.libsvm"),
        "split": {"train_fraction": 0.8, "seed": 0},
        "plan": [
            {"method": "rd", "n_subspaces": 2, "group_size": 4},
            {"method": "pca", "n_subspaces": 2, "group_size": 4},
        ],
        "local": {"type": "linear"},
        "global": {"type": "trbf", "p": 2},
        "out_dir": str(tmp_path / "out"),
        "seed": 7,
        "threads": 1,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# happy paths


def test_train_writes_model_and_report(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    rc = main(["train", "--config", str(base_config(tmp_path))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "model written to" in out
    model_path = tmp_path / "out" / "model.json"
    report_path = tmp_path / "out" / "train_report.json"
    assert model_path.exists() and report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["command"] == "train"
    assert report["seed"] == 7
    assert report["metrics"]["error_rate_pct"] == 0.0
    assert "sha256" in report["artifacts"]["model"]


def test_eval_prints_two_decimal_error_rate(tmp_path, capsys):
    ds = write_blob_file(tmp_path / "train.libsvm")
    rc = main(["train", "--config", str(base_config(tmp_path))])
    assert rc == 0
    capsys.readouterr()
    # four in-cluster instances, one with its label flipped: the memorizing
    # model disagrees exactly there, so the error rate is exactly 25.00
    four = select_instances(ds, [0, 1, 2, 3])
    flipped = type(four)(four.X, np.concatenate([-four.y[:1], four.y[1:]]))
    save_libsvm(flipped, tmp_path / "test4.libsvm")
    rc = main(["eval", "--model", str(tmp_path / "out" / "model.json"),
               "--test", str(tmp_path / "test4.libsvm"),
               "--out", str(tmp_path / "evalout")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error rate: 25.00" in out
    report = json.loads((tmp_path / "evalout" / "eval_report.json").read_text())
    assert report["metrics"]["mismatches"] == 1
    assert report["metrics"]["n"] == 4


def test_bench_reports_zero_reduction_when_both_perfect(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    cfg = base_config(tmp_path, baseline="linear")
    rc = main(["bench", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "error reduction over baseline: 0.00%" in out
    report = json.loads((tmp_path / "out" / "bench_report.json").read_text())
    assert report["baseline"]["error_rate_pct"] == 0.0
    assert report["reduction"] == 0.0


def test_bench_skips_infeasible_baseline(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    cfg = base_config(
        tmp_path,
        baseline="trbf",
        guards={"max_dense_features": 4096, "max_intrinsic_dim": 40},
    )
    # h=4 fused inputs stay under the cap (C(4+2,2)=15) but the 8-feature
    # baseline needs C(10,2)=45 coordinates and gets skipped, not failed
    rc = main(["bench", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline skipped:" in out
    report = json.loads((tmp_path / "out" / "bench_report.json").read_text())
    assert report["baseline"]["skipped"] is True
    assert report["reduction"] is None


def test_inspect_describes_model(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    main(["train", "--config", str(base_config(tmp_path))])
    capsys.readouterr()
    rc = main(["inspect", "--model", str(tmp_path / "out" / "model.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kind: dc_model" in out
    assert "part 0: rd" in out
    assert "part 1: pca" in out
    assert "global:" in out


def test_module_entry_point_runs(tmp_path):
    write_blob_file(tmp_path / "train.libsvm")
    cfg = base_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "featdc", "train", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "model written to" in proc.stdout


def test_seed_override_lands_in_report(tmp_path):
    write_blob_file(tmp_path / "train.libsvm")
    rc = main(["train", "--config", str(base_config(tmp_path)),
               "--seed", "99"])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "train_report.json").read_text())
    assert report["seed"] == 99
    assert report["config"]["seed"] == 99


def test_trbf_memory_guard_exits_2_tagged_fusion(tmp_path, capsys,
                                                 monkeypatch):
    write_blob_file(tmp_path / "train.libsvm")
    monkeypatch.setattr(classify, "_physical_memory", lambda: 1024)
    rc = main(["train", "--config", str(base_config(tmp_path))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fusion: ") and "physical memory" in err
    assert not (tmp_path / "out" / "model.json").exists()


def test_training_is_reproducible_byte_for_byte(tmp_path):
    write_blob_file(tmp_path / "train.libsvm")
    cfg = base_config(tmp_path)
    rc = main(["train", "--config", str(cfg)])
    assert rc == 0
    first = sha256(tmp_path / "out" / "model.json")
    rc = main(["train", "--config", str(cfg)])
    assert rc == 0
    assert sha256(tmp_path / "out" / "model.json") == first


def test_train_timings_cover_the_total(tmp_path):
    # big enough that untimed bookkeeping is negligible next to the stages
    write_blob_file(tmp_path / "train.libsvm", n=3000, n_features=24, seed=1,
                    separation=2.0)
    cfg = base_config(tmp_path, plan=[
        {"method": "rd", "n_subspaces": 3, "group_size": 8},
        {"method": "pca", "n_subspaces": 3, "group_size": 8},
        {"method": "dca", "n_subspaces": 3, "group_size": 8},
        {"method": "bcd", "n_subspaces": 3, "group_size": 8},
        {"method": "abd", "n_subspaces": 3, "group_size": 8},
    ])
    rc = main(["train", "--config", str(cfg)])
    assert rc == 0
    t = json.loads((tmp_path / "out" / "train_report.json").read_text())[
        "timings_s"]
    stage_sum = (t["parse"] + t["fit_decomposition"] + t["local_training"]
                 + t["fusion"] + t["prediction"] + t["persist"])
    assert abs(stage_sum - t["total"]) <= 0.05 * t["total"]
    # per-method fit timings decompose the decomposition stage
    method_sum = sum(t[k] for k in t if k.startswith("fit_")
                     and k != "fit_decomposition")
    assert method_sum <= t["fit_decomposition"] + 1e-9


def test_report_table_lists_timings_in_recorded_order(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    cfg = base_config(tmp_path, plan=[
        {"method": "pca", "n_subspaces": 2, "group_size": 4},
        {"method": "rd", "n_subspaces": 2, "group_size": 4},
    ])
    rc = main(["train", "--config", str(cfg)])
    assert rc == 0
    rows = [line.split("time ", 1)[1].split(" (s)")[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("| time ")]
    # fit_* rows follow the plan, not the method table
    assert rows == ["parse", "fit_pca", "fit_rd", "fit_decomposition",
                    "local_training", "fusion", "prediction", "persist",
                    "total"]
    report = json.loads((tmp_path / "out" / "train_report.json").read_text())
    assert list(report["timings_s"]) == rows


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_config_problems_are_collected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "plan": [{"method": "fft", "n_subspaces": 2, "group_size": 4}],
        "typo_key": 1,
        "threads": 0,
    }))
    rc = main(["train", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "problem(s) in config" in err
    assert "train_path" in err       # missing required key
    assert "fft" in err              # unknown method
    assert "typo_key" in err         # unknown key
    assert "threads" in err          # non-positive


def test_missing_train_file_is_data_error(tmp_path, capsys):
    cfg = base_config(tmp_path)  # train.libsvm never written
    rc = main(["train", "--config", str(cfg)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_malformed_train_file_is_data_error(tmp_path, capsys):
    (tmp_path / "train.libsvm").write_text("+1 3:abc\n")
    rc = main(["train", "--config", str(base_config(tmp_path))])
    assert rc == 3
    assert "line 1" in capsys.readouterr().err


def test_non_utf8_test_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin.libsvm"
    path.write_bytes(b"-1 2:\xff\n")
    rc = main(["eval", "--model", str(FIXTURE_MODEL), "--test", str(path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "latin.libsvm" in err and "UTF-8" in err


def test_numeric_overflow_is_numeric_error(tmp_path, capsys):
    lines = []
    rng = np.random.default_rng(0)
    for i in range(40):
        label = 1 if i % 2 == 0 else -1
        feats = " ".join(f"{j + 1}:{1e200 * rng.standard_normal()!r}"
                         for j in range(8))
        lines.append(f"{label} {feats}")
    (tmp_path / "train.libsvm").write_text("\n".join(lines) + "\n")
    cfg = base_config(tmp_path, scale_features=False)
    rc = main(["train", "--config", str(cfg)])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_eval_refuses_other_format_version(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    main(["train", "--config", str(base_config(tmp_path))])
    capsys.readouterr()
    model_path = tmp_path / "out" / "model.json"
    doc = json.loads(model_path.read_text())
    doc["version"] = 999
    model_path.write_text(json.dumps(doc))
    rc = main(["eval", "--model", str(model_path),
               "--test", str(tmp_path / "train.libsvm")])
    assert rc == 3
    assert "refusing" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "bench", "eval"])
def test_thread_override_must_be_positive(tmp_path, capsys, command):
    write_blob_file(tmp_path / "train.libsvm")
    if command == "eval":
        # eval only predicts, which runs on the calling thread: no --threads
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--model", str(FIXTURE_MODEL),
                  "--test", str(tmp_path / "train.libsvm"), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        return
    args = [command, "--config", str(base_config(tmp_path))]
    for threads in ("0", "-3"):
        rc = main(args + ["--threads", threads])
        assert rc == 2
        assert "--threads must be >= 1" in capsys.readouterr().err


def test_malformed_model_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "featdc-model", "version": 1,
                                "kind": "dc_model", "payload": {}}))
    rc = main(["inspect", "--model", str(path)])
    assert rc == 3
    assert "m.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config-level contracts exercised without training


def test_wide_sparse_plan_validates():
    cfg = parse_config({
        "train_path": "rcv1.libsvm",
        "n_features_override": 47236,
        "plan": [
            {"method": "rd", "n_subspaces": 4, "group_size": 23618},
            {"method": "abd", "n_subspaces": 4, "group_size": 23618},
        ],
        "global": {"type": "trbf", "p": 3},
    }, "inline")
    assert cfg.plan_triples() == [("rd", 4, 23618), ("abd", 4, 23618)]


FULL_CONFIG = {
    "train_path": "train.libsvm", "test_path": "test.libsvm",
    "split": {"train_fraction": 0.8, "seed": 0}, "scale_features": True,
    "positive_label": 2, "n_features_override": 47236,
    "plan": [{"method": "rd", "n_subspaces": 4, "group_size": 40}],
    "local": {"type": "linear", "lam": 1.0},
    "global": {"type": "trbf", "p": 2, "sigma": None, "lam": None},
    "guards": {"max_dense_features": 4096, "max_intrinsic_dim": 20000},
    "crossfit_fusion": False, "dca_ridge": None, "baseline": "linear",
    "out_dir": "out", "threads": 4, "seed": 7,
}


def test_config_echo_is_pinned():
    # reports and model snapshots carry this text; key order included
    echo = json.dumps(config_echo(parse_config(FULL_CONFIG, "inline")))
    assert echo == (
        '{"train_path": "train.libsvm", "test_path": "test.libsvm", '
        '"split": {"train_fraction": 0.8, "seed": 0}, '
        '"scale_features": true, "positive_label": 2, '
        '"n_features_override": 47236, '
        '"plan": [{"method": "rd", "n_subspaces": 4, "group_size": 40}], '
        '"local": {"type": "linear", "lam": 1.0, "sigma": null, "p": 2}, '
        '"global": {"type": "trbf", "lam": null, "sigma": null, "p": 2}, '
        '"guards": {"max_dense_features": 4096, "max_intrinsic_dim": 20000}, '
        '"out_dir": "out", "threads": 4, "seed": 7, '
        '"crossfit_fusion": false, "dca_ridge": null, "baseline": "linear"}')


def test_rerun_from_echo_reproduces_config():
    minimal = {"train_path": "x",
               "plan": [{"method": "abd", "n_subspaces": 2, "group_size": 3}]}
    others = {"split": {"train_fraction": 0.5}, "crossfit_fusion": True,
              "dca_ridge": 0.25, "local": {"lam": 3, "p": 4},
              "global": {"type": "linear", "sigma": 1.5},
              "guards": {"max_intrinsic_dim": 99}, "baseline": "trbf"}
    for doc in (FULL_CONFIG, minimal, {**minimal, **others}):
        cfg = parse_config(doc, "inline")
        assert parse_config(config_echo(cfg), "echo") == cfg


def test_global_without_type_is_trbf():
    cfg = parse_config({
        "train_path": "x",
        "plan": [{"method": "rd", "n_subspaces": 1, "group_size": 1}],
        "global": {"p": 3},
    }, "inline")
    assert cfg.global_ == LearnerSpec(type="trbf", p=3)
    assert cfg.local == LearnerSpec(type="linear")


def test_zero_subspaces_rejected():
    with pytest.raises(ConfigError, match="n_subspaces"):
        parse_config({
            "train_path": "x",
            "plan": [{"method": "rd", "n_subspaces": 0, "group_size": 4}],
        }, "inline")
