import base64
import gzip
import hashlib
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import featdc.classify as classify
import featdc.cli as cli
from featdc.cli import main
from featdc.config import config_echo, parse_config
from featdc.dataio import (Dataset, load_libsvm, save_libsvm, select_instances,
                           serialize_libsvm)
from featdc.errors import ConfigError
from featdc.fuse import LearnerSpec, predict_dc
from featdc.persist import load_dc_model
from featdc.report import recording, timed

from oracles import make_blobs

FIXTURE_MODEL = Path(__file__).parent / "fixtures" / "model_v1.json"
FIXTURE_MODEL_V3 = FIXTURE_MODEL.with_name("model_v3.json")


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


def test_eval_of_version_1_fixture_ignores_removed_config_keys(tmp_path,
                                                              capsys):
    # the fixture's config snapshot still holds the removed keys
    # `crossfit_fusion`, `dca_ridge` and `guards.max_intrinsic_dim`; eval
    # never parses it
    ds = make_blobs(200, n_features=6, separation=2.0, seed=3)
    save_libsvm(ds, tmp_path / "test6.libsvm")
    rc = main(["eval", "--model", str(FIXTURE_MODEL),
               "--test", str(tmp_path / "test6.libsvm"),
               "--out", str(tmp_path / "evalout")])
    assert rc == 0
    assert "error rate:" in capsys.readouterr().out
    report = json.loads((tmp_path / "evalout" / "eval_report.json").read_text())
    assert report["config"]["crossfit_fusion"] is False
    assert "dca_ridge" in report["config"]
    assert "max_intrinsic_dim" in report["config"]["guards"]
    assert report["metrics"]["n"] == 200


def test_scaled_run_with_a_test_file_evaluates_alike(tmp_path):
    # train scales the training file and a separate test file by the
    # training maxima; the model stores that scale and applies it in eval
    ds = make_blobs(250, n_features=8, separation=1.0, seed=5)
    save_libsvm(select_instances(ds, np.arange(200)), tmp_path / "train.libsvm")
    save_libsvm(select_instances(ds, np.arange(200, 250)),
                tmp_path / "test.libsvm")
    config = base_config(tmp_path, split=None, scale_features=True,
                         test_path=str(tmp_path / "test.libsvm"))
    assert main(["train", "--config", str(config)]) == 0
    model_path = tmp_path / "out" / "model.json"
    payload = json.loads(model_path.read_text())["payload"]
    assert payload["feature_scale"]["shape"] == [8]
    assert "feature_scale" not in payload["config_snapshot"]
    train_report = json.loads((tmp_path / "out" / "train_report.json").read_text())
    assert main(["eval", "--model", str(model_path),
                 "--test", str(tmp_path / "test.libsvm"),
                 "--out", str(tmp_path / "evalout")]) == 0
    eval_report = json.loads((tmp_path / "evalout" / "eval_report.json").read_text())
    assert eval_report["metrics"]["n"] == 50
    assert (eval_report["metrics"]["error_rate_pct"]
            == train_report["metrics"]["error_rate_pct"] > 0.0)


@pytest.mark.parametrize("local", [{"type": "linear"},
                                   {"type": "trbf", "p": 2}])
def test_library_scoring_of_a_scaled_model_matches_eval(tmp_path, monkeypatch,
                                                        local):
    # features on scales 0.01..50: the model holds its max-abs scale, so
    # load_dc_model + predict_dc on the raw parsed test file scores what
    # `featdc eval` scores, on the collapsed map and on the per-view route
    ds = make_blobs(250, n_features=8, separation=1.0, seed=5)
    raw = ds.X.toarray() * np.geomspace(0.01, 50.0, 8)[:, None]
    ds = Dataset(raw, ds.y)
    save_libsvm(select_instances(ds, np.arange(200)), tmp_path / "train.libsvm")
    save_libsvm(select_instances(ds, np.arange(200, 250)),
                tmp_path / "test.libsvm")
    config = base_config(tmp_path, split=None, scale_features=True,
                         test_path=str(tmp_path / "test.libsvm"), local=local)
    assert main(["train", "--config", str(config)]) == 0
    model_path = str(tmp_path / "out" / "model.json")
    seen = []

    def spy(model, test):
        seen.append(predict_dc(model, test))
        return seen[-1]

    monkeypatch.setattr(cli, "predict_dc", spy)
    assert main(["eval", "--model", model_path,
                 "--test", str(tmp_path / "test.libsvm"),
                 "--out", str(tmp_path / "evalout")]) == 0
    model = load_dc_model(model_path)
    assert (model.at is None) == (local["type"] == "trbf")
    test = load_libsvm(tmp_path / "test.libsvm",
                       n_features=model.decomposition.n_features_in)
    _, scores = predict_dc(model, test)
    _, eval_scores = seen[0]
    assert (hashlib.sha256(scores.tobytes()).hexdigest()
            == hashlib.sha256(eval_scores.tobytes()).hexdigest())


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


def test_bench_skips_infeasible_baseline(tmp_path, capsys, monkeypatch):
    write_blob_file(tmp_path / "train.libsvm")
    cfg = base_config(tmp_path, baseline="trbf")
    # a 384 KiB budget (three quarters of 512 KiB) holds the global on h=4
    # fused inputs (J = C(4+2,2) = 15, 249,360 B) but not the 8-feature
    # baseline (J = C(10,2) = 45, 769,680 B), which is skipped, not failed
    monkeypatch.setattr(classify, "_physical_memory", lambda: 2**19)
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


def test_inspect_names_the_scoring_route(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    model = str(tmp_path / "out" / "model.json")
    main(["train", "--config", str(base_config(tmp_path))])
    capsys.readouterr()
    assert main(["inspect", "--model", model]) == 0
    assert "scoring: linear map 4 x 8\n" in capsys.readouterr().out
    main(["train", "--config",
          str(base_config(tmp_path, local={"type": "trbf", "p": 2}))])
    capsys.readouterr()
    assert main(["inspect", "--model", model]) == 0
    assert "scoring: per-view (trbf locals)\n" in capsys.readouterr().out


def test_inspect_shows_the_input_map(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    model = str(tmp_path / "out" / "model.json")
    main(["train", "--config", str(base_config(tmp_path))])
    capsys.readouterr()
    assert main(["inspect", "--model", model]) == 0
    out = capsys.readouterr().out
    assert "input scale: none\n" in out and "positive label: sign\n" in out
    main(["train", "--config", str(base_config(tmp_path, scale_features=True,
                                               positive_label=-1))])
    capsys.readouterr()
    assert main(["inspect", "--model", model]) == 0
    scale = load_dc_model(model).feature_scale
    out = capsys.readouterr().out
    assert (f"input scale: max-abs, 8 values in [{scale.min():.6g}, "
            f"{scale.max():.6g}]\n") in out
    assert "positive label: -1\n" in out


def test_nan_positive_label_in_config_exits_2(tmp_path, capsys):
    # Python's JSON reader takes NaN, which matches no raw label
    write_blob_file(tmp_path / "train.libsvm")
    config = base_config(tmp_path, positive_label=float("nan"))
    assert "NaN" in config.read_text()
    assert main(["train", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "positive_label: must be a finite number, got nan" in err
    assert "Traceback" not in err


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
    j = 15  # the global on h=4 fused inputs at p=2: C(4+2,2)
    need = 8 * (2 * j * j + j * classify.EXPAND_CHUNK)
    fits = -(-4 * need // 3)  # the least memory whose three quarters hold need
    monkeypatch.setattr(classify, "_physical_memory", lambda: fits - 1)
    rc = main(["train", "--config", str(base_config(tmp_path))])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fusion: ") and "physical memory" in err
    assert not (tmp_path / "out" / "model.json").exists()
    monkeypatch.setattr(classify, "_physical_memory", lambda: fits)
    assert main(["train", "--config", str(base_config(tmp_path))]) == 0
    assert (tmp_path / "out" / "model.json").exists()


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


def test_eval_timings_cover_the_total(tmp_path):
    # big enough that untimed bookkeeping is negligible next to the stages
    write_blob_file(tmp_path / "train.libsvm", n=3000, n_features=24, seed=1,
                    separation=2.0)
    cfg = base_config(tmp_path, split=None, plan=[
        {"method": "rd", "n_subspaces": 3, "group_size": 8},
        {"method": "pca", "n_subspaces": 3, "group_size": 8},
        {"method": "bcd", "n_subspaces": 3, "group_size": 8},
        {"method": "abd", "n_subspaces": 3, "group_size": 8},
    ])
    assert main(["train", "--config", str(cfg)]) == 0
    rc = main(["eval", "--model", str(tmp_path / "out" / "model.json"),
               "--test", str(tmp_path / "train.libsvm"),
               "--out", str(tmp_path / "evalout")])
    assert rc == 0
    t = json.loads((tmp_path / "evalout" / "eval_report.json").read_text())[
        "timings_s"]
    assert list(t) == ["load", "parse", "prediction", "total"]
    stage_sum = t["load"] + t["parse"] + t["prediction"]
    assert abs(stage_sum - t["total"]) <= 0.05 * t["total"]


def test_report_table_lists_timings_in_recorded_order(tmp_path, capsys):
    write_blob_file(tmp_path / "train.libsvm")
    for command in ("train", "bench"):
        for methods in (("pca", "rd"), ("pca", "rd", "pca")):
            cfg = base_config(tmp_path, plan=[
                {"method": method, "n_subspaces": 2, "group_size": 4}
                for method in methods])
            rc = main([command, "--config", str(cfg)])
            assert rc == 0
            rows = [line.split("time ", 1)[1].split(" (s)")[0]
                    for line in capsys.readouterr().out.splitlines()
                    if line.startswith("| time ")]
            # fit_* rows follow the plan, not the method table; a repeated
            # method sums into the row where it first ended
            assert rows == (["parse", "fit_pca", "fit_rd", "fit_decomposition",
                             "local_training", "fusion", "prediction"]
                            + ["baseline"] * (command == "bench")
                            + ["persist", "total"]), (command, methods)
            report = json.loads(
                (tmp_path / "out" / f"{command}_report.json").read_text())
            assert list(report["timings_s"]) == rows


def test_timed_sums_a_key_and_keeps_each_thread_apart():
    def worker(out):
        with timed("worker"):
            pass  # outside any recording of its own
        with recording() as own:
            with timed("worker"):
                pass
        out.append(own)

    own = []
    with recording() as t:
        with timed("a"):
            time.sleep(0.01)
        with timed("b"):
            pass
        thread = threading.Thread(target=worker, args=(own,))
        thread.start()
        thread.join(timeout=10)
        with timed("a"):
            time.sleep(0.01)
    assert not thread.is_alive()
    assert list(t) == ["a", "b"] and t["a"] >= 0.02
    assert list(own[0]) == ["worker"]
    with timed("a"):  # no recording open: kept nowhere
        pass
    assert list(t) == ["a", "b"]


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_config_problems_are_collected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "plan": [{"method": "fft", "n_subspaces": 2, "group_size": 4}],
        "typo_key": 1,
        "threads": 0,
        "guards": {"max_intrinsic_dim": 20000},
        "crossfit_fusion": True,
        "dca_ridge": 0.25,
    }))
    rc = main(["train", "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "problem(s) in config" in err
    assert "train_path" in err       # missing required key
    assert "fft" in err              # unknown method
    assert "typo_key" in err         # unknown key
    assert "threads" in err          # non-positive
    assert "max_intrinsic_dim" in err  # removed option, now an unknown key
    assert "crossfit_fusion" in err    # removed option, now an unknown key
    assert "unknown key 'dca_ridge'" in err  # removed option


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
    # the rd + pca plan, and a dca plan whose ridge the overflow makes NaN
    for plan in ({}, {"plan": [{"method": "dca", "n_subspaces": 2,
                                "group_size": 4}]}):
        cfg = base_config(tmp_path, scale_features=False, **plan)
        rc = main(["train", "--config", str(cfg)])
        assert rc == 4
        assert "error: decomposition fitting: " in capsys.readouterr().err


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


def test_eval_of_unknown_method_exits_3(tmp_path, capsys):
    doc = json.loads(FIXTURE_MODEL.read_text())
    doc["payload"]["decomposition"]["parts"][0]["method"] = "fft"
    model_path = tmp_path / "fft.json"
    model_path.write_text(json.dumps(doc))
    ds = make_blobs(50, n_features=6, separation=2.0, seed=3)
    save_libsvm(ds, tmp_path / "test6.libsvm")
    rc = main(["eval", "--model", str(model_path),
               "--test", str(tmp_path / "test6.libsvm"),
               "--out", str(tmp_path / "evalout")])
    assert rc == 3
    assert "unknown decomposition method 'fft'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["inspect", "eval"])
def test_other_document_kind_exits_3(tmp_path, capsys, command):
    doc = json.loads(FIXTURE_MODEL.read_text())
    doc["kind"] = "decomposition"
    model_path = tmp_path / "kind.json"
    model_path.write_text(json.dumps(doc))
    save_libsvm(make_blobs(50, n_features=6, seed=3), tmp_path / "t.libsvm")
    args = {"inspect": [], "eval": ["--test", str(tmp_path / "t.libsvm"),
                                    "--out", str(tmp_path / "evalout")]}
    rc = main([command, "--model", str(model_path)] + args[command])
    assert rc == 3
    assert "document kind 'decomposition'" in capsys.readouterr().err


def test_eval_of_model_whose_parts_do_not_fit_exits_3(tmp_path, capsys):
    # one fusion row short: refused at load, before any numpy broadcast
    doc = json.loads(FIXTURE_MODEL.read_text())
    r_shift = doc["payload"]["r_shift"]
    r_shift["hex"].pop()
    r_shift["shape"] = [6]
    model_path = tmp_path / "short.json"
    model_path.write_text(json.dumps(doc))
    save_libsvm(make_blobs(50, n_features=6, seed=3), tmp_path / "t.libsvm")
    rc = main(["eval", "--model", str(model_path),
               "--test", str(tmp_path / "t.libsvm"),
               "--out", str(tmp_path / "evalout")])
    assert rc == 3
    assert "r_shift has shape (6,), not (7,)" in capsys.readouterr().err


def flatten_abd_transform(parts):
    parts[4]["transform"]["shape"] = [1, 4]


def index_past_the_end(parts):
    parts[0]["index_groups"][0][-1] = 6


@pytest.mark.parametrize("command", ["inspect", "eval"])
@pytest.mark.parametrize("edit, message", [
    (flatten_abd_transform, "a abd part's transform has shape (1, 4)"),
    (index_past_the_end, "a rd part's index group reaches outside"),
])
def test_part_of_the_wrong_shape_exits_3(tmp_path, capsys, command, edit,
                                         message):
    # refused at load with the part named, before any numpy broadcast
    doc = json.loads(FIXTURE_MODEL.read_text())
    edit(doc["payload"]["decomposition"]["parts"])
    model_path = tmp_path / "shape.json"
    model_path.write_text(json.dumps(doc))
    save_libsvm(make_blobs(50, n_features=6, seed=3), tmp_path / "t.libsvm")
    args = {"inspect": [], "eval": ["--test", str(tmp_path / "t.libsvm"),
                                    "--out", str(tmp_path / "evalout")]}
    rc = main([command, "--model", str(model_path)] + args[command])
    assert rc == 3
    assert message in capsys.readouterr().err


def test_malformed_model_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format": "featdc-model", "version": 1,
                                "kind": "dc_model", "payload": {}}))
    rc = main(["inspect", "--model", str(path)])
    assert rc == 3
    assert "m.json" in capsys.readouterr().err


def truncated_gzip(text):
    return gzip.compress(text.encode())[:-20]


def corrupt_gzip(text):
    # a valid header, then a deflate block of the reserved type
    return gzip.compress(text.encode())[:10] + b"\xff" * 16


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("damage", [truncated_gzip, corrupt_gzip])
def test_damaged_gzip_dataset_exits_3(tmp_path, capsys, command, damage):
    ds = make_blobs(200, n_features=6, separation=2.0, seed=3)
    path = tmp_path / "data.libsvm.gz"
    path.write_bytes(damage(serialize_libsvm(ds)))
    if command == "train":
        args = ["train", "--config",
                str(base_config(tmp_path, train_path=str(path)))]
    else:
        args = ["eval", "--model", str(FIXTURE_MODEL), "--test", str(path),
                "--out", str(tmp_path / "evalout")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "data.libsvm.gz" in err and "Traceback" not in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"train_path": "caf\xe9"}')
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "latin.json" in err and "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["inspect", "eval"])
def test_non_utf8_model_exits_3(tmp_path, capsys, command):
    path = tmp_path / "latin.json"
    path.write_bytes(b'{"format": "caf\xe9"}')
    save_libsvm(make_blobs(50, n_features=6, seed=3), tmp_path / "t.libsvm")
    args = {"inspect": [], "eval": ["--test", str(tmp_path / "t.libsvm"),
                                    "--out", str(tmp_path / "evalout")]}
    assert main([command, "--model", str(path)] + args[command]) == 3
    err = capsys.readouterr().err
    assert "latin.json" in err and "UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_output_below_a_regular_file_exits_3(tmp_path, capsys, command):
    write_blob_file(tmp_path / "train.libsvm", n_features=6)
    (tmp_path / "blocker").write_text("a file, not a directory\n")
    out = str(tmp_path / "blocker" / "out")
    if command == "train":
        args = ["train", "--config", str(base_config(tmp_path))]
    else:
        args = ["eval", "--model", str(FIXTURE_MODEL),
                "--test", str(tmp_path / "train.libsvm")]
    assert main(args + ["--out", out]) == 3
    err = capsys.readouterr().err
    assert "cannot write" in err and out in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "bench"])
def test_flag_overrides_are_checked_by_their_config_rules(tmp_path, capsys,
                                                          command):
    write_blob_file(tmp_path / "train.libsvm")
    args = [command, "--config", str(base_config(tmp_path))]
    for flag, value, message in (
            ("--seed", "-1", "--seed must be >= 0, got -1"),
            ("--threads", "0", "--threads must be >= 1, got 0")):
        assert main(args + [flag, value]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


@pytest.mark.parametrize("scale", [["zz"] * 6, 1.5])
def test_malformed_feature_scale_exits_3(tmp_path, capsys, scale):
    doc = json.loads(FIXTURE_MODEL.read_text())
    doc["payload"]["config_snapshot"]["feature_scale"] = scale
    model_path = tmp_path / "scale.json"
    model_path.write_text(json.dumps(doc))
    save_libsvm(make_blobs(50, n_features=6, seed=3), tmp_path / "t.libsvm")
    rc = main(["eval", "--model", str(model_path),
               "--test", str(tmp_path / "t.libsvm"),
               "--out", str(tmp_path / "evalout")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "scale.json" in err and "feature_scale" in err
    assert "Traceback" not in err


def snapshot_a_list(payload):
    payload["config_snapshot"] = ["x"]


def positive_label_a_string(payload):
    payload["config_snapshot"]["positive_label"] = "x"


def zero_feature_scale(payload):
    payload["config_snapshot"]["feature_scale"][2] = "0x0.0p+0"


def nan_positive_label(payload):
    payload["config_snapshot"]["positive_label"] = float("nan")


def infinite_positive_label(payload):
    payload["config_snapshot"]["positive_label"] = float("inf")


@pytest.mark.parametrize("edit, message", [
    (snapshot_a_list, "config_snapshot is list, not an object"),
    (positive_label_a_string,
     "positive_label 'x' is neither a number nor null"),
    (zero_feature_scale,
     "feature_scale holds a value that is not finite and positive"),
    (nan_positive_label, "positive_label nan is not finite"),
    (infinite_positive_label, "positive_label inf is not finite"),
])
@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_unusable_config_snapshot_exits_3(tmp_path, capsys, edit, message,
                                          command):
    doc = json.loads(FIXTURE_MODEL.read_text())
    edit(doc["payload"])
    model_path = tmp_path / "snapshot.json"
    model_path.write_text(json.dumps(doc))
    save_libsvm(make_blobs(50, n_features=6, seed=3), tmp_path / "t.libsvm")
    args = [command, "--model", str(model_path)]
    if command == "eval":
        args += ["--test", str(tmp_path / "t.libsvm"),
                 "--out", str(tmp_path / "evalout")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "snapshot.json" in err and message in err
    assert "Traceback" not in err


def zero_scale_field(payload):
    scale = np.frombuffer(base64.b64decode(payload["feature_scale"]["f8"]),
                          "<f8").copy()
    scale[2] = 0.0
    payload["feature_scale"]["f8"] = base64.b64encode(scale.tobytes()).decode()


def short_scale_field(payload):
    payload["feature_scale"]["f8"] = base64.b64encode(
        base64.b64decode(payload["feature_scale"]["f8"])[:-8]).decode()
    payload["feature_scale"]["shape"] = [5]


def nan_label_field(payload):
    payload["positive_label"] = float("nan").hex()


@pytest.mark.parametrize("edit, message", [
    (zero_scale_field,
     "feature_scale holds a value that is not finite and positive"),
    (short_scale_field, r"feature_scale has shape \(5,\), not \(6,\)"),
    (nan_label_field, "float 'nan' is not finite"),
])
@pytest.mark.parametrize("command", ["eval", "inspect"])
def test_unusable_input_map_field_exits_3(tmp_path, capsys, edit, message,
                                         command):
    # version 3 keeps the input map in typed payload fields
    doc = json.loads(FIXTURE_MODEL_V3.read_text())
    edit(doc["payload"])
    model_path = tmp_path / "field.json"
    model_path.write_text(json.dumps(doc))
    save_libsvm(make_blobs(50, n_features=6, seed=3), tmp_path / "t.libsvm")
    args = [command, "--model", str(model_path)]
    if command == "eval":
        args += ["--test", str(tmp_path / "t.libsvm"),
                 "--out", str(tmp_path / "evalout")]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert "field.json: malformed dc_model payload" in err
    assert re.search(message, err) and "Traceback" not in err


def test_version_3_snapshot_is_only_an_echo(tmp_path, capsys):
    # a version 3 file reads its input map from the typed fields alone
    doc = json.loads(FIXTURE_MODEL_V3.read_text())
    doc["payload"]["config_snapshot"].update(feature_scale=["zz"],
                                             positive_label="x")
    model_path = tmp_path / "echo.json"
    model_path.write_text(json.dumps(doc))
    model = load_dc_model(model_path)
    assert model.feature_scale.tolist() == load_dc_model(
        FIXTURE_MODEL_V3).feature_scale.tolist()
    assert model.positive_label is None


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
    assert [(e.method, e.n_subspaces, e.group_size) for e in cfg.plan] == [
        ("rd", 4, 23618), ("abd", 4, 23618)]


def test_readme_config_example_parses():
    # the README's config example is a second copy of the schema
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    cfg = parse_config(doc, "README.md")
    assert config_echo(cfg)["guards"] == doc["guards"]


FULL_CONFIG = {
    "train_path": "train.libsvm", "test_path": "test.libsvm",
    "split": {"train_fraction": 0.8, "seed": 0}, "scale_features": True,
    "positive_label": 2, "n_features_override": 47236,
    "plan": [{"method": "rd", "n_subspaces": 4, "group_size": 40}],
    "local": {"type": "linear", "lam": 1.0},
    "global": {"type": "trbf", "p": 2, "sigma": None, "lam": None},
    "guards": {"max_dense_features": 4096},
    "baseline": "linear",
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
        '"guards": {"max_dense_features": 4096}, '
        '"out_dir": "out", "threads": 4, "seed": 7, "baseline": "linear"}')


def test_rerun_from_echo_reproduces_config():
    minimal = {"train_path": "x",
               "plan": [{"method": "abd", "n_subspaces": 2, "group_size": 3}]}
    others = {"split": {"train_fraction": 0.5}, "local": {"lam": 3, "p": 4},
              "global": {"type": "linear", "sigma": 1.5},
              "guards": {"max_dense_features": 99}, "baseline": "trbf"}
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
