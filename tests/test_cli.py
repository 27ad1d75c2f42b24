"""Command surface: exit codes, determinism, file artifacts."""

import csv
import json
import os
import platform
import threading
from pathlib import Path

import numpy as np
import pytest

import idgp
import idgp.distributions
import idgp.generation
import idgp.objective
import idgp.trainer
from idgp import cli
from idgp.cli import (
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_INVARIANT,
    EXIT_USAGE,
    main,
    parse_config_file,
)
from idgp.data import MODEL_KEYS, load_dataset, load_model, read_sidecar, save_model, write_dataset
from idgp.evaluation import read_report_csv
from idgp.generation import make_clean_dataset
from idgp.network import DenseNet, TransformConfig
from test_data import write_npz


@pytest.fixture()
def clean_path(tmp_path):
    rng = np.random.default_rng(0)
    centers = np.array([[2.0, 2.0], [-2.0, -2.0], [2.0, -2.0]])
    X = np.vstack([c + rng.normal(0, 0.6, (30, 2)) for c in centers])
    y = np.repeat(np.arange(3), 30)
    ds = make_clean_dataset(X, y, 3)
    path = tmp_path / "clean.pll"
    write_dataset(ds, path)
    return path


@pytest.fixture()
def corrupted_path(tmp_path, clean_path):
    out = tmp_path / "corrupted.pll"
    code = main(["corrupt", "--data", str(clean_path), "--out", str(out),
                 "--mode", "uniform", "--p", "0.3", "--seed", "5"])
    assert code == 0
    return out


def tiny_config(tmp_path, **overrides):
    values = dict(epochs=2, batch_size=32, hidden=4, r=1, q=1, clamp=3.0,
                  b=1.0, lr_f=0.01, lr_g=0.01)
    values.update(overrides)
    path = tmp_path / "train.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    return path


class TestCorrupt:
    def test_uniform_mean_set_size(self, tmp_path, clean_path):
        out = tmp_path / "u.pll"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "uniform", "--p", "0.3", "--seed", "1"]) == 0
        ds = load_dataset(out)
        sizes = np.array([len(s) for s in ds.candidates])
        # binomial mean corrected for the drop-one rule on full sets
        expected = 1 + (ds.c - 1) * 0.3 - 0.3 ** (ds.c - 1)
        assert abs(sizes.mean() - expected) < 3 * np.sqrt(
            (ds.c - 1) * 0.3 * 0.7 / ds.n)
        meta = read_sidecar(out)
        assert meta["mode"] == "uniform" and meta["seed"] == 1

    def test_bad_p_exits_2_naming_flag(self, tmp_path, clean_path, capsys):
        out = tmp_path / "u.pll"
        code = main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "uniform", "--p", "1.5"])
        assert code == EXIT_USAGE
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--scorer-hidden", "-1"),
                                             ("--scorer-epochs", "-1"),
                                             ("--scorer-lr", "-1"),
                                             ("--scorer-lr", "inf"),
                                             ("--scorer-clamp", "0")])
    def test_bad_scorer_flag_exits_2_naming_flag(self, tmp_path, clean_path, capsys,
                                                 flag, value):
        out = tmp_path / "i.pll"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "instance", flag, value]) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_p_with_instance_mode_exits_2_naming_flag(self, tmp_path, clean_path, capsys):
        out = tmp_path / "i.pll"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "instance", "--p", "0.3"]) == EXIT_USAGE
        assert "--p" in capsys.readouterr().err
        assert not out.exists()
        # likewise a valid scorer flag under --mode uniform, which never reads it
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "uniform", "--p", "0.3", "--scorer-epochs", "500"]) == EXIT_USAGE
        assert "--scorer-epochs applies only to --mode instance" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical(self, tmp_path, clean_path):
        outs = []
        for name in ("a.pll", "b.pll"):
            out = tmp_path / name
            main(["corrupt", "--data", str(clean_path), "--out", str(out),
                  "--mode", "instance", "--seed", "9",
                  "--scorer-epochs", "2"])
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "a.meta").read_bytes() == (tmp_path / "b.meta").read_bytes()

    def test_instance_mode_writes_scorer_params(self, tmp_path, clean_path):
        out = tmp_path / "i.pll"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "instance", "--seed", "3",
                     "--scorer-epochs", "2"]) == 0
        meta = read_sidecar(out)
        assert meta["mode"] == "instance_dependent"
        assert meta["params"]["scorer"]["epochs"] == 2

    def test_instance_meta_holds_the_five_scorer_fields(self, tmp_path, clean_path):
        out = tmp_path / "i.pll"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "instance", "--seed", "3", "--scorer-epochs", "2"]) == 0
        assert read_sidecar(out)["params"]["scorer"] == {
            "hidden": 64, "clamp": 20.0, "epochs": 2, "lr": 0.1, "seed": 3}

    # the uniform-mode flags are checked before the data is read
    @pytest.mark.parametrize("p_flag", [[], ["--p", "1.5"], ["--p", "0"]],
                             ids=["p_missing", "p_1.5", "p_0"])
    def test_bad_p_exits_2_before_reading_data(self, tmp_path, capsys, p_flag):
        out = tmp_path / "x.pll"
        assert main(["corrupt", "--data", str(tmp_path / "missing.pll"), "--out", str(out),
                     "--mode", "uniform", *p_flag]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--p" in err and "cannot read" not in err
        assert not out.exists()

    # corrupt, eval and report each write one file into an existing directory
    @pytest.mark.parametrize("argv", [
        pytest.param(["corrupt", "--mode", "instance"], id="corrupt_instance"),
        pytest.param(["corrupt", "--mode", "uniform", "--p", "0.3"], id="corrupt_uniform"),
        pytest.param(["eval", "--model", "missing.bin"], id="eval"),
        pytest.param(["report", "--sweep-a", "1", "--sweep-gamma", "1"], id="report_sweep"),
    ])
    @pytest.mark.parametrize("out", ["nodir/x.pll", "."], ids=["no_parent", "directory"])
    def test_bad_out_exits_2_before_reading_data(self, tmp_path, monkeypatch, capsys,
                                                 argv, out):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--data", "missing.pll", "--out", out]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"--out {out}" in err and "cannot read" not in err
        assert not Path("nodir").exists()

    def test_bad_out_exits_2_before_the_scorer_trains(self, tmp_path, clean_path,
                                                      monkeypatch):
        def train_clean_scorer(*args, **kwargs):
            raise AssertionError("the clean scorer trained")

        monkeypatch.setattr(idgp.generation, "train_clean_scorer", train_clean_scorer)
        out = tmp_path / "nodir" / "x.pll"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "instance"]) == EXIT_USAGE
        assert not out.parent.exists()

    def test_missing_input_exits_1(self, tmp_path):
        code = main(["corrupt", "--data", str(tmp_path / "nope.pll"),
                     "--out", str(tmp_path / "x.pll"), "--mode", "uniform",
                     "--p", "0.2"])
        assert code == 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX named pipes")
    def test_named_pipe_input_exits_1(self, tmp_path, clean_path, capsys):
        # a load seeks to find the size that bounds its allocations, and a
        # pipe cannot seek: inputs must be regular files
        fifo = tmp_path / "in.pll"
        os.mkfifo(fifo)
        payload = clean_path.read_bytes()[:4096]  # within the pipe's buffer: no write blocks

        def send():
            try:
                with open(fifo, "wb", buffering=0) as fh:
                    fh.write(payload)
            except BrokenPipeError:  # the reader gave up first
                pass

        writer = threading.Thread(target=send, daemon=True)
        writer.start()
        code = main(["corrupt", "--data", str(fifo), "--out", str(tmp_path / "out.pll"),
                     "--mode", "uniform", "--p", "0.3"])
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert code == EXIT_IO
        assert f"error: cannot read {fifo}" in capsys.readouterr().err

    def test_out_that_is_its_own_sidecar_exits_2(self, tmp_path, clean_path, capsys):
        out = tmp_path / "out.meta"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "uniform", "--p", "0.3"]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    def test_data_that_is_the_sidecar_of_out_exits_2(self, tmp_path, clean_path, capsys):
        data = tmp_path / "run.meta"
        data.write_bytes(clean_path.read_bytes())
        out = tmp_path / "run.pll"
        assert main(["corrupt", "--data", str(data), "--out", str(out),
                     "--mode", "uniform", "--p", "0.3"]) == EXIT_USAGE
        assert "--data" in capsys.readouterr().err
        assert data.read_bytes() == clean_path.read_bytes()
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["corrupt", "--data", "a.pll", "--out", "b.pll", "--p", "0.3"], id="corrupt"),
        pytest.param(["train", "--data", "a.pll", "--out-dir", "run"], id="train"),
        pytest.param(["eval", "--model", "m.bin", "--data", "a.pll", "--out", "m.csv"], id="eval"),
        pytest.param(["report", "--history", "h.jsonl", "--out", "c.csv"], id="report"),
    ])
    def test_format_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "text"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --format text" in capsys.readouterr().err

    def test_npz_out_feeds_train_eval_and_sweep(self, tmp_path, clean_path):
        out = tmp_path / "pll.npz"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(out),
                     "--mode", "uniform", "--p", "0.3", "--seed", "5"]) == 0
        assert out.read_bytes()[:4] == b"PK\x03\x04"
        assert read_sidecar(out)["mode"] == "uniform"
        # the same corruption as the text output, array for array
        text_out = tmp_path / "pll.pll"
        assert main(["corrupt", "--data", str(clean_path), "--out", str(text_out),
                     "--mode", "uniform", "--p", "0.3", "--seed", "5"]) == 0
        ds, ds_text = load_dataset(out), load_dataset(text_out)
        assert np.array_equal(ds.features, ds_text.features)
        assert np.array_equal(ds.mask, ds_text.mask)
        assert np.array_equal(ds.true_labels, ds_text.true_labels)

        cfg = tiny_config(tmp_path, val_fraction=0.2)
        run = tmp_path / "run"
        assert main(["train", "--data", str(out), "--config", str(cfg),
                     "--seed", "1", "--out-dir", str(run)]) == 0
        run_text = tmp_path / "run_text"
        assert main(["train", "--data", str(text_out), "--config", str(cfg),
                     "--seed", "1", "--out-dir", str(run_text)]) == 0
        assert (run / "model.bin").read_bytes() == (run_text / "model.bin").read_bytes()
        metrics = tmp_path / "metrics.csv"
        assert main(["eval", "--model", str(run / "model.bin"), "--data", str(out),
                     "--out", str(metrics)]) == 0
        assert read_report_csv(metrics)[0]["dataset"] == "pll"
        grid = tmp_path / "grid.csv"
        assert main(["report", "--sweep-a", "1", "--sweep-gamma", "1", "--data", str(out),
                     "--config", str(cfg), "--seed", "1", "--out", str(grid)]) == 0
        assert len(grid.read_text().splitlines()) == 2


    def test_npz_in_text_out_equals_text_in(self, tmp_path, clean_path):
        clean_npz = tmp_path / "clean.npz"
        write_dataset(load_dataset(clean_path), clean_npz)
        outs = []
        for data in (clean_path, clean_npz):
            out = tmp_path / f"from_{data.suffix[1:]}.pll"
            assert main(["corrupt", "--data", str(data), "--out", str(out),
                         "--mode", "uniform", "--p", "0.3", "--seed", "2"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_damaged_npz_exits_1_naming_key(self, tmp_path, clean_path, capsys):
        data = tmp_path / "d.npz"
        write_dataset(load_dataset(clean_path), data)
        buf = bytearray(data.read_bytes())
        at = buf.index(b"'descr': '<f8'") + len("'descr': '<")
        buf[at] = ord("i")  # the stored CRC no longer matches the features member
        data.write_bytes(bytes(buf))
        assert main(["train", "--data", str(data), "--out-dir", str(tmp_path / "run")]) == 1
        assert f"{data}: features: unreadable (Bad CRC-32" in capsys.readouterr().err


class TestTrainEval:
    def test_train_then_eval_consistent(self, tmp_path, corrupted_path, monkeypatch):
        # the manifest reads the thread variables when it is written
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out_dir = tmp_path / "run"
        cfg = tiny_config(tmp_path, epochs=5, val_fraction=0.2)
        assert main(["train", "--data", str(corrupted_path), "--config",
                     str(cfg), "--seed", "3", "--out-dir", str(out_dir)]) == 0
        history = [json.loads(l) for l in
                   (out_dir / "history.jsonl").read_text().splitlines()]
        assert len(history) == 5
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert manifest["config"]["ml_only"] is False
        assert str(corrupted_path) in manifest["inputs"]
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["idgp"] == idgp.__version__
        assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert env["OMP_NUM_THREADS"] == "1"
        assert env["MKL_NUM_THREADS"] is None

        metrics = tmp_path / "metrics.csv"
        assert main(["eval", "--model", str(out_dir / "model.bin"),
                     "--data", str(corrupted_path), "--out", str(metrics)]) == 0
        rows = read_report_csv(metrics)
        assert rows[0]["method"] == "idgp"
        assert 0.0 <= float(rows[0]["mean_acc"]) <= 1.0

    def test_ml_only_flag_recorded(self, tmp_path, corrupted_path):
        out_dir = tmp_path / "run_ml"
        cfg = tiny_config(tmp_path)
        assert main(["train", "--data", str(corrupted_path), "--config",
                     str(cfg), "--seed", "1", "--out-dir", str(out_dir),
                     "--ml-only"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["ml_only"] is True

    def test_two_seeds_give_different_histories(self, tmp_path, corrupted_path):
        cfg = tiny_config(tmp_path)
        hists = []
        for seed in ("1", "2"):
            out_dir = tmp_path / f"run{seed}"
            assert main(["train", "--data", str(corrupted_path), "--config",
                         str(cfg), "--seed", seed, "--out-dir", str(out_dir)]) == 0
            hists.append((out_dir / "history.jsonl").read_text())
        assert hists[0] != hists[1]
        for h in hists:
            for line in h.splitlines():
                json.loads(line)

    def test_eval_dimension_mismatch_exits_3(self, tmp_path, corrupted_path):
        model = tmp_path / "m.bin"
        save_model(model, DenseNet([2, 4, 5], clamp=20.0, rng=np.random.default_rng(0)), TransformConfig())
        code = main(["eval", "--model", str(model), "--data",
                     str(corrupted_path), "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_INVARIANT

    def test_eval_class_count_mismatch_names_both_counts(self, tmp_path, clean_path, capsys):
        model = tmp_path / "m.bin"
        save_model(model, DenseNet([2, 4, 5], clamp=20.0, rng=np.random.default_rng(0)), TransformConfig())
        assert main(["eval", "--model", str(model), "--data", str(clean_path),
                     "--out", str(tmp_path / "m.csv")]) == EXIT_INVARIANT
        assert "model predicts 5 classes, dataset has 3" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_eval_into_malformed_csv_exits_1_unchanged(self, tmp_path, clean_path, capsys):
        model = tmp_path / "m.bin"
        save_model(model, DenseNet([2, 4, 3], clamp=20.0, rng=np.random.default_rng(0)), TransformConfig())
        metrics = tmp_path / "m.csv"
        metrics.write_text("method,dataset\nidgp,toy\n")
        assert main(["eval", "--model", str(model), "--data", str(clean_path),
                     "--out", str(metrics)]) == 1
        assert f"{metrics}:2: expected columns" in capsys.readouterr().err
        assert metrics.read_text() == "method,dataset\nidgp,toy\n"

    def test_failed_allocation_exits_3(self, tmp_path, corrupted_path, capsys,
                                       monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.0 EiB for an array")

        monkeypatch.setattr(idgp.trainer, "fit", no_memory)
        assert main(["train", "--data", str(corrupted_path),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_INVARIANT
        assert "error: Unable to allocate 8.0 EiB" in capsys.readouterr().err

    def test_failed_fit_leaves_no_out_dir(self, tmp_path, capsys):
        # the default hold-out of 4 rows is empty, so the fit fails before it writes
        data = tmp_path / "tiny.pll"
        data.write_text("4 1 2\n0.5 | 1\n-0.5 | 2\n0.25 | 1\n-0.25 | 2\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out-dir", str(out_dir)]) == EXIT_INVARIANT
        assert "error: val split is empty for n=4" in capsys.readouterr().err
        assert not out_dir.exists()

    # a file where the output directory or one of its parents must be is
    # refused before the data is read and the fit runs, and is left as it was
    @pytest.mark.parametrize("below", ["", "run"], ids=["out_dir", "parent"])
    def test_out_dir_through_a_file_exits_2_before_the_fit(self, tmp_path, corrupted_path,
                                                           capsys, monkeypatch, below):
        def no_fit(*args, **kwargs):
            raise AssertionError("the fit ran")

        monkeypatch.setattr(idgp.trainer, "fit", no_fit)
        file = tmp_path / "taken"
        file.write_bytes(b"not a directory\n")
        out_dir = file / below
        assert main(["train", "--data", str(corrupted_path),
                     "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert f"--out-dir {out_dir}: a file stands where" in capsys.readouterr().err
        assert file.read_bytes() == b"not a directory\n"

    def test_unaddressable_header_c_exits_1(self, tmp_path, capsys):
        data = tmp_path / "huge.pll"
        data.write_text(f"2 1 {2 ** 62}\n0.5 | 1\n-0.5 | 2\n")
        assert main(["train", "--data", str(data),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_IO
        assert f"{data}:1: n=2 rows of c={2 ** 62}" in capsys.readouterr().err

    def test_unallocatable_output_layer_exits_3(self, tmp_path, capsys):
        # the data loads, but a hidden=2**40 output layer over c=2**21 classes
        # cannot be allocated; the spec check refuses it before numpy allocates.
        # No hold-out, since a 2-row split would stop at its empty val part first.
        data = tmp_path / "wide.pll"
        data.write_text(f"2 1 {2 ** 21}\n0.5 | 1\n-0.5 | 2\n")
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"hidden={2 ** 40}\nval_fraction=0\n")
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert f"error: a {2 ** 40} x {2 ** 21} weight matrix cannot be allocated" in err

    def test_unallocatable_candidate_mask_exits_3(self, tmp_path, capsys):
        # 2 x 2**56 is addressable, but its (n, c) candidate mask is 128 PiB
        data = tmp_path / "huge.pll"
        data.write_text(f"2 1 {2 ** 56}\n0.5 | 1\n-0.5 | 2\n")
        assert main(["train", "--data", str(data),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "allocate" in err
        assert "Traceback" not in err
        assert main(["corrupt", "--data", str(data),
                     "--out", str(tmp_path / "out.pll")]) == EXIT_INVARIANT
        assert f"n=2 rows and c={2 ** 56} classes" in capsys.readouterr().err

    def test_untrained_net_near_chance(self, tmp_path, corrupted_path):
        out_dir = tmp_path / "run0"
        cfg = tiny_config(tmp_path, epochs=0)
        assert main(["train", "--data", str(corrupted_path), "--config",
                     str(cfg), "--seed", "1", "--out-dir", str(out_dir)]) == 0
        metrics = tmp_path / "chance.csv"
        assert main(["eval", "--model", str(out_dir / "model.bin"),
                     "--data", str(corrupted_path), "--out", str(metrics)]) == 0
        acc = float(read_report_csv(metrics)[0]["mean_acc"])
        assert 0.0 <= acc <= 0.85  # untrained: far from the trained regime


class TestConfigFile:
    def test_unknown_key_is_usage_error(self, tmp_path, corrupted_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=2\nlerning_rate=0.1\n")
        code = main(["train", "--data", str(corrupted_path), "--config",
                     str(cfg), "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_USAGE
        assert "lerning_rate" in capsys.readouterr().err

    def test_activation_key_is_unknown(self, tmp_path, corrupted_path, capsys):
        # every hidden layer is relu: a config may not name even that one value
        cfg = tiny_config(tmp_path, activation="relu")
        out_dir = tmp_path / "x"
        assert main(["train", "--data", str(corrupted_path), "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert "unknown config key 'activation'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_types_and_comments(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\nepochs=7\nml_only=true\na=0.5\nr=2\nq=2\n")
        parsed = parse_config_file(cfg)
        assert parsed.epochs == 7 and parsed.ml_only is True and parsed.a == 0.5

    def test_invalid_value_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs=soon\n")
        with pytest.raises(cli.UsageError, match=":1"):
            parse_config_file(cfg)

    def test_only_newline_ends_a_config_line(self, tmp_path):
        # "\x85" is no line end, so line 1 gives epochs the value "2\x85hidden=4"
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes("epochs=2\x85hidden=4\nbogus=1\n".encode())
        with pytest.raises(cli.UsageError) as info:
            parse_config_file(cfg)
        assert str(info.value) == f"{cfg}:1: bad value '2\\x85hidden=4' for key 'epochs'"

    def test_repeated_key_exits_2_naming_both_lines(self, tmp_path, corrupted_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("epochs=3\n# a later line must not override an earlier one\nepochs=5\n")
        out_dir = tmp_path / "x"
        assert main(["train", "--data", str(corrupted_path), "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert f"error: {cfg}:3: key 'epochs' repeats line 1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed=-1\n")
        with pytest.raises(cli.UsageError, match="seed must be nonnegative"):
            parse_config_file(cfg)

    def test_non_utf8_config_exits_1(self, tmp_path, corrupted_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs=2\nhidden=\xff\n")
        out_dir = tmp_path / "x"
        assert main(["train", "--data", str(corrupted_path), "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == 1
        assert f"{cfg}:2: not UTF-8" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key, value", [
        ("weight_decay", "nan"), ("lr_f", "inf"), ("lr_g", "inf"), ("epsilon", "inf"),
        ("rho", "inf"), ("a", "inf"), ("b", "inf"), ("gamma", "inf")])
    def test_out_of_domain_value_exits_2(self, tmp_path, corrupted_path, capsys,
                                         key, value):
        cfg = tiny_config(tmp_path, **{key: value})
        out_dir = tmp_path / "x"
        assert main(["train", "--data", str(corrupted_path), "--config", str(cfg),
                     "--out-dir", str(out_dir)]) == EXIT_USAGE
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    def test_constraint_violation_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("m=1.5\n")
        with pytest.raises(cli.UsageError):
            parse_config_file(cfg)


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        net = DenseNet([3, 8, 4], clamp=5.0, rng=np.random.default_rng(4))
        tc = TransformConfig(a=2.0, b=0.5, gamma=1.5)
        path = tmp_path / "model.bin"
        save_model(path, net, tc)
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == list(MODEL_KEYS)
        back, tc2 = load_model(path)
        assert tc2 == tc
        assert back.layer_sizes == net.layer_sizes and back.clamp == 5.0
        for a, b in zip(net.weights + net.biases, back.weights + back.biases):
            assert np.array_equal(a, b)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODELFILE" * 4)
        assert main(["eval", "--model", str(path), "--data", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_old_binary_format_exits_1_naming_it(self, tmp_path, clean_path, capsys):
        path = tmp_path / "model.bin"
        path.write_bytes(b"IDGPMDL1" + bytes(300))
        assert main(["eval", "--model", str(path), "--data", str(clean_path),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert (f"{path}: not an npz model file (old IDGPMDL1 format: train the model again)"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    def test_two_net_npz_layout_exits_1_naming_key(self, tmp_path, clean_path, capsys):
        # the earlier npz model file held f and g in seven members
        path, out = tmp_path / "model.bin", tmp_path / "x.csv"
        f = DenseNet([2, 4, 3], clamp=20.0, rng=np.random.default_rng(0))
        g = DenseNet([2, 4, 6], clamp=20.0, rng=np.random.default_rng(1))
        with path.open("wb") as fh:
            np.savez(fh, transform=np.array([1.0, 0.0, 1.0]), clamps=np.array([20.0, 20.0]),
                     activations=np.array([0, 0]), f_sizes=np.array(f.layer_sizes),
                     f_params=f.flat, g_sizes=np.array(g.layer_sizes), g_params=g.flat)
        assert main(["eval", "--model", str(path), "--data", str(clean_path),
                     "--out", str(out)]) == 1
        assert f"{path}: missing key 'clamp'" in capsys.readouterr().err
        assert not out.exists()

    def test_activation_member_exits_1_naming_key(self, tmp_path, clean_path, capsys):
        # the earlier model file also held the hidden activation's code
        path, out = tmp_path / "model.bin", tmp_path / "x.csv"
        save_model(path, DenseNet([2, 4, 3], clamp=20.0, rng=np.random.default_rng(0)), TransformConfig())
        with np.load(path, allow_pickle=False) as npz:
            members = dict(npz)
        write_npz(path, transform=members["transform"], clamp=members["clamp"],
                  activation=np.int64(0), sizes=members["sizes"], params=members["params"])
        assert main(["eval", "--model", str(path), "--data", str(clean_path),
                     "--out", str(out)]) == 1
        assert f"{path}: unexpected key 'activation'" in capsys.readouterr().err
        assert not out.exists()

    # the net is [2, 4, 3] (27 parameters); a dict replaces members, and an
    # int cuts the file to that many bytes (a negative one from its end)
    @pytest.mark.parametrize("change, message", [
        pytest.param(10, "zip: unreadable", id="cut_10"),
        pytest.param(40, "zip: unreadable", id="cut_40"),
        pytest.param(-8, "zip: unreadable", id="cut_8_short"),
        pytest.param({"transform": np.array([0.0, 0.0, 1.0])},
                     "corrupt model file (a must be finite", id="transform_a_0"),
        pytest.param({"transform": np.array([1.0, 0.0, np.inf])},
                     "corrupt model file (gamma must be finite", id="transform_gamma_inf"),
        pytest.param({"clamp": np.float64(-3.0)},
                     "corrupt model file (clamp bound must be strictly positive", id="clamp_neg"),
        pytest.param({"clamp": np.float64(0.0)},
                     "corrupt model file (clamp bound must be strictly positive", id="clamp_0"),
        pytest.param({"clamp": np.float64(np.nan)},
                     "corrupt model file (clamp bound must be strictly positive", id="clamp_nan"),
        # exp(1000) overflows the a=1, gamma=1 transform
        pytest.param({"clamp": np.float64(1000.0)},
                     "corrupt model file (a*exp(A/gamma)+b overflows", id="clamp_overflows"),
        pytest.param({"params": np.r_[np.nan, np.zeros(26)]},
                     "corrupt model file (weights and biases must be finite", id="weight_nan"),
        pytest.param({"sizes": np.array([2 ** 32 - 1, 2 ** 32 - 1, 3])},
                     "params: shape (27,), expected (18446744082299486208,)", id="sizes_huge"),
        # a well-formed net of sizes [2, 0, 3], which holds only its 3 last biases
        pytest.param({"sizes": np.array([2, 0, 3]), "params": np.zeros(3)},
                     "corrupt model file (layer sizes must be at least 1", id="size_zero"),
        pytest.param(b"junk", None, id="trailing_bytes"),
    ])
    def test_corrupt_model_exits_1(self, tmp_path, clean_path, capsys, change, message):
        path, out = tmp_path / "model.bin", tmp_path / "x.csv"
        net = DenseNet([2, 4, 3], clamp=20.0, rng=np.random.default_rng(0))
        save_model(path, net, TransformConfig())
        if isinstance(change, bytes):
            # bytes after the zip archive are skipped, by the model and the
            # npz dataset reader alike, as every member is still checked
            data = tmp_path / "clean.npz"
            write_dataset(load_dataset(clean_path), data)
            for file in (path, data):
                file.write_bytes(file.read_bytes() + change)
            assert main(["eval", "--model", str(path), "--data", str(data),
                         "--out", str(out)]) == 0
            assert np.array_equal(load_model(path)[0].flat, net.flat)
            return
        if isinstance(change, int):
            path.write_bytes(path.read_bytes()[:change])
        else:
            with np.load(path, allow_pickle=False) as npz:
                members = {**npz, **change}
            write_npz(path, **members)
        assert main(["eval", "--model", str(path), "--data", str(clean_path),
                     "--out", str(out)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        assert main(["gradcheck", "--trials", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for component in ("forward", "transform", "posterior_jacobians",
                          "ml_loss", "reg_loss", "map_loss"):
            assert f"{component}:" in out
        assert "FAIL" not in out

    def test_injected_sign_flip_detected(self, monkeypatch, capsys):
        real = idgp.distributions.dirichlet_posterior_mean_jacobian
        monkeypatch.setattr(idgp.distributions,
                            "dirichlet_posterior_mean_jacobian",
                            lambda lam, o: -real(lam, o))
        assert main(["gradcheck", "--trials", "2", "--seed", "1"]) == EXIT_GRADCHECK
        assert "posterior_jacobians" in capsys.readouterr().err

    @pytest.mark.parametrize("binding", ["_chain_lambda", "_chain_alpha_beta",
                                         "_transform_grad"])
    def test_fault_in_trainer_step_detected(self, monkeypatch, capsys, binding):
        real = getattr(idgp.trainer, binding)

        def doubled(*args):
            out = real(*args)
            return tuple(2.0 * o for o in out) if isinstance(out, tuple) else 2.0 * out

        monkeypatch.setattr(idgp.trainer, binding, doubled)
        assert main(["gradcheck", "--trials", "2", "--seed", "1"]) == EXIT_GRADCHECK
        assert "map_loss" in capsys.readouterr().err

    def test_offset_in_loss_value_detected(self, monkeypatch, capsys):
        real = idgp.objective._ml_values  # the likelihood values of every loss

        def shifted(shift, total):
            return real(shift, total) + 1e-3

        monkeypatch.setattr(idgp.objective, "_ml_values", shifted)
        assert main(["gradcheck", "--trials", "2", "--seed", "1"]) == EXIT_GRADCHECK
        assert "map_loss" in capsys.readouterr().err

    def test_offset_in_network_backward_detected(self, monkeypatch, capsys):
        real = DenseNet.backward

        def offset(self, cache, grad_scores):
            grad = real(self, cache, grad_scores)
            grad[0] += 1e-3  # entry 0 of the flat gradient is W[0][0, 0]
            return grad

        monkeypatch.setattr(DenseNet, "backward", offset)
        assert main(["gradcheck", "--trials", "2", "--seed", "1"]) == EXIT_GRADCHECK
        assert "forward" in capsys.readouterr().err

    def test_zero_trials_is_usage_error(self):
        assert main(["gradcheck", "--trials", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_usage_error(self, seed, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--trials", "1", "--seed", seed])
        assert exc.value.code == EXIT_USAGE
        assert "--seed" in capsys.readouterr().err


class TestReport:
    def test_single_history_loss_curve(self, tmp_path):
        hist = tmp_path / "history.jsonl"
        hist.write_text("\n".join(json.dumps(
            {"epoch": i, "train_loss": 1.0 / (i + 1), "val_acc": None,
             "bound_gap": 0.5}) for i in range(1, 4)) + "\n")
        out = tmp_path / "curve.csv"
        assert main(["report", "--history", str(hist), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y,series"
        assert len(lines) == 4
        assert lines[1] == f"1,0.5,{hist}"

    def test_history_name_with_comma_is_one_field(self, tmp_path):
        hist = tmp_path / "run,a.jsonl"
        hist.write_text(json.dumps({"epoch": 1, "train_loss": 0.5}) + "\n")
        out = tmp_path / "curve.csv"
        assert main(["report", "--history", str(hist), "--out", str(out)]) == 0
        with out.open(newline="") as fh:
            header, row = csv.reader(fh)
        assert header == ["x", "y", "series"]
        assert row == ["1", "0.5", str(hist)]

    def test_two_runs_histories_are_two_series(self, tmp_path, monkeypatch):
        # train names every history history.jsonl, so a full and an ML-only
        # run differ only in their directories; the series keep them apart
        monkeypatch.chdir(tmp_path)
        for run, loss in (("run", 0.5), ("run_ml", 0.25)):
            Path(run).mkdir()
            Path(run, "history.jsonl").write_text(
                json.dumps({"epoch": 1, "train_loss": loss}) + "\n")
        assert main(["report", "--history", "run/history.jsonl", "run_ml/history.jsonl",
                     "--out", "curve.csv"]) == 0
        assert Path("curve.csv").read_text().splitlines() == [
            "x,y,series", "1,0.5,run/history.jsonl", "1,0.25,run_ml/history.jsonl"]

    def test_sweep_grid_has_cartesian_rows(self, tmp_path, corrupted_path):
        cfg = tiny_config(tmp_path, epochs=1, val_fraction=0.2)
        out = tmp_path / "grid.csv"
        assert main(["report", "--sweep-a", "0.1,1,10", "--sweep-gamma",
                     "0.5,1,1.5", "--data", str(corrupted_path), "--config",
                     str(cfg), "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10  # header + 3x3 grid
        assert {l.split(",")[2] for l in lines[1:]} == {
            "gamma=0.5", "gamma=1.0", "gamma=1.5"}

    def test_merge_matches_aggregate(self, tmp_path):
        from idgp.evaluation import aggregate, write_report_csv
        rows = [{"method": "idgp", "dataset": "toy", "seed_count": 1,
                 "mean_acc": acc, "std_acc": 0.0} for acc in (0.8, 0.9, 0.7)]
        srcs = []
        for i, row in enumerate(rows):
            p = tmp_path / f"m{i}.csv"
            write_report_csv(p, [row])
            srcs.append(str(p))
        out = tmp_path / "merged.csv"
        assert main(["report", "--merge", *srcs, "--out", str(out)]) == 0
        merged = read_report_csv(out)[0]
        mean, std = aggregate([0.8, 0.9, 0.7])
        assert float(merged["mean_acc"]) == pytest.approx(mean)
        assert float(merged["std_acc"]) == pytest.approx(std)
        assert merged["seed_count"] == "3"

    def test_unreadable_history_exits_1(self, tmp_path):
        assert main(["report", "--history", str(tmp_path / "ghost.jsonl"),
                     "--out", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize("bad", [b'{"epoch": 2, "train_loss"', b'{"epoch": 2}',
                                     b"[2, 0.5]", b'{"epoch": 2, "train_loss": 0.\xff}'],
                             ids=["not-json", "no-train-loss", "not-object", "not-utf8"])
    def test_malformed_history_exits_1(self, tmp_path, capsys, bad):
        hist = tmp_path / "history.jsonl"
        hist.write_bytes(b'{"epoch": 1, "train_loss": 0.5}\n' + bad + b"\n")
        out = tmp_path / "curve.csv"
        assert main(["report", "--history", str(hist), "--out", str(out)]) == 1
        assert f"{hist}:2: " in capsys.readouterr().err
        assert not out.exists()

    def test_merge_without_mean_acc_exits_1(self, tmp_path, capsys):
        src = tmp_path / "m.csv"
        src.write_text("method,dataset,seed_count,std_acc\nidgp,toy,1,0.0\n")
        out = tmp_path / "merged.csv"
        assert main(["report", "--merge", str(src), str(src), "--out", str(out)]) == 1
        assert f"{src}:2: expected columns" in capsys.readouterr().err
        assert not out.exists()

    def test_merge_of_one_row_exits_3(self, tmp_path, capsys):
        from idgp.evaluation import write_report_csv
        src = tmp_path / "m.csv"
        write_report_csv(src, [{"method": "idgp", "dataset": "toy", "seed_count": 1,
                                "mean_acc": 0.8, "std_acc": 0.0}])
        out = tmp_path / "merged.csv"
        assert main(["report", "--merge", str(src), "--out", str(out)]) == EXIT_INVARIANT
        assert "idgp/toy" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_outside_config_domain_is_usage_error(self, tmp_path, corrupted_path):
        out = tmp_path / "grid.csv"
        assert main(["report", "--sweep-a", "1,0", "--sweep-gamma", "1",
                     "--data", str(corrupted_path), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["history", "merge"])
    @pytest.mark.parametrize("flag, value", [("--data", "nonexist.pll"),
                                             ("--config", "nonexist.cfg"), ("--seed", "3")])
    def test_sweep_flag_outside_a_sweep_is_usage_error(self, tmp_path, capsys, mode,
                                                       flag, value):
        from idgp.evaluation import write_report_csv
        hist = tmp_path / "h.jsonl"
        hist.write_text(json.dumps({"epoch": 1, "train_loss": 0.5}) + "\n")
        metrics = tmp_path / "m.csv"
        write_report_csv(metrics, [{"method": "idgp", "dataset": "toy", "seed_count": 1,
                                    "mean_acc": acc, "std_acc": 0.0} for acc in (0.8, 0.9)])
        inputs = {"history": ["--history", str(hist)], "merge": ["--merge", str(metrics)]}
        out = tmp_path / "x.csv"
        assert main(["report", *inputs[mode], "--out", str(out)]) == 0
        out.unlink()
        assert main(["report", *inputs[mode], flag, value, "--out", str(out)]) == EXIT_USAGE
        assert f"{flag} applies only to a sensitivity sweep" in capsys.readouterr().err
        assert not out.exists()

    def test_no_action_is_usage_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE

    def test_two_modes_are_usage_error(self, tmp_path):
        hist = tmp_path / "h.jsonl"
        hist.write_text(json.dumps({"epoch": 1, "train_loss": 0.5}) + "\n")
        out = tmp_path / "x.csv"
        assert main(["report", "--history", str(hist), "--merge", "a.csv", "b.csv",
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

