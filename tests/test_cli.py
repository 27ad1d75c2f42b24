"""Command surface: exit codes, determinism, file artifacts."""

import json
import struct

import numpy as np
import pytest

import idgp.distributions
import idgp.objective
import idgp.trainer
from idgp import cli
from idgp.cli import (
    EXIT_GRADCHECK,
    EXIT_IO,
    EXIT_INVARIANT,
    EXIT_USAGE,
    load_model,
    main,
    parse_config_file,
    save_model,
)
from idgp.data import load_dataset, read_sidecar, write_dataset
from idgp.evaluation import read_report_csv
from idgp.generation import make_clean_dataset
from idgp.network import DenseNet, TransformConfig


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

    def test_missing_input_exits_1(self, tmp_path):
        code = main(["corrupt", "--data", str(tmp_path / "nope.pll"),
                     "--out", str(tmp_path / "x.pll"), "--mode", "uniform",
                     "--p", "0.2"])
        assert code == 1


class TestTrainEval:
    def test_train_then_eval_consistent(self, tmp_path, corrupted_path):
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
        f = DenseNet([2, 4, 5], rng=np.random.default_rng(0))
        g = DenseNet([2, 4, 10], rng=np.random.default_rng(1))
        save_model(model, f, g, TransformConfig())
        code = main(["eval", "--model", str(model), "--data",
                     str(corrupted_path), "--out", str(tmp_path / "m.csv")])
        assert code == EXIT_INVARIANT

    def test_eval_into_malformed_csv_exits_1_unchanged(self, tmp_path, clean_path, capsys):
        model = tmp_path / "m.bin"
        save_model(model, DenseNet([2, 4, 3], rng=np.random.default_rng(0)),
                   DenseNet([2, 4, 6], rng=np.random.default_rng(1)), TransformConfig())
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

    def test_unaddressable_header_c_exits_1(self, tmp_path, capsys):
        data = tmp_path / "huge.pll"
        data.write_text(f"2 1 {2 ** 62}\n0.5 | 1\n-0.5 | 2\n")
        assert main(["train", "--data", str(data),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_IO
        assert f"{data}:1: n=2 rows of c={2 ** 62}" in capsys.readouterr().err

    def test_unallocatable_output_layer_exits_3(self, tmp_path, capsys):
        # loads (2 x 2**56 is addressable) but the default hidden=64 output
        # layer is not; the spec check refuses it before numpy allocates
        data = tmp_path / "huge.pll"
        data.write_text(f"2 1 {2 ** 56}\n0.5 | 1\n-0.5 | 2\n")
        assert main(["train", "--data", str(data),
                     "--out-dir", str(tmp_path / "run")]) == EXIT_INVARIANT
        err = capsys.readouterr().err
        assert f"error: a 64 x {2 ** 56} weight matrix cannot be allocated" in err

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
        ("activation", "tanh"), ("weight_decay", "nan"), ("lr_f", "inf"), ("lr_g", "inf"),
        ("epsilon", "inf"), ("rho", "inf"), ("a", "inf"), ("b", "inf"), ("gamma", "inf")])
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
        rng = np.random.default_rng(4)
        f = DenseNet([3, 8, 4], clamp=5.0, rng=rng)
        g = DenseNet([3, 8, 8], activation="identity", clamp=7.0, rng=rng)
        tc = TransformConfig(a=2.0, b=0.5, gamma=1.5)
        path = tmp_path / "model.bin"
        save_model(path, f, g, tc)
        f2, g2, tc2 = load_model(path)
        assert tc2 == tc
        assert f2.layer_sizes == f.layer_sizes and f2.clamp == 5.0
        assert g2.activation == "identity"
        for a, b in zip(f.weights + f.biases, f2.weights + f2.biases):
            assert np.array_equal(a, b)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAMODELFILE" * 4)
        assert main(["eval", "--model", str(path), "--data", str(path),
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("damage", ["cut_10", "cut_40", "cut_8_short",
                                        "activation_7", "transform_a_0",
                                        "transform_gamma_inf", "clamp_neg",
                                        "clamp_0", "clamp_nan", "weight_nan"])
    def test_corrupt_model_exits_1(self, tmp_path, clean_path, capsys, damage):
        path = tmp_path / "model.bin"
        save_model(path, DenseNet([2, 4, 3], rng=np.random.default_rng(0)),
                   DenseNet([2, 4, 6], rng=np.random.default_rng(1)), TransformConfig())
        buf = bytearray(path.read_bytes())
        if damage == "activation_7":
            buf[36:40] = struct.pack("<I", 7)  # f's activation code follows the header
        elif damage == "transform_a_0":
            buf[12:20] = struct.pack("<d", 0.0)  # a, b, gamma follow the version
        elif damage == "transform_gamma_inf":
            buf[28:36] = struct.pack("<d", float("inf"))
        elif damage.startswith("clamp_"):
            # f's activation code, size count and 3 sizes come before its clamp
            value = {"clamp_neg": -3.0, "clamp_0": 0.0, "clamp_nan": float("nan")}[damage]
            buf[56:64] = struct.pack("<d", value)
        elif damage == "weight_nan":
            buf[64:72] = struct.pack("<d", float("nan"))  # f's first weight
        else:
            buf = buf[:{"cut_10": 10, "cut_40": 40, "cut_8_short": len(buf) - 8}[damage]]
        path.write_bytes(bytes(buf))
        assert main(["eval", "--model", str(path), "--data", str(clean_path),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert f"{path}: truncated or corrupt model file" in capsys.readouterr().err


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

    @pytest.mark.parametrize("binding", ["chain_to_lambda", "chain_to_alpha_beta",
                                         "lambda_transform_grad"])
    def test_fault_in_trainer_step_detected(self, monkeypatch, capsys, binding):
        real = getattr(idgp.trainer, binding)

        def doubled(*args):
            out = real(*args)
            return tuple(2.0 * o for o in out) if isinstance(out, tuple) else 2.0 * out

        monkeypatch.setattr(idgp.trainer, binding, doubled)
        assert main(["gradcheck", "--trials", "2", "--seed", "1"]) == EXIT_GRADCHECK
        assert "map_loss" in capsys.readouterr().err

    def test_offset_in_loss_value_detected(self, monkeypatch, capsys):
        real = idgp.objective.ml_loss_batch

        def shifted(theta, z, mask):
            values, d_theta, d_z = real(theta, z, mask)
            return values + 1e-3, d_theta, d_z

        monkeypatch.setattr(idgp.objective, "ml_loss_batch", shifted)
        monkeypatch.setattr(idgp.trainer, "ml_loss_batch", shifted)
        assert main(["gradcheck", "--trials", "2", "--seed", "1"]) == EXIT_GRADCHECK
        assert "map_loss" in capsys.readouterr().err

    def test_offset_in_network_backward_detected(self, monkeypatch, capsys):
        real = DenseNet.backward

        def offset(self, cache, grad_scores):
            grads = real(self, cache, grad_scores)
            gW, gb = grads[0]
            gW = gW.copy()
            gW[0, 0] += 1e-3
            return [(gW, gb)] + grads[1:]

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
        assert lines[1].startswith("1,0.5,history")

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

    def test_no_action_is_usage_error(self, tmp_path):
        assert main(["report", "--out", str(tmp_path / "o.csv")]) == EXIT_USAGE

    def test_two_modes_are_usage_error(self, tmp_path):
        hist = tmp_path / "h.jsonl"
        hist.write_text(json.dumps({"epoch": 1, "train_loss": 0.5}) + "\n")
        out = tmp_path / "x.csv"
        assert main(["report", "--history", str(hist), "--merge", "a.csv", "b.csv",
                     "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

