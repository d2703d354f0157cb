import argparse
import csv
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from robodet import cli
from robodet import train as train_mod
from robodet.cli import box_pixel_rect, build_parser, main, render_overlay
from robodet.data import (
    generate_toy_dataset,
    load_anchors,
    load_index,
    read_ppm,
    save_anchors,
    write_ppm,
)
from robodet.detect import BBox, Detection
from robodet.evaluate import evaluate
from robodet.model import (
    CLASS_NAMES,
    build_robo,
    build_robo_bn,
    init_network,
    load_weights,
    save_weights,
)
from robodet.perf import count_macs
from robodet.train import _LOSS_KEYS, TrainConfig, prune


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_toy")
    generate_toy_dataset(10, "A", seed=2, out_dir=root)
    return root


@pytest.fixture(scope="module")
def weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_weights") / "net.rbw"
    net = init_network(build_robo(1), seed=0)
    save_weights(net, path)
    return path


# Every command that reads a dataset; `train_anchors` is train --anchors.
DATASET_COMMANDS = ("anchors", "train", "train_anchors", "transfer", "prune", "eval")


def dataset_argv(command, data, weights_file, tmp_path):
    """argv running command on the dataset at data, writing to tmp_path/out."""
    out = str(tmp_path / "out")
    if command == "train_anchors":
        save_anchors(tmp_path / "anchors.txt", np.full((len(CLASS_NAMES), 2), 0.1))
    return {
        "anchors": ["anchors", "--data", str(data), "--out", out],
        "train": ["train", "--data", str(data), "--out", out],
        "train_anchors": ["train", "--data", str(data), "--anchors",
                          str(tmp_path / "anchors.txt"), "--out", out],
        "transfer": ["transfer", "--weights", str(weights_file), "--data", str(data),
                     "--transfer-layers", "4", "--out", out],
        "prune": ["prune", "--weights", str(weights_file), "--finetune",
                  "--data", str(data), "--out", out],
        "eval": ["eval", "--data", str(data), "--weights", str(weights_file), "--out", out],
    }[command]


def no_read(path):
    raise AssertionError(f"sample {path} read before the dataset was checked")


@pytest.fixture(scope="module")
def k2_weights_file(tmp_path_factory):
    """robo at k=2: a 512x384 input, twice the toy images' 256x192."""
    path = tmp_path_factory.mktemp("cli_weights_k2") / "net_k2.rbw"
    save_weights(init_network(build_robo(2), seed=0), path)
    return path


class TestExitCodes:
    def test_ops_succeeds(self, capsys):
        assert main(["ops", "--model", "robo", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "l1" in out and "MAC" in out

    def test_train_without_data_is_validation_error(self, capsys):
        code = main(["train", "--out", "x.rbw"])
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_missing_weight_file_is_runtime_error(self, capsys):
        code = main(["detect", "--weights", "/nonexistent.rbw",
                     "--images", "/nonexistent.ppm"])
        assert code == 2

    @pytest.mark.parametrize("command", ["detect", "ops", "images", "train", "train_parent",
                                         "transfer", "prune"])
    def test_directory_path_is_runtime_error(self, toy_dir, weights_file, tmp_path, capsys,
                                             monkeypatch, command):
        # An unusable --out fails before any work: no training step runs, and
        # transfer and prune report it ahead of their missing weight file.
        def never(*args, **kwargs):
            pytest.fail("ran before --out was checked")

        for name in ("train_loop", "transfer_finetune", "prune", "finetune_pruned"):
            monkeypatch.setattr(train_mod, name, never)
        argv = {
            "detect": ["detect", "--weights", str(tmp_path), "--images",
                       str(toy_dir / "img_00000.ppm")],
            "ops": ["ops", "--weights", str(tmp_path)],
            "images": ["detect", "--weights", str(weights_file), "--images", str(tmp_path)],
            "train": ["train", "--data", str(toy_dir), "--out", str(tmp_path),
                      "--epochs", "1"],
            "train_parent": ["train", "--data", str(toy_dir),
                             "--out", str(tmp_path / "missing" / "net.rbw"), "--epochs", "1"],
            "transfer": ["transfer", "--weights", "/nonexistent.rbw", "--data", str(toy_dir),
                         "--out", str(tmp_path), "--transfer-layers", "3"],
            "prune": ["prune", "--weights", "/nonexistent.rbw", "--out", str(tmp_path)],
        }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and str(tmp_path) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command", ["anchors", "train"])
    def test_class_without_boxes_is_validation_error(self, tmp_path, capsys, monkeypatch,
                                                     command):
        # No crossing in the dataset: computing anchors from it fails before
        # any training, as a validation error naming the dataset directory.
        data = generate_toy_dataset(3, "A", seed=2, out_dir=tmp_path / "no_crossing")
        for _, ann_rel in data.entries:
            path = data.root / ann_rel
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(l for l in lines if not l.startswith("1 ")))
        monkeypatch.setattr(train_mod, "train_loop",
                            lambda *a, **kw: pytest.fail("trained without anchors"))
        argv = {
            "anchors": ["anchors", "--data", str(data.root)],
            "train": ["train", "--data", str(data.root), "--out", str(tmp_path / "net.rbw"),
                      "--epochs", "1"],
        }[command]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {data.root}: no annotations for class 'crossing'\n"

    def test_unknown_flag_rejected(self):
        assert main(["ops", "--frobnicate"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--epochs", "0"), ("--batch", "0"), ("--batch", "-3"), ("--l1", "-1"),
        ("--l1", "nan"), ("--l1", "inf"),
    ])
    def test_bad_train_value_is_validation_error(self, toy_dir, tmp_path, capsys,
                                                 flag, value):
        out = tmp_path / "x.rbw"
        code = main(["train", "--data", str(toy_dir), "--out", str(out), flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and flag.lstrip("-") in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bad_finetune_epochs_is_validation_error(self, toy_dir, weights_file,
                                                     tmp_path, capsys):
        out = tmp_path / "p.rbw"
        code = main(["prune", "--weights", str(weights_file), "--out", str(out),
                     "--finetune", "--data", str(toy_dir), "--finetune-epochs", "-1"])
        assert code == 1
        assert "finetune_epochs" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_value_is_validation_error(self, toy_dir, tmp_path, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("batch=0\n")
        code = main(["train", "--data", str(toy_dir), "--out", str(tmp_path / "x.rbw"),
                     "--config", str(config)])
        assert code == 1
        assert "batch" in capsys.readouterr().err

    @pytest.mark.parametrize("layers", ["99", "-1"])
    def test_transfer_layers_out_of_range_is_validation_error(self, weights_file, tmp_path,
                                                              capsys, layers):
        # The data directory does not exist: exit 1, not 2, shows the range
        # is checked before the data loads.
        out = tmp_path / "t.rbw"
        code = main(["transfer", "--weights", str(weights_file), "--data",
                     str(tmp_path / "never"), "--out", str(out), "--transfer-layers", layers])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: transfer_layers must lie in 0..15, got {layers}")
        assert not out.exists()

    def test_prune_finetune_without_data_is_flag_error(self, weights_file, tmp_path, capsys):
        out = tmp_path / "p.rbw"
        code = main(["prune", "--weights", str(weights_file), "--out", str(out),
                     "--finetune"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: --finetune requires --data")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("theta", ["0", "1.5"])
    def test_prune_theta_outside_unit_interval_is_flag_error(self, weights_file, tmp_path,
                                                             capsys, theta):
        out = tmp_path / "p.rbw"
        code = main(["prune", "--weights", str(weights_file), "--out", str(out),
                     "--theta", theta])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "--theta" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["detect", "--images", "x.ppm", "--conf", "nan"],
        ["detect", "--images", "x.ppm", "--conf", "-0.1"],
        ["detect", "--images", "x.ppm", "--conf", "1.5"],
        ["detect", "--images", "x.ppm", "--nms", "0"],
        ["detect", "--images", "x.ppm", "--nms", "1.01"],
        ["detect", "--images", "x.ppm", "--nms", "nan"],
        ["eval", "--data", "d", "--conf", "nan"],
        ["eval", "--data", "d", "--conf", "2"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_threshold_outside_range_is_flag_error(self, capsys, argv):
        # The weight file does not exist: exit 1, not 2, shows the flag is
        # checked before the weights load.
        code = main(argv + ["--weights", "/nonexistent.rbw"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and argv[-2] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["detect", "--weights", "/nonexistent.rbw", "--images", "x.ppm", "--sparse"],
    ], ids=lambda argv: argv[0])
    def test_removed_sparse_flag_is_flag_error(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "--sparse" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--lr-max", "nan"), ("--lr-max", "-1"), ("--lr-max", "0"), ("--lr-max", "inf"),
        ("--lr-min", "nan"), ("--lr-min", "-1"),
    ])
    def test_bad_learning_rate_flag_is_validation_error(self, toy_dir, tmp_path, capsys,
                                                        flag, value):
        out = tmp_path / "x.rbw"
        code = main(["train", "--data", str(toy_dir), "--out", str(out), flag, value])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and flag[2:].replace("-", "_") in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["lr_max=nan", "lr_min=-1e-4", "finetune_lr=0"])
    def test_bad_learning_rate_in_config_is_validation_error(self, toy_dir, tmp_path,
                                                             capsys, line):
        config = tmp_path / "train.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "x.rbw"
        code = main(["train", "--data", str(toy_dir), "--out", str(out),
                     "--config", str(config)])
        assert code == 1
        assert line.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("lambda_coord=inf", "loss weight coord must be finite"),
        ("epochs=abc", ":1: epochs: invalid literal"),
        ("lr_max=", ":1: lr_max: could not convert"),
        ("lambda_l1=x", ":1: lambda_l1: could not convert"),
    ])
    def test_bad_config_line_names_the_value(self, toy_dir, tmp_path, capsys, line,
                                             message):
        config = tmp_path / "train.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "x.rbw"
        code = main(["train", "--data", str(toy_dir), "--out", str(out),
                     "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {config}:") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, raw", [
        ("--config", b"epochs=3\n\xff\n"),
        ("--anchors", b"ball 0.1 0.1\n\xfe\n"),
    ], ids=["config", "anchors"])
    def test_non_utf8_input_file_is_validation_error(self, toy_dir, tmp_path, capsys,
                                                     flag, raw):
        path = tmp_path / "input.txt"
        path.write_bytes(raw)
        out = tmp_path / "x.rbw"
        code = main(["train", "--data", str(toy_dir), "--out", str(out), "--epochs", "1",
                     flag, str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: not UTF-8 text") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "ball abc 0.1", "ball nan 0.1", "crossing -1 0.1", "goalpost inf 0",
    ])
    def test_bad_anchor_file_is_validation_error(self, toy_dir, tmp_path, capsys, line):
        anchors = tmp_path / "anchors.txt"
        anchors.write_text(f"# sizes\n{line}\n")
        out = tmp_path / "x.rbw"
        code = main(["train", "--data", str(toy_dir), "--out", str(out),
                     "--anchors", str(anchors), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {anchors}:2: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_anchor_class_is_validation_error(self, toy_dir, tmp_path, capsys):
        anchors = tmp_path / "anchors.txt"
        anchors.write_text("ball 0.1 0.1\nball 0.2 0.2\n")
        out = tmp_path / "x.rbw"
        code = main(["train", "--data", str(toy_dir), "--out", str(out),
                     "--anchors", str(anchors), "--epochs", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {anchors}:2: duplicate anchors for 'ball'\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--n", "0", "--out", "never"],
        ["gen-data", "--n", "-2", "--out", "never"],
        ["train", "--data", "never", "--out", "never.rbw", "--k", "0"],
        ["ops", "--k", "0"],
    ], ids=["gen-data --n 0", "gen-data --n -2", "train --k 0", "ops --k 0"])
    def test_count_below_one_is_flag_error(self, tmp_path, monkeypatch, capsys, argv):
        # Run where "never" does not exist: exit 1 and no output directory
        # show the flag is checked before any work.
        monkeypatch.chdir(tmp_path)
        flag = argv[argv.index("--n") if "--n" in argv else argv.index("--k")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and flag in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "never", "--out", "never.rbw", "--model", "robo_hr", "--k", "2"],
        ["ops", "--model", "robo_hr", "--k", "2", "--csv", "never.csv"],
    ], ids=lambda argv: argv[0])
    def test_robo_hr_other_k_is_validation_error(self, tmp_path, monkeypatch, capsys, argv):
        # Run where "never" does not exist: exit 1, not 2, and an empty
        # directory show the pairing is checked before any data loads.
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: robo_hr has a fixed 192x256 input; k must be 1")
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["train", "prune"])
    def test_prune_threshold_config_key_is_validation_error(self, toy_dir, weights_file,
                                                            tmp_path, capsys, command):
        # --theta is the only pruning threshold; the config key is gone.
        config = tmp_path / "c.cfg"
        config.write_text("prune_threshold=0.05\n")
        out = tmp_path / "x.rbw"
        argv = {"train": ["train", "--data", str(toy_dir)],
                "prune": ["prune", "--weights", str(weights_file)]}[command]
        code = main(argv + ["--out", str(out), "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(
            f"error: {config}:1: unknown config key 'prune_threshold'")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("source", ["gen-data", "train", "config"])
    def test_negative_seed_is_validation_error(self, toy_dir, tmp_path, capsys, source):
        out = tmp_path / "out"
        config = tmp_path / "c.cfg"
        config.write_text("seed=-1\n")
        argv = {
            "gen-data": ["gen-data", "--n", "1", "--seed", "-1", "--out", str(out)],
            "train": ["train", "--data", str(toy_dir), "--out", str(out), "--seed", "-1"],
            "config": ["train", "--data", str(toy_dir), "--out", str(out),
                       "--config", str(config)],
        }[source]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "seed must be non-negative, got -1" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "transfer", "prune", "eval", "detect"])
    def test_image_size_mismatch_is_validation_error(self, toy_dir, weights_file,
                                                     k2_weights_file, tmp_path, capsys,
                                                     command):
        # The k=2 net takes 512x384 input; the toy images are 256x192.
        out = tmp_path / "out"
        image = toy_dir / "img_00000.ppm"
        argv = {
            "train": ["train", "--data", str(toy_dir), "--k", "2", "--out", str(out)],
            "transfer": ["transfer", "--weights", str(k2_weights_file), "--data", str(toy_dir),
                         "--transfer-layers", "4", "--out", str(out)],
            "prune": ["prune", "--weights", str(k2_weights_file), "--finetune",
                      "--data", str(toy_dir), "--out", str(out)],
            "eval": ["eval", "--data", str(toy_dir), "--weights", str(weights_file),
                     str(k2_weights_file), "--out", str(out)],
            "detect": ["detect", "--weights", str(k2_weights_file), "--images", str(image),
                       "--out-dir", str(out)],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        source = image if command == "detect" else toy_dir
        assert code == 1
        assert captured.err == (f"error: {source}: image size 256x192 does not match "
                                "the robo k=2 input 512x384\n")
        assert captured.out == ""
        assert not out.exists()


    @pytest.mark.parametrize("command", ["train", "transfer", "prune", "eval"])
    def test_mixed_image_sizes_are_validation_error(self, weights_file, tmp_path, capsys,
                                                    monkeypatch, command):
        data = tmp_path / "mixed"
        generate_toy_dataset(4, "A", seed=2, out_dir=data)
        write_ppm(data / "img_00002.ppm", np.zeros((96, 128, 3), dtype=np.uint8))
        monkeypatch.setattr(cli.data_mod, "read_ppm", no_read)
        code = main(dataset_argv(command, data, weights_file, tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: {data / 'img_00002.ppm'}: image size 128x96 "
                                f"differs from 256x192 of {data / 'img_00000.ppm'}\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, case", [
        (command, case)
        for command in DATASET_COMMANDS
        for case in ("empty_index", "one_field_index", "four_field_annotation",
                     "truncated_image")
    ])
    def test_malformed_dataset_is_validation_error(self, weights_file, tmp_path, capsys,
                                                   monkeypatch, command, case):
        data = tmp_path / "bad"
        generate_toy_dataset(2, "A", seed=2, out_dir=data)
        index = data / "index.txt"
        want = {
            "empty_index": f"{index}: empty dataset index",
            "one_field_index": f"{index}:1: expected 'image annotations'",
            "four_field_annotation": (f"{data / 'img_00001.txt'}:1: expected "
                                      "'class_id cx cy w h', got 4 fields"),
            "truncated_image": (f"{data / 'img_00001.ppm'}: truncated pixel data: "
                                "147446 of 147456 bytes"),
        }[case]
        if case == "empty_index":
            index.write_text("")
        elif case == "one_field_index":
            index.write_text("img_00000.ppm\n")
        elif case == "truncated_image":
            image = data / "img_00001.ppm"
            image.write_bytes(image.read_bytes()[:-10])
        else:
            (data / "img_00001.txt").write_text("0 0.5 0.5 0.1\n")
        monkeypatch.setattr(cli.data_mod, "read_ppm", no_read)
        code = main(dataset_argv(command, data, weights_file, tmp_path))
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {want}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", DATASET_COMMANDS)
    def test_missing_annotation_file_is_runtime_error(self, weights_file, tmp_path, capsys,
                                                      monkeypatch, command):
        data = tmp_path / "bad"
        generate_toy_dataset(2, "A", seed=2, out_dir=data)
        (data / "img_00001.txt").unlink()
        monkeypatch.setattr(cli.data_mod, "read_ppm", no_read)
        code = main(dataset_argv(command, data, weights_file, tmp_path))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: {data / 'index.txt'}:2: no annotation file "
                                "'img_00001.txt'\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_missing_index_stays_runtime_error(self, tmp_path, capsys):
        code = main(["anchors", "--data", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"error: no index.txt in {tmp_path}\n"

    @pytest.mark.parametrize("command, case", [
        (command, case)
        for command in ("detect", "eval", "ops", "prune", "transfer")
        for case in ("truncated", "bad_magic")
    ])
    def test_malformed_weight_file_is_validation_error(self, toy_dir, weights_file, tmp_path,
                                                       capsys, command, case):
        bad = tmp_path / "bad.rbw"
        blob = weights_file.read_bytes()
        bad.write_bytes(blob[: len(blob) // 2] if case == "truncated" else b"XXXX" + blob[4:])
        out = tmp_path / "out"
        argv = {
            "detect": ["detect", "--weights", str(bad), "--images",
                       str(toy_dir / "img_00000.ppm"), "--out-dir", str(out)],
            "eval": ["eval", "--data", str(toy_dir), "--weights", str(weights_file), str(bad),
                     "--out", str(out)],
            "ops": ["ops", "--weights", str(bad), "--csv", str(out)],
            "prune": ["prune", "--weights", str(bad), "--out", str(out)],
            "transfer": ["transfer", "--weights", str(bad), "--data", str(toy_dir),
                         "--transfer-layers", "4", "--out", str(out)],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        want = {"truncated": f"error: {bad}: file truncated while reading ",
                "bad_magic": f"error: {bad}: bad magic, not a robodet weight file\n"}[case]
        assert code == 1
        assert captured.err.startswith(want)
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("case", ["bad_magic", "short_pixels"])
    def test_malformed_detect_image_is_validation_error(self, toy_dir, weights_file,
                                                        tmp_path, capsys, case):
        # The bad image comes second: every header is checked before the
        # first image runs or --out-dir is created.
        bad = tmp_path / "bad.ppm"
        blob = (toy_dir / "img_00001.ppm").read_bytes()
        bad.write_bytes(b"P5" + blob[2:] if case == "bad_magic" else blob[:-10])
        out = tmp_path / "out"
        code = main(["detect", "--weights", str(weights_file), "--images",
                     str(toy_dir / "img_00000.ppm"), str(bad), "--out-dir", str(out)])
        captured = capsys.readouterr()
        want = {"bad_magic": "not a binary PPM (P6) file",
                "short_pixels": "truncated pixel data: 147446 of 147456 bytes"}[case]
        assert code == 1
        assert captured.err == f"error: {bad}: {want}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("exc_type, want_code", [
        (ValueError, 1), (OSError, 2), (RuntimeError, 2),
    ])
    def test_main_maps_exception_type_to_exit_code(self, tmp_path, capsys, monkeypatch,
                                                   exc_type, want_code):
        # main alone picks the code: ops calls load_weights with no wrapper.
        def fail(path):
            raise exc_type(f"{path}: injected")

        monkeypatch.setattr(cli.model_mod, "load_weights", fail)
        path = tmp_path / "net.rbw"
        code = main(["ops", "--weights", str(path)])
        captured = capsys.readouterr()
        assert code == want_code
        assert captured.err == f"error: {path}: injected\n"
        assert captured.out == ""


def test_cli_docs_name_the_registered_commands():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    commands = list(sub.choices)
    assert cli.__doc__.split("\n\n")[1].split() == commands
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    used = [line.split()[1] for line in block.splitlines() if line.startswith("robodet ")]
    assert used and set(used) <= set(commands)


def test_readme_names_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = readme.split("- **Training config**", 1)[1].split("\n- **", 1)[0]
    keys = bullet.split("The keys are", 1)[1].split("any other key", 1)[0]
    named = set(re.findall(r"`(\w+)`", keys)) - {"TrainConfig"}
    assert named == {f.name for f in fields(TrainConfig)} | set(_LOSS_KEYS)


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any `import scipy` now raises ImportError
import numpy as np
from robodet import cli
from robodet.detect import BBox, decode_network_output
from robodet.model import HEADS, build_robo, init_network
from robodet.train import LossWeights, batch_detection_loss

net = init_network(build_robo(1), seed=0)
rng = np.random.default_rng(0)
raw_lo, raw_hi = (rng.normal(0, 2, (1, h.channels, *net.spec.head_grid(h))).astype(np.float32)
                  for h in HEADS)
lo, hi = decode_network_output(raw_lo, raw_hi, net.spec, net.anchors)
assert len(lo) and len(hi)
loss, _, _ = batch_detection_loss(raw_lo, raw_hi, [[(0, BBox(0.5, 0.5, 0.1, 0.1))]], net,
                                  LossWeights())
assert np.isfinite(loss)
sys.exit(cli.main(["ops"]))
"""


def test_runs_with_numpy_alone():
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "MAC" in result.stdout


class TestGenDataAnchors:
    def test_smoke_pipeline(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["gen-data", "--n", "50", "--seed", "7", "--out", str(out)]) == 0
        assert main(["anchors", "--data", str(out)]) == 0
        anchors = load_anchors(out / "anchors.txt")
        assert anchors.shape == (4, 2)
        assert (anchors > 0).all()

    def test_gen_data_idempotent(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-data", "--n", "4", "--seed", "3", "--out", str(a)])
        main(["gen-data", "--n", "4", "--seed", "3", "--out", str(b)])
        for name in ("img_00000.ppm", "img_00003.txt", "index.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestTrainCli:
    def test_train_prune_eval_cycle(self, toy_dir, tmp_path, capsys):
        weights = tmp_path / "w.rbw"
        code = main([
            "train", "--data", str(toy_dir), "--out", str(weights),
            "--model", "robo", "--k", "1", "--epochs", "1", "--batch", "5",
            "--seed", "0",
        ])
        assert code == 0
        assert weights.exists()

        pruned = tmp_path / "p.rbw"
        assert main(["prune", "--weights", str(weights), "--out", str(pruned),
                     "--theta", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out

        csv_path = tmp_path / "report.csv"
        assert main(["eval", "--data", str(toy_dir), "--weights", str(weights),
                     "--out", str(csv_path)]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("model,iou@0.75")
        assert "dist@64px" in header

    def test_detect_writes_dump_and_overlay(self, toy_dir, weights_file, tmp_path):
        img = next(toy_dir.glob("img_*.ppm"))
        out_dir = tmp_path / "dets"
        code = main(["detect", "--weights", str(weights_file),
                     "--images", str(img), "--conf", "0.0",
                     "--out-dir", str(out_dir)])
        assert code == 0
        dump = (out_dir / f"{img.stem}.txt").read_text()
        assert dump  # conf 0.0 keeps every candidate
        first = dump.splitlines()[0].split()
        assert len(first) == 6
        assert (out_dir / f"{img.stem}_overlay.ppm").exists()

    def test_eval_per_class_writes_counts(self, toy_dir, weights_file, tmp_path):
        path = tmp_path / "classes.csv"
        assert main(["eval", "--data", str(toy_dir), "--weights", str(weights_file),
                     "--per-class", str(path)]) == 0
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        reports = evaluate(load_weights(weights_file), load_index(toy_dir))
        assert [row["criterion"] for row in rows] == [r.criterion.label for r in reports]
        for row, r in zip(rows, reports):
            for c, name in enumerate(CLASS_NAMES):
                assert tuple(int(row[f"{name}_{k}"]) for k in ("tp", "fp", "fn")) == r.counts[c]

    def test_eval_per_class_covers_every_model(self, toy_dir, weights_file, tmp_path):
        second = tmp_path / "m2.rbw"
        save_weights(init_network(build_robo(1), seed=1), second)
        path = tmp_path / "classes.csv"
        assert main(["eval", "--data", str(toy_dir), "--weights", str(weights_file),
                     str(second), "--per-class", str(path)]) == 0
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        index = load_index(toy_dir)
        want = [(name, r) for name, w in (("net", weights_file), ("m2", second))
                for r in evaluate(load_weights(w), index)]
        assert [(row["model"], row["criterion"]) for row in rows] == [
            (name, r.criterion.label) for name, r in want]
        for row, (_, r) in zip(rows, want):
            assert row["mAP"] == f"{r.map:.4f}"
            for c, name in enumerate(CLASS_NAMES):
                assert tuple(int(row[f"{name}_{k}"]) for k in ("tp", "fp", "fn")) == r.counts[c]

    def test_ops_counts_the_weight_file(self, tmp_path, capsys):
        net = init_network(build_robo_bn(1), seed=0)
        prune(net, 0.3)
        path = tmp_path / "bn.rbw"
        save_weights(net, path)
        table = tmp_path / "ops.csv"
        assert main(["ops", "--weights", str(path), "--csv", str(table)]) == 0
        assert capsys.readouterr().out.startswith("model: robo_bn\n")
        want = count_macs(net.spec, net.mask_dict())
        total = table.read_text().splitlines()[-1].split(",")
        assert total[:4] == ["total", str(want.total_macs), str(round(want.total_effective)),
                             str(want.total_params)]

    @pytest.mark.parametrize("flags", [["--k", "2"], ["--model", "robo"],
                                       ["--model", "robo_bn", "--k", "2"]])
    def test_ops_flags_that_contradict_the_weight_file_fail(self, tmp_path, capsys, flags):
        path = tmp_path / "bn.rbw"
        save_weights(init_network(build_robo_bn(1), seed=0), path)
        code = main(["ops", "--weights", str(path)] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {path} holds robo_bn at k=1; ")
        assert captured.out == ""

    def test_ops_compare_preset(self, capsys):
        assert main(["ops", "--model", "tiny_yolo_ref", "--compare"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if "MAC ratio" in l] == [
            "tiny_yolo_ref/robo MAC ratio: 39.95x (effective 39.95x)",
            "tiny_yolo_ref/robo_bn MAC ratio: 12.41x (effective 12.41x)",
            "tiny_yolo_ref/robo_hr MAC ratio: 43.85x (effective 43.85x)",
        ]

    def test_ops_robo_hr_defaults_to_its_one_size(self, capsys):
        assert main(["ops", "--model", "robo_hr"]) == 0
        out = capsys.readouterr().out
        # l1 is 3x3, stride 2, 3->8 channels: 96x128 outputs of a 192x256 input.
        assert f"{9 * 3 * 8 * 96 * 128:>14,}" in out.splitlines()[2]


class TestOverlay:
    def test_zero_detections_copies_image(self, tmp_path, rng):
        img = rng.integers(0, 256, (32, 48, 3), dtype=np.uint8)
        out = tmp_path / "o.ppm"
        render_overlay(img, [], out)
        np.testing.assert_array_equal(read_ppm(out), img)

    def test_full_image_box_draws_borders(self, tmp_path):
        img = np.zeros((20, 30, 3), dtype=np.uint8)
        det = Detection(BBox(0.5, 0.5, 1.0, 1.0), 3, 0.9)
        out = tmp_path / "o.ppm"
        render_overlay(img, [det], out)
        got = read_ppm(out)
        magenta = np.array([255, 0, 255])
        assert (got[0, :] == magenta).all(axis=-1).all()
        assert (got[19, :] == magenta).all(axis=-1).all()
        assert (got[:, 0] == magenta).all(axis=-1).all()
        assert (got[:, 29] == magenta).all(axis=-1).all()

    def test_known_box_pixel_coordinates(self, tmp_path):
        # 256x192 image, box centered at (0.5, 0.5) with w=h=0.25:
        # columns [96, 159], rows [72, 119]
        assert box_pixel_rect(BBox(0.5, 0.5, 0.25, 0.25), 256, 192) == (96, 72, 159, 119)
        img = np.zeros((192, 256, 3), dtype=np.uint8)
        det = Detection(BBox(0.5, 0.5, 0.25, 0.25), 0, 0.5)
        out = tmp_path / "o.ppm"
        render_overlay(img, [det], out)
        got = read_ppm(out)
        orange = np.array([255, 165, 0])
        assert (got[72, 96:160] == orange).all()
        assert (got[119, 96:160] == orange).all()
        assert (got[72:120, 96] == orange).all()
        assert (got[72:120, 159] == orange).all()
        assert (got[73, 97] == 0).all() or (got[73, 97] == orange).all()  # label may paint

    def test_label_glyphs_painted(self, tmp_path):
        img = np.zeros((64, 64, 3), dtype=np.uint8)
        det = Detection(BBox(0.5, 0.6, 0.4, 0.4), 1, 0.87)
        out = tmp_path / "o.ppm"
        render_overlay(img, [det], out)
        got = read_ppm(out)
        assert (got == np.array([0, 255, 255])).all(axis=-1).sum() > 40
