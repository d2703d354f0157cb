import csv

import numpy as np
import pytest

from robodet.cli import box_pixel_rect, main, render_overlay
from robodet.data import generate_toy_dataset, load_index, read_ppm, write_ppm
from robodet.detect import BBox, Detection, load_anchors
from robodet.evaluate import evaluate
from robodet.model import CLASS_NAMES, build_robo, init_network, load_weights, save_weights


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

    def test_bench_too_few_repeats_is_flag_error(self, capsys):
        code = main(["bench", "--model", "robo", "--k", "1", "--repeats", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "--repeats" in err

    @pytest.mark.parametrize("argv", [
        ["detect", "--weights", "/nonexistent.rbw", "--images", "x.ppm", "--sparse"],
        ["bench", "--sparse"],
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
        ("epochs=abc", "line 1: epochs: invalid literal"),
        ("lr_max=", "line 1: lr_max: could not convert"),
        ("lambda_l1=x", "line 1: lambda_l1: could not convert"),
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
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err
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

    @pytest.mark.parametrize("argv", [
        ["gen-data", "--n", "0", "--out", "never"],
        ["gen-data", "--n", "-2", "--out", "never"],
        ["train", "--data", "never", "--out", "never.rbw", "--k", "0"],
        ["ops", "--k", "0"],
        ["bench", "--k", "0"],
    ], ids=["gen-data --n 0", "gen-data --n -2", "train --k 0", "ops --k 0", "bench --k 0"])
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
        reports = evaluate(load_weights(weights_file), load_index(toy_dir, "val"))
        assert [row["criterion"] for row in rows] == [r.criterion.label for r in reports]
        for row, r in zip(rows, reports):
            for c, name in enumerate(CLASS_NAMES):
                assert tuple(int(row[f"{name}_{k}"]) for k in ("tp", "fp", "fn")) == r.counts[c]

    def test_bench_runs(self, capsys):
        assert main(["bench", "--model", "robo", "--k", "1", "--repeats", "3"]) == 0
        assert "ms" in capsys.readouterr().out

    def test_bench_thread_label_states_whether_blas_was_pinned(self, capsys):
        try:
            import threadpoolctl  # noqa: F401
            want, unwanted = "single thread", "not pinned"
        except ImportError:
            want, unwanted = "BLAS threads not pinned", "single thread"
        assert main(["bench", "--model", "robo", "--k", "1", "--repeats", "3"]) == 0
        out = capsys.readouterr().out
        assert want in out and unwanted not in out

    def test_ops_compare_preset(self, capsys):
        assert main(["ops", "--model", "tiny_yolo_ref", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "tiny_yolo_ref" in out and "robo_hr" in out


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
