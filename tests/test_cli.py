"""CLI parsing and end-to-end command execution on tiny configurations."""

import csv
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from focusrank import cli
from focusrank.cli import execute, main, parse_args
from focusrank.errors import ConfigError, UsageError

GOLDEN = Path(__file__).resolve().parent / "golden"

TINY_CFG = """
# miniature run for harness tests
dim: 16
layers: 1
vocab_size: 64
text_len: 6
patch_count: 4
patch_dim: 16
frame_count: 2
mlp_hidden: 16
k: 3
pair_count: 12
cohort_size: 3
batch_size: 6
epochs: 1
lr_base: 0.001
lr_fusion: 0.01
weight_decay: 0.01
latent_dim: 6
"""


@pytest.fixture
def tiny_cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseArgs:
    def test_minimal_train(self):
        cmd = parse_args(["train", "--config", "run.cfg"])
        assert vars(cmd) == {"verb": "train", "config": "run.cfg", "set": {}, "out": "out"}

    def test_ablate_sweep_list(self):
        cmd = parse_args(["ablate", "--config", "run.cfg", "--set", "k=5,10,20"])
        assert cmd.set == {"k": "5,10,20"}
        assert cmd.components is False

    def test_sweep_values_stripped_once(self):
        cmd = parse_args(["ablate", "--set", " k = 5, 10 ,20 "])
        assert cmd.set == {"k": "5,10,20"}

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_args(["eval", "--set", "indicater_count=4"])

    def test_out_of_range_override_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_args(["eval", "--set", "indicator_count=seven"])

    def test_deleted_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: 'fusion_blocks'"):
            parse_args(["eval", "--set", "fusion_blocks=1"])

    def test_override_without_equals_rejected(self):
        with pytest.raises(UsageError, match="--set expects key=value"):
            parse_args(["train", "--set", "k"])

    def test_duplicate_override_key_rejected(self):
        with pytest.raises(UsageError, match="duplicate --set key 'k'"):
            parse_args(["ablate", "--set", "k=2", "--set", " k =3"])

    def test_sweep_list_only_for_ablate(self):
        with pytest.raises(UsageError):
            parse_args(["train", "--set", "k=5,10"])

    def test_unknown_verb_exits(self, capsys):
        with pytest.raises(SystemExit):
            parse_args(["dance"])

    def test_flags(self):
        cmd = parse_args(["train", "--out", "artifacts"])
        assert cmd.out == "artifacts"

    def test_seed_is_a_config_key_not_a_flag(self, capsys):
        # `--set seed=N` is the one way to set the seed.
        with pytest.raises(SystemExit) as exc:
            main(["train", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb", ["train", "ablate"])
    def test_noise_switch_is_a_config_key_not_a_flag(self, verb, capsys):
        # `--set use_gumbel=false` is the one way to train without noise.
        with pytest.raises(SystemExit):
            parse_args([verb, "--deterministic"])


class TestExecute:
    def test_train_writes_artifacts(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "run"
        code = execute(parse_args(["train", "--config", tiny_cfg_path, "--out", str(out)]))
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["model.bin", "training_log.csv"]
        rows = read_csv(out / "training_log.csv")
        assert rows[0] == ["epoch", "step", "l_t2v", "l_v2t", "l_focus_t", "l_focus_v", "combined"]
        assert len(rows) == 3  # 12 pairs / batch 6 = 2 steps, plus header

    def test_eval_untrained_broad_equals_two_stage(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "eval"
        code = execute(parse_args(["eval", "--config", tiny_cfg_path, "--out", str(out)]))
        assert code == 0
        rows = read_csv(out / "metrics.csv")
        assert rows[0] == ["direction", "stage", "R@1", "R@5", "R@10", "MdR", "MnR"]
        by_key = {(r[0], r[1]): r[2:] for r in rows[1:]}
        assert by_key[("t2v", "broad-only")] == by_key[("t2v", "two-stage")]
        assert by_key[("v2t", "broad-only")] == by_key[("v2t", "two-stage")]

    def test_query_emits_ranked_csv(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "q"
        code = execute(
            parse_args(["query", "--config", tiny_cfg_path, "--out", str(out),
                        "--set", "query_index=2"])
        )
        assert code == 0
        rows = read_csv(out / "query_result.csv")
        assert rows[0] == ["rank", "id", "stage1_score", "delta", "final_score"]
        assert len(rows) == 13  # header + 12 gallery entries
        ranks = [int(r[0]) for r in rows[1:]]
        assert ranks == sorted(ranks)

    @pytest.mark.parametrize("verb", ["eval", "query"])
    def test_logs_encode_time_and_threads(self, tiny_cfg_path, tmp_path, caplog, verb):
        caplog.set_level(logging.INFO, logger="focusrank")
        code = execute(parse_args([verb, "--config", tiny_cfg_path, "--out", str(tmp_path)]))
        assert code == 0
        generated, encoded = [r.getMessage() for r in caplog.records if r.name == "focusrank.data"]
        assert re.fullmatch(r"generated 12 pairs in \d+\.\d{3} s, threads=1", generated)
        assert re.fullmatch(r"encoded 12 pairs in \d+\.\d{3} s, threads=1", encoded)

    def test_gradcheck_passes(self, tmp_path, capsys):
        out = tmp_path / "g"
        code = execute(parse_args(["gradcheck", "--out", str(out)]))
        assert code == 0
        printed = capsys.readouterr().out
        assert "pass combined-objective" in printed
        rows = read_csv(out / "gradcheck.csv")
        assert all(row[3] == "pass" for row in rows[1:])
        assert {"layer-norm", "broadcast-attention"} <= {row[0] for row in rows[1:]}
        # Every error and worst parameter, pinned (regenerated by test_golden.py).
        assert (out / "gradcheck.csv").read_bytes() == (GOLDEN / "gradcheck.csv").read_bytes()

    def test_module_entry_point_runs_train(self, tiny_cfg_path, tmp_path):
        # `python -m focusrank` from a checkout, without the installed script.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = tmp_path / "run"
        done = subprocess.run(
            [sys.executable, "-m", "focusrank", "train", "--config", tiny_cfg_path,
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        rows = read_csv(out / "training_log.csv")
        assert rows[0][:2] == ["epoch", "step"] and len(rows) == 3

    def test_ablate_sweep_one_row_per_value(self, tiny_cfg_path, tmp_path, capsys, monkeypatch):
        generated = []
        generate = cli.generate_synthetic_pairs

        def counting(cfg):
            generated.append(cfg.k)
            return generate(cfg)

        monkeypatch.setattr(cli, "generate_synthetic_pairs", counting)
        out = tmp_path / "ab"
        code = execute(
            parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(out),
                        "--set", "k=2,3"])
        )
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert len(rows) == 3
        assert [r[1] for r in rows[1:]] == ["2", "3"]
        assert generated == [2, 3]  # each row trains and evaluates on one dataset

    def test_ablate_evaluates_two_stage_once_per_row(self, tiny_cfg_path, tmp_path, capsys,
                                                     monkeypatch):
        # A row writes only two-stage reports, so it ranks no other mode.
        modes = []
        evaluate = cli.evaluate_two_stage

        def counting(*args, **kwargs):
            modes.append(kwargs.get("mode", "two-stage"))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_two_stage", counting)
        out = tmp_path / "ab"
        code = execute(parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(out),
                                   "--set", "k=2,3"]))
        assert code == 0
        assert modes == ["two-stage", "two-stage"]

    def test_ablate_sweep_labels_carry_no_spaces(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "ab"
        code = execute(parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(out),
                                   "--set", "k=2, 3"]))
        assert code == 0
        assert [r[1] for r in read_csv(out / "ablation.csv")[1:]] == ["2", "3"]
        assert sorted(p.name for p in out.iterdir()) == [
            "ablate_k_2", "ablate_k_3", "ablation.csv"]

    def test_ablate_components_one_row_per_component(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "ab"
        code = execute(
            parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(out), "--components"])
        )
        assert code == 0
        rows = read_csv(out / "ablation.csv")
        assert [r[:2] for r in rows[1:]] == [
            ["components", label]
            for label in ("baseline", "+indicators", "+stage1_scores", "+gumbel")
        ]
        # The +gumbel row differs from the row above it only by training noise,
        # so the noise must reach the trained parameters.
        stage1 = (out / "ablate_components_stage1_scores" / "model.bin").read_bytes()
        gumbel = (out / "ablate_components_gumbel" / "model.bin").read_bytes()
        assert stage1 != gumbel

    def test_ablate_requires_exactly_one_sweep(self, tiny_cfg_path, tmp_path):
        with pytest.raises(UsageError):
            execute(parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(tmp_path)]))

    def test_ablate_components_rejects_a_sweep(self, tiny_cfg_path, tmp_path):
        # The component rows would run at one k and drop the sweep; fail first.
        out = tmp_path / "ab"
        with pytest.raises(UsageError):
            execute(parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(out),
                                "--components", "--set", "k=2,3"]))
        assert not out.exists()

    @pytest.mark.parametrize("key", ["use_query_indicators", "use_stage1_scores", "use_gumbel"])
    def test_ablate_components_rejects_a_component_key(self, tiny_cfg_path, tmp_path, key):
        # Each row sets these keys, so a single-value --set would be overridden.
        out = tmp_path / "ab"
        with pytest.raises(UsageError):
            execute(parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(out),
                                "--components", "--set", f"{key}=false"]))
        assert not out.exists()

    def test_ablate_checks_every_row_before_training(self, tiny_cfg_path, tmp_path):
        # k=0 is invalid; no row may train (and write its directory) first.
        out = tmp_path / "ab"
        with pytest.raises(ConfigError):
            execute(parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(out),
                                "--set", "k=3,0"]))
        assert not out.exists()

    @pytest.mark.parametrize("sweep", ["k=2,2", "k=2,02", "lr_base=0.001,1e-3"])
    def test_ablate_repeated_sweep_value_rejected(self, tiny_cfg_path, tmp_path, sweep):
        # Two rows of one value would train twice into one run directory.
        out = tmp_path / "ab"
        with pytest.raises(UsageError):
            execute(parse_args(["ablate", "--config", tiny_cfg_path, "--out", str(out),
                                "--set", sweep]))
        assert not out.exists()

    def test_ablate_blocked_run_directory_fails_before_training(self, tiny_cfg_path, tmp_path,
                                                                capsys, monkeypatch):
        def no_work(cfg):
            raise AssertionError("a row trained before every run directory was made")

        monkeypatch.setattr(cli, "generate_synthetic_pairs", no_work)
        out = tmp_path / "ab"
        out.mkdir()
        (out / "ablate_k_3").write_text("a file, not a directory")
        code = main(["ablate", "--config", tiny_cfg_path, "--out", str(out), "--set", "k=2,3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out / "ablate_k_3") in err
        assert (out / "ablate_k_3").read_text() == "a file, not a directory"
        assert not (out / "ablation.csv").exists()

    @pytest.mark.parametrize("verb", ["eval", "train"])
    def test_missing_file_is_a_typed_error(self, tmp_path, capsys, verb):
        missing = tmp_path / "missing"
        source = (["--set", f"checkpoint={missing}.bin"] if verb == "eval"
                  else ["--config", f"{missing}.cfg"])
        code = main([verb, "--out", str(tmp_path / "out"), *source])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing" in err

    @pytest.mark.parametrize("verb", ["train", "eval", "query", "ablate"])
    def test_unusable_out_fails_before_any_work(self, tiny_cfg_path, tmp_path, capsys,
                                                monkeypatch, verb):
        def no_work(cfg):
            raise AssertionError("pairs generated before --out was checked")

        monkeypatch.setattr(cli, "generate_synthetic_pairs", no_work)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        sweep = ["--set", "k=2,3"] if verb == "ablate" else []
        code = main([verb, "--config", tiny_cfg_path, "--out", str(out), *sweep])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert out.read_text() == "a file, not a directory"

    @pytest.mark.parametrize("verb, artifact", [("train", "model.bin"), ("eval", "metrics.csv")])
    def test_unwritable_artifact_is_a_typed_error(self, tiny_cfg_path, tmp_path, capsys, verb,
                                                  artifact):
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        code = main([verb, "--config", tiny_cfg_path, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and str(out / artifact) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_query_index_checked_before_any_work(self, tiny_cfg_path, tmp_path, capsys,
                                                 monkeypatch):
        def no_work(cfg):
            raise AssertionError("pairs generated before query_index was checked")

        monkeypatch.setattr(cli, "generate_synthetic_pairs", no_work)
        code = main(["query", "--config", tiny_cfg_path, "--out", str(tmp_path / "q"),
                     "--set", "query_index=12"])
        assert code == 1
        assert "query_index 12" in capsys.readouterr().err
        assert not (tmp_path / "q").exists()

    def test_unknown_log_level_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FOCUSRANK_LOG_LEVEL", "verbose")
        code = main(["gradcheck", "--out", str(tmp_path / "g")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "VERBOSE" in err
        assert not (tmp_path / "g").exists()

    def test_train_on_one_pair_fails_before_saving(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "one"
        code = main(["train", "--config", tiny_cfg_path, "--out", str(out),
                     "--set", "pair_count=1", "--set", "cohort_size=1"])
        assert code == 1
        assert "at least 2 pairs" in capsys.readouterr().err
        assert not (out / "model.bin").exists()

    @pytest.mark.parametrize("overrides",
                             [["lr_base=1e9", "lr_fusion=1e9"], ["temperature=1e-300"]],
                             ids=["learning-rate", "temperature"])
    def test_diverging_training_stops_before_saving(self, tiny_cfg_path, tmp_path, capsys,
                                                    overrides):
        # log_temperature overflows while the loss stays finite; the run must
        # stop at that update, not at the checkpoint or at a config check.
        out = tmp_path / "run"
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        with np.errstate(all="ignore"):
            code = main(["train", "--config", tiny_cfg_path, "--out", str(out), *sets])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parameters ['log_temperature'] hold NaN or infinite")
        assert "batch items" in err
        assert not (out / "model.bin").exists()

    def test_diverging_training_prints_no_numpy_warning(self, tmp_path):
        # The abort message explains the failure; overflow warnings before it do not.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p), FOCUSRANK_LOG_LEVEL="WARNING")
        done = subprocess.run(
            [sys.executable, "-m", "focusrank", "train", "--out", str(tmp_path / "run"),
             "--set", "pair_count=20", "--set", "batch_size=10",
             "--set", "epochs=1", "--set", "lr_base=1e9", "--set", "lr_fusion=1e9"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "RuntimeWarning" not in done.stderr
        assert done.stderr.startswith("error: parameters ['log_temperature'] hold NaN or infinite")

    def test_csv_outputs_byte_identical_across_runs(self, tiny_cfg_path, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            execute(parse_args(["train", "--config", tiny_cfg_path, "--out", str(out)]))
            blobs.append(
                (
                    (out / "training_log.csv").read_bytes(),
                    (out / "model.bin").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]

    def test_eval_loads_checkpoint(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "train"
        execute(parse_args(["train", "--config", tiny_cfg_path, "--out", str(out)]))
        out2 = tmp_path / "eval"
        code = execute(
            parse_args(["eval", "--config", tiny_cfg_path, "--out", str(out2),
                        "--set", f"checkpoint={out / 'model.bin'}"])
        )
        assert code == 0
        assert (out2 / "metrics.csv").exists()
