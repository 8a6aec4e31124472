import json
import shutil

import pytest

from drqp import net
from drqp.cli import main


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "bundle"
    rc = run(["generate", "--family", "qp_rhs", "--n", "10", "--count", "8",
              "--seed", "0", "--label", "--split", "4", "2", "2",
              "--out", str(out)])
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_instances_and_manifest(self, bundle_dir):
        files = sorted(p.name for p in bundle_dir.iterdir())
        assert "manifest.json" in files
        assert sum(f.startswith("instance_") for f in files) == 8

    def test_rerun_identical(self, bundle_dir, tmp_path):
        out = tmp_path / "again"
        rc = run(["generate", "--family", "qp_rhs", "--n", "10", "--count",
                  "8", "--seed", "0", "--label", "--split", "4", "2", "2",
                  "--out", str(out)])
        assert rc == 0
        for f in sorted(bundle_dir.iterdir()):
            assert (out / f.name).read_bytes() == f.read_bytes()

    def test_bad_family_usage_error(self, capsys):
        assert run(["generate", "--family", "lp", "--count", "1"]) == 1

    def test_portfolio_generation(self, tmp_path):
        out = tmp_path / "pf"
        rc = run(["generate", "--family", "portfolio", "--k", "2", "--count",
                  "3", "--seed", "0", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["family"] == "portfolio"


class TestCompare:
    def test_emits_tables(self, bundle_dir, tmp_path):
        out = tmp_path / "cmp"
        rc = run(["compare", str(bundle_dir), "--steps", "1", "2",
                  "--out", str(out)])
        assert rc == 0
        assert (out / "comparison.csv").exists()
        assert (out / "multistep.csv").exists()

    def test_max_iter_zero_is_runtime_error(self, bundle_dir, tmp_path, capsys):
        rc = run(["compare", str(bundle_dir), "--max-iter", "0",
                  "--out", str(tmp_path / "cmp0")])
        assert rc == 2
        assert "error: max_iter must be >= 1" in capsys.readouterr().err

    def test_markdown_format(self, bundle_dir, tmp_path):
        out = tmp_path / "cmpmd"
        rc = run(["compare", str(bundle_dir), "--format", "markdown",
                  "--out", str(out)])
        assert rc == 0
        assert (out / "comparison.md").read_text().startswith("|")


class TestTrainEval:
    def test_train_then_eval(self, bundle_dir, tmp_path):
        out = tmp_path / "run"
        rc = run(["train", str(bundle_dir), "--layers", "2", "--embed", "4",
                  "--epochs", "3", "--eta-prior", "auto",
                  "--out", str(out)])
        assert rc == 0
        ckpt = out / "model.json"
        assert ckpt.exists()
        log = (out / "training_log.csv").read_text().strip().splitlines()
        assert len(log) == 4  # header + 3 epochs

        rc = run(["eval", str(bundle_dir), "--checkpoint", str(ckpt),
                  "--history", "--out", str(out)])
        assert rc == 0
        assert (out / "warmstart.csv").exists()
        assert (out / "warmstart_summary.csv").exists()
        assert (out / "residual_history.csv").exists()
        # report header flags the internal warm-start target
        assert "internal" in (out / "warmstart.csv").read_text().splitlines()[0]

    def test_train_without_labels_fails(self, tmp_path):
        out = tmp_path / "nolabel"
        run(["generate", "--family", "qp_rhs", "--n", "10", "--count", "3",
             "--seed", "1", "--out", str(out)])
        assert run(["train", str(out), "--epochs", "1"]) == 2

    @pytest.mark.parametrize("flags", [["--batch", "-1"], ["--epochs", "0"]])
    def test_train_needs_a_batch_and_an_epoch(self, bundle_dir, tmp_path, capsys, flags):
        # --batch -1 used to train nothing and write the untrained checkpoint
        out = tmp_path / "bad"
        assert run(["train", str(bundle_dir), *flags, "--out", str(out)]) == 2
        assert "batch_size and max_epochs must be >= 1" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_eval_missing_checkpoint_fails(self, bundle_dir, tmp_path):
        rc = run(["eval", str(bundle_dir), "--checkpoint",
                  str(tmp_path / "absent.json")])
        assert rc == 2

    @pytest.mark.parametrize("weight", [float("inf"), 1e200])
    def test_eval_non_finite_checkpoint_fails(self, bundle_dir, tmp_path, capsys,
                                              weight):
        # inf is rejected on load; 1e200 loads but overflows in the forward pass
        ckpt = tmp_path / "bad.json"
        net.save_checkpoint(net.init_params(2, 4, seed=0), ckpt)
        doc = json.loads(ckpt.read_text())
        for ld in doc["layers"]:
            ld["W_w"] = [[weight] * 4] * 4
        ckpt.write_text(json.dumps(doc))
        rc = run(["eval", str(bundle_dir), "--checkpoint", str(ckpt),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


    def test_eval_malformed_checkpoint_fails(self, bundle_dir, tmp_path, capsys):
        ckpt = tmp_path / "bad.json"
        net.save_checkpoint(net.init_params(2, 4, seed=0), ckpt)
        doc = json.loads(ckpt.read_text())
        del doc["layers"][0]["U_w"]
        ckpt.write_text(json.dumps(doc))
        rc = run(["eval", str(bundle_dir), "--checkpoint", str(ckpt),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert str(ckpt) in capsys.readouterr().err


class TestAblate:
    def test_one_row_per_layer_count(self, bundle_dir, tmp_path):
        out = tmp_path / "abl"
        rc = run(["ablate", str(bundle_dir), "--layers", "1", "2",
                  "--embed", "2", "--epochs", "2", "--out", str(out)])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 3


def test_train_config_from_flags(monkeypatch, bundle_dir, tmp_path):
    # train sets every field it has a flag for; ablate's layer counts come
    # from its loop, and the fields it has no flag for keep their defaults
    cfgs = []
    monkeypatch.setattr(net, "train", lambda *a: cfgs.append(a[4]) or 1 / 0)
    with pytest.raises(ZeroDivisionError):
        run(["train", str(bundle_dir), "--layers", "3", "--escalate-lr", "1e-4",
             "--unroll-steps", "2", "--out", str(tmp_path)])
    with pytest.raises(ZeroDivisionError):
        run(["ablate", str(bundle_dir), "--layers", "5", "--out", str(tmp_path)])
    assert cfgs == [net.TrainConfig(layers=3, escalated_lr=1e-4, unroll_steps=2),
                    net.TrainConfig(layers=5, embed=8, max_epochs=50, eta_prior=None)]


@pytest.mark.parametrize("corrupt, culprit, problem", [
    (lambda manifest, instance: manifest.pop("instances"), "manifest.json",
     "missing key 'instances'"),
    (lambda manifest, instance: instance.pop("P"), "instance_0000.json", "missing key 'P'"),
    (lambda manifest, instance: manifest["spec"].update(colour="red"), "manifest.json",
     "colour"),
    (lambda manifest, instance: manifest["split"].update(test=[8]), "manifest.json",
     "integers in [0, 8)"),
    (lambda manifest, instance: manifest["split"].update(test=[-1]), "manifest.json",
     "integers in [0, 8)"),
    (lambda manifest, instance: manifest["split"].update(test=[True]), "manifest.json",
     "integers in [0, 8)"),
    (lambda manifest, instance: manifest["split"].pop("test"), "manifest.json",
     "exactly the sets train, val and test"),
    (lambda manifest, instance: manifest["split"]["test"].append(
        manifest["split"]["train"][0]), "manifest.json", "disjoint"),
], ids=["no-instances", "no-P", "unknown-spec-key", "split-index-too-large",
        "split-index-negative", "split-index-bool", "split-without-test",
        "split-overlap"])
def test_malformed_bundle_fails(bundle_dir, tmp_path, capsys, corrupt, culprit, problem):
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    instance = json.loads((bundle / "instance_0000.json").read_text())
    corrupt(manifest, instance)
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    (bundle / "instance_0000.json").write_text(json.dumps(instance))
    assert run(["compare", str(bundle), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(bundle / culprit) in err and problem in err


class TestUsageErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_split_oversubscription(self, bundle_dir, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(bundle_dir, copy)
        assert run(["split", str(copy), "--sizes", "90", "5", "5"]) == 2
