import argparse
import json
import shutil
from dataclasses import replace

import pytest

from drqp import cli, datagen, net, report
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

    def test_non_finite_label_tol_is_runtime_error(self, tmp_path, capsys):
        # labels at tol inf were written with KKT violations of 0.02-0.07
        out = tmp_path / "inf"
        rc = run(["generate", "--family", "qp_rhs", "--n", "10", "--count", "2",
                  "--label", "--label-tol", "inf", "--out", str(out)])
        assert rc == 2
        assert "tol_fixed_point must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol_is_runtime_error(self, bundle_dir, tmp_path, capsys, tol):
        # tol inf reported every row converged after 1 iteration; nan ran
        # every solve to max_iter
        out = tmp_path / "cmp"
        assert run(["compare", str(bundle_dir), "--tol", tol, "--out", str(out)]) == 2
        assert "tol_fixed_point must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

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
        field = {"--batch": "batch_size", "--epochs": "max_epochs"}[flags[0]]
        assert f"{field} must be >= 1" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("flags, problem", [
        (["--lr", "nan"], "learning_rate must be positive and finite"),
        (["--escalate-lr", "-1", "--escalate-patience", "0"],
         "escalated_lr must be positive and finite"),
    ], ids=["lr-nan", "escalate-lr-negative"])
    def test_learning_rates_positive_and_finite(self, bundle_dir, tmp_path, capsys,
                                                flags, problem):
        # a nan rate failed later on the wrong cause, a negative escalated
        # rate trained by gradient ascent and wrote its checkpoint
        out = tmp_path / "bad"
        assert run(["train", str(bundle_dir), *flags, "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("flags, problem", [
        (["--escalate-lr", "1e-4", "--escalate-patience", "-1"],
         "escalation_patience must be >= 0"),
        (["--escalate-lr", "1e-4", "--escalate-min-delta", "nan"],
         "escalation_min_delta must lie in [0, 1)"),
        (["--escalate-lr", "1e-4", "--escalate-min-delta", "1"],
         "escalation_min_delta must lie in [0, 1)"),
        (["--eta-prior", "nan"], "eta priors must be positive and finite"),
        (["--eta-prior", "inf"], "eta priors must be positive and finite"),
    ], ids=["escalate-patience-negative", "escalate-min-delta-nan",
            "escalate-min-delta-one", "eta-prior-nan", "eta-prior-inf"])
    def test_escalation_and_eta_prior_checked(self, bundle_dir, tmp_path, capsys,
                                              flags, problem):
        # the escalation settings used to train and write a checkpoint; a
        # non-finite prior failed as a non-finite activation in layer 0
        out = tmp_path / "bad"
        assert run(["train", str(bundle_dir), *flags, "--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
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


def test_table_headers(bundle_dir, tmp_path):
    # the columns are read from the row types; a renamed or reordered field
    # must not change a table silently
    out = tmp_path / "run"
    assert run(["compare", str(bundle_dir), "--out", str(out)]) == 0
    assert run(["train", str(bundle_dir), "--layers", "1", "--embed", "2",
                "--epochs", "1", "--eta-prior", "auto", "--out", str(out)]) == 0
    assert run(["eval", str(bundle_dir), "--checkpoint", str(out / "model.json"),
                "--history", "--out", str(out)]) == 0

    def header(name, line=0):
        return (out / name).read_text().splitlines()[line]
    assert header("comparison.csv") == (
        "instance,dr_objective,dr_max_eq,dr_max_ineq,dr_iterations,dr_status,"
        "drgd_objective,drgd_max_eq,drgd_max_ineq,drgd_iterations,drgd_status,ratio")
    assert header("warmstart.csv", 1) == (
        "instance,cold_iterations,warm_iterations,cold_time,warm_time,"
        "inference_time,objective,max_viol,l2_to_reference,cold_status,warm_status")
    assert header("training_log.csv") == (
        "epoch,train_loss,val_loss,best_flag,learning_rate")
    assert header("residual_history.csv") == "instance_id,start,iter,residual"


class TestAblate:
    def test_one_row_per_layer_count(self, bundle_dir, tmp_path):
        out = tmp_path / "abl"
        rc = run(["ablate", str(bundle_dir), "--layers", "1", "2",
                  "--embed", "2", "--epochs", "2", "--out", str(out)])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    def test_failed_row_exits_2(self, bundle_dir, tmp_path, monkeypatch, capsys):
        # ablate exited 0 when a warm-start row failed, where eval exits 2
        run_eval = report.run_eval

        def failing(*args):
            rep = run_eval(*args)
            rep.rows[0] = replace(rep.rows[0], warm_status="error")
            return rep

        monkeypatch.setattr(report, "run_eval", failing)
        out = tmp_path / "abl"
        rc = run(["ablate", str(bundle_dir), "--layers", "1", "--embed", "2",
                  "--epochs", "1", "--out", str(out)])
        assert rc == 2
        assert (out / "ablation.csv").exists()
        assert "1 warm-start evaluations failed" in capsys.readouterr().err


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


FMT = ["csv", "markdown"]
# per command: (flag, default, type, choices, nargs, required), and a minimal command line
FLAG_SURFACE = {
    "generate": ([("--family", None, None, datagen.FAMILIES, None, True),
                  ("--n", None, int, None, None, False),
                  ("--k", None, int, None, None, False),
                  ("--count", None, int, None, None, True),
                  ("--seed", 0, int, None, None, False),
                  ("--label", False, None, None, 0, False),
                  ("--label-tol", 1e-9, float, None, None, False),
                  ("--split", None, int, None, 3, False),
                  ("--out", None, None, None, None, False)],
                 ["--family", "qp_rhs", "--count", "1"]),
    "label": ([("bundle", None, None, None, None, True),
               ("--label-tol", 1e-9, float, None, None, False)], ["b"]),
    "split": ([("bundle", None, None, None, None, True),
               ("--sizes", None, int, None, 3, True),
               ("--seed", 0, int, None, None, False)], ["b", "--sizes", "1", "1", "1"]),
    "compare": ([("bundle", None, None, None, None, True),
                 ("--tol", 1e-6, float, None, None, False),
                 ("--max-iter", 200_000, int, None, None, False),
                 ("--steps", [1], int, None, "+", False),
                 ("--format", "csv", None, FMT, None, False),
                 ("--out", None, None, None, None, False)], ["b"]),
    "train": ([("bundle", None, None, None, None, True),
               ("--lr", 1e-5, float, None, None, False),
               ("--escalate-lr", None, float, None, None, False),
               ("--escalate-patience", 3, int, None, None, False),
               ("--escalate-min-delta", 0.0, float, None, None, False),
               ("--batch", 2, int, None, None, False),
               ("--epochs", 100, int, None, None, False),
               ("--patience", 10, int, None, None, False),
               ("--seed", 0, int, None, None, False),
               ("--eta-prior", 0.1, cli._eta_prior, None, None, False),
               ("--layers", 4, int, None, None, False),
               ("--embed", 128, int, None, None, False),
               ("--unroll-steps", 1, int, None, None, False),
               ("--checkpoint", None, None, None, None, False),
               ("--out", None, None, None, None, False)], ["b"]),
    "eval": ([("bundle", None, None, None, None, True),
              ("--checkpoint", None, None, None, None, True),
              ("--tol", 1e-6, float, None, None, False),
              ("--max-iter", 200_000, int, None, None, False),
              ("--history", False, None, None, 0, False),
              ("--format", "csv", None, FMT, None, False),
              ("--out", None, None, None, None, False)], ["b", "--checkpoint", "m.json"]),
    "ablate": ([("bundle", None, None, None, None, True),
                ("--layers", None, int, None, "+", True),
                ("--embed", 8, int, None, None, False),
                ("--lr", 1e-5, float, None, None, False),
                ("--batch", 2, int, None, None, False),
                ("--epochs", 50, int, None, None, False),
                ("--patience", 10, int, None, None, False),
                ("--seed", 0, int, None, None, False),
                ("--eta-prior", "auto", cli._eta_prior, None, None, False),
                ("--tol", 1e-6, float, None, None, False),
                ("--max-iter", 200_000, int, None, None, False),
                ("--format", "csv", None, FMT, None, False),
                ("--out", None, None, None, None, False)], ["b", "--layers", "1"]),
}


@pytest.mark.parametrize("command", FLAG_SURFACE)
def test_flag_surface(command):
    # every flag of every command, with its default, type, choices, nargs and
    # whether it is required; flags that commands share are declared once
    flags, argv = FLAG_SURFACE[command]
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}
    expected = {flag.lstrip("-").replace("-", "_"): spec for flag, *spec in flags}
    assert sorted(actions) == sorted(expected)
    for dest, (default, type_, choices, nargs, required) in expected.items():
        a = actions[dest]
        assert (a.default, a.type, a.choices, a.nargs, a.required) == (
            default, type_, choices, nargs, required), dest
    # a string default goes through its type, as a flag on the command line would
    args = vars(parser.parse_args([command] + argv))
    given = {arg.lstrip("-").replace("-", "_") for arg in argv if arg.startswith("--")}
    for dest, (default, type_, *_) in expected.items():
        if dest not in given | {"bundle"}:
            assert args[dest] == (type_(default) if type_ and isinstance(default, str)
                                  else default), dest


@pytest.mark.parametrize("corrupt, culprit, problem", [
    (lambda manifest, instance: manifest.pop("instances"), "manifest.json",
     "missing key 'instances'"),
    (lambda manifest, instance: manifest["instances"].clear(), "manifest.json",
     "at least one instance"),
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
], ids=["no-instances", "empty-instances", "no-P", "unknown-spec-key",
        "split-index-too-large", "split-index-negative", "split-index-bool",
        "split-without-test", "split-overlap"])
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


def test_label_rejects_nan_in_instance_file(bundle_dir, tmp_path, capsys):
    # the bundle used to read back with c[0] = nan and fail only after labeling
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    path = bundle / "instance_0003.json"
    doc = json.loads(path.read_text())
    doc["c"][0] = float("nan")
    path.write_text(json.dumps(doc))
    manifest = (bundle / "manifest.json").read_bytes()
    assert run(["label", str(bundle)]) == 2
    assert f"{path}: malformed instance file: non-finite number NaN" in capsys.readouterr().err
    assert (bundle / "manifest.json").read_bytes() == manifest


@pytest.mark.parametrize("holder, what", [("manifest.json", "manifest"),
                                          ("instance_0001.json", "instance file")])
def test_label_rejects_overflowing_matrix_value(bundle_dir, tmp_path, capsys, holder, what):
    # 1e999 in A_eq read back as inf; labeling then failed in the factorization
    # with "matrix has non-finite entries", naming no file
    bundle = tmp_path / "bundle"
    shutil.copytree(bundle_dir, bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    instance = json.loads((bundle / "instance_0001.json").read_text())
    a_eq = manifest["matrices"][instance["A_eq"]]
    a_eq = dict(a_eq, values=["V"] + a_eq["values"][1:])
    if holder == "manifest.json":
        manifest["matrices"][instance["A_eq"]] = a_eq
    else:
        instance["A_eq"] = a_eq  # inline, as a standalone instance file holds it
    for name, doc in [("manifest.json", manifest), ("instance_0001.json", instance)]:
        (bundle / name).write_text(json.dumps(doc).replace('"V"', "1e999"))
    before = {f.name: f.read_bytes() for f in bundle.iterdir()}
    assert run(["label", str(bundle)]) == 2
    assert capsys.readouterr().err == (f"error: {bundle / holder}: malformed {what}: "
                                       "matrix values must be finite\n")
    assert {f.name: f.read_bytes() for f in bundle.iterdir()} == before


class TestUsageErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 1

    def test_split_oversubscription(self, bundle_dir, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(bundle_dir, copy)
        assert run(["split", str(copy), "--sizes", "90", "5", "5"]) == 2

    def test_split_negative_size(self, bundle_dir, tmp_path, capsys):
        # -1 took every instance but one into train and failed as "not disjoint"
        copy = tmp_path / "copy"
        shutil.copytree(bundle_dir, copy)
        manifest = (copy / "manifest.json").read_bytes()
        assert run(["split", str(copy), "--sizes", "-1", "2", "3"]) == 2
        assert "split sizes must be nonnegative" in capsys.readouterr().err
        assert (copy / "manifest.json").read_bytes() == manifest


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("missing, step, generate_flags", [
    ("labels", "label", ["--split", "1", "1", "1"]), ("split", "split", ["--label"])])
def test_unlabeled_or_unsplit_bundle_fails(tmp_path, capsys, command, missing, step,
                                           generate_flags):
    # train and ablate share one preflight, which names what the bundle lacks
    bundle = tmp_path / "bundle"
    assert run(["generate", "--family", "qp_rhs", "--n", "4", "--count", "3",
                "--out", str(bundle)] + generate_flags) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, str(bundle), "--layers", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: bundle has no {missing}; run `drqp {step}` first\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "ablate"])
def test_empty_test_split_fails(bundle_dir, tmp_path, capsys, command):
    # an empty test split used to exit 0 with "unknown" ratios and tables of
    # headers only
    copy = tmp_path / "copy"
    shutil.copytree(bundle_dir, copy)
    assert run(["split", str(copy), "--sizes", "5", "3", "0"]) == 0
    ckpt = tmp_path / "model.json"
    net.save_checkpoint(net.init_params(1, 2, seed=0), ckpt)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"eval": ["eval", str(copy), "--checkpoint", str(ckpt)],
            "ablate": ["ablate", str(copy), "--layers", "1", "--embed", "2",
                       "--epochs", "1"]}[command]
    assert run(argv + ["--out", str(out)]) == 2
    assert "test split is empty" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["eval", "train"])
def test_labels_of_wrong_length_fail(bundle_dir, tmp_path, capsys, command):
    # a test label cut to one entry used to be broadcast: eval exited 0 with
    # an l2_to_reference measured against a label of one number
    copy = tmp_path / "copy"
    shutil.copytree(bundle_dir, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    path = copy / manifest["instances"][manifest["split"]["test"][0]]["file"]
    doc = json.loads(path.read_text())
    doc["labels"] = {"x": doc["labels"]["x"][:1], "y": doc["labels"]["y"][:1]}
    path.write_text(json.dumps(doc))
    ckpt = tmp_path / "model.json"
    net.save_checkpoint(net.init_params(1, 2, seed=0), ckpt)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = {"eval": ["eval", str(copy), "--checkpoint", str(ckpt)],
            "train": ["train", str(copy), "--layers", "1", "--embed", "2",
                      "--epochs", "1"]}[command]
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "labels must hold x of length 10 and y of length 10" in err
    assert not out.exists() or not any(out.iterdir())
