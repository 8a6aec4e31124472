"""Command-line entry point: generate, label, split, compare, train, eval, ablate."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import datagen, net, report
from .net import TrainConfig
from .solvers import SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

OUT_DIR_ENV = "DRQP_OUT_DIR"


def _out_path(args, name: str) -> Path:
    """name in the output directory (--out, $DRQP_OUT_DIR or the working
    directory), which this creates: commands call it after every check."""
    out = Path(args.out or os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_table(args, stem: str, text: str) -> None:
    """text as stem.md under --format markdown, else as stem.csv."""
    ext = "md" if args.format == "markdown" else "csv"
    _out_path(args, f"{stem}.{ext}").write_text(text)


def _label(bundle, args):
    """label_bundle at --label-tol, with a warning for each exclusion."""
    bundle, excluded = datagen.label_bundle(bundle, tol_label=args.label_tol)
    for i, status in excluded:
        print(f"warning: instance {i} excluded from labels ({status})",
              file=sys.stderr)
    return bundle, excluded


def _labeled_split_bundle(args):
    """The labeled, split bundle that train and ablate read, and its data."""
    bundle = datagen.read_bundle(args.bundle)
    if bundle.labels is None:
        raise ValueError("bundle has no labels; run `drqp label` first")
    if bundle.split is None:
        raise ValueError("bundle has no split; run `drqp split` first")
    return bundle, report.prepare_data(bundle)


def _solver_config(args, record_history: bool = False) -> SolverConfig:
    return SolverConfig(tol_fixed_point=args.tol, max_iter=args.max_iter,
                        record_history=record_history)


def _train_config(args, layers: int, **train_only) -> TrainConfig:
    """The TrainConfig of train and ablate from their shared flags, plus the
    fields only train has flags for."""
    return TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, max_epochs=args.epochs,
        patience=args.patience, seed=args.seed, eta_prior=args.eta_prior,
        layers=layers, embed=args.embed, **train_only)


def cmd_generate(args) -> int:
    spec = datagen.GenSpec(family=args.family, count=args.count, seed=args.seed,
                           n=args.n, k=args.k)
    bundle = datagen.generate(spec)
    if args.label:
        bundle, _ = _label(bundle, args)
    if args.split:
        bundle = datagen.split_bundle(bundle, tuple(args.split), seed=args.seed)
    out = _out_path(args, ".")
    datagen.write_bundle(bundle, out)
    print(f"wrote {len(bundle)} instances to {out}")
    return EXIT_OK


def cmd_label(args) -> int:
    bundle, excluded = _label(datagen.read_bundle(args.bundle), args)
    datagen.write_bundle(bundle, args.bundle)
    print(f"labeled {len(bundle) - len(excluded)}/{len(bundle)} instances")
    return EXIT_OK


def cmd_split(args) -> int:
    bundle = datagen.read_bundle(args.bundle)
    bundle = datagen.split_bundle(bundle, tuple(args.sizes), seed=args.seed)
    datagen.write_bundle(bundle, args.bundle)
    print(f"split: {[len(v) for v in bundle.split.values()]}")
    return EXIT_OK


def cmd_compare(args) -> int:
    bundle = datagen.read_bundle(args.bundle)
    datas = report.prepare_data(bundle)
    rep = report.run_compare(datas, tol=args.tol, steps_list=args.steps,
                             max_iter=args.max_iter)
    _write_table(args, "comparison", report.comparison_table(rep, args.format))
    _write_table(args, "multistep", report.multistep_table(rep, args.format))
    print(f"iteration ratio (drgd/dr): {rep.iteration_ratio:.3f}")
    failures = [r for r in rep.rows
                if r.dr_status != "converged" or r.drgd_status != "converged"]
    if failures:
        print(f"{len(failures)} instances did not converge", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_train(args) -> int:
    bundle, datas = _labeled_split_bundle(args)
    cfg = _train_config(
        args, args.layers, unroll_steps=args.unroll_steps,
        escalated_lr=args.escalate_lr, escalation_patience=args.escalate_patience,
        escalation_min_delta=args.escalate_min_delta)
    result = net.train(datas, bundle.labels, bundle.split["train"],
                       bundle.split["val"], cfg)
    ckpt = _out_path(args, args.checkpoint or "model.json")
    net.save_checkpoint(result.params, ckpt)
    _out_path(args, "training_log.csv").write_text(report.training_log_csv(result.log))
    print(f"best val loss {result.best_val_loss:.6g} at epoch {result.best_epoch}; "
          f"checkpoint: {ckpt}")
    return EXIT_OK


def _test_indices(bundle) -> list:
    """The bundle's test split, or every instance when it has no split; an
    empty test split is a ValueError, so eval and ablate exit 2 on it."""
    if bundle.split is None:
        return list(range(len(bundle)))
    if not bundle.split["test"]:
        raise ValueError("the bundle's test split is empty; "
                         "re-split it with a TEST size of at least 1")
    return bundle.split["test"]


def cmd_eval(args) -> int:
    bundle = datagen.read_bundle(args.bundle)
    params = net.load_checkpoint(args.checkpoint)
    idx = _test_indices(bundle)
    datas = report.prepare_data(bundle, idx)
    labels = None
    if bundle.labels is not None:
        labels = [bundle.labels[i] for i in idx]
    rep = report.run_eval(datas, labels, params, _solver_config(args, args.history))
    header = ("# warm-started target is the internal DR solver; "
              "ratios are internally consistent, not comparable to external solvers\n")
    _write_table(args, "warmstart", header + report.warmstart_table(rep, args.format))
    _write_table(args, "warmstart_summary", report.warmstart_summary(rep, args.format))
    if args.history:
        _out_path(args, "residual_history.csv").write_text(report.residual_history_csv(rep))
    print(f"iteration ratio: {_ratio(rep.iteration_ratio)}  "
          f"time ratio: {_ratio(rep.time_ratio)}")
    if any(r.failed for r in rep.rows):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_ablate(args) -> int:
    bundle, datas = _labeled_split_bundle(args)
    test_idx = _test_indices(bundle)
    test_datas = [datas[i] for i in test_idx]
    test_labels = [bundle.labels[i] for i in test_idx]
    rows = []
    failed = 0
    for L in args.layers:
        result = net.train(datas, bundle.labels, bundle.split["train"],
                           bundle.split["val"], _train_config(args, L))
        rep = report.run_eval(test_datas, test_labels, result.params,
                              _solver_config(args))
        rows.append([L, result.best_val_loss, rep.iteration_ratio])
        failed += sum(r.failed for r in rep.rows)
        print(f"L={L}: val loss {result.best_val_loss:.6g}, "
              f"iteration ratio {_ratio(rep.iteration_ratio)}")
    _write_table(args, "ablation", report.table(
        ["layers", "best_val_loss", "iteration_ratio"], rows, args.format))
    if failed:
        print(f"{failed} warm-start evaluations failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _ratio(value) -> str:
    return "unknown" if value is None else f"{value:.3f}"


def _eta_prior(value: str):
    if value == "auto":
        return None
    return float(value)


def _training_flags(embed: int = TrainConfig.embed, epochs: int = TrainConfig.max_epochs,
                    eta_prior=TrainConfig.eta_prior) -> argparse.ArgumentParser:
    """A parent parser of train's and ablate's shared flags: TrainConfig's
    defaults, except where the command passes its own."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    flags.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    flags.add_argument("--epochs", type=int, default=epochs)
    flags.add_argument("--patience", type=int, default=TrainConfig.patience)
    flags.add_argument("--eta-prior", type=_eta_prior, default=eta_prior,
                       help='step prior per layer, or "auto" for a cap-based value')
    flags.add_argument("--embed", type=int, default=embed)
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drqp",
                                     description="DR splitting QP toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # one parent parser per flag group that several commands share
    bundle, seed, label_tol, solver, out = (argparse.ArgumentParser(add_help=False)
                                            for _ in range(5))
    bundle.add_argument("bundle")
    seed.add_argument("--seed", type=int, default=0)
    label_tol.add_argument("--label-tol", type=float, default=1e-9)
    solver.add_argument("--tol", type=float, default=SolverConfig.tol_fixed_point)
    solver.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
    solver.add_argument("--format", choices=["csv", "markdown"], default="csv")
    out.add_argument("--out")

    def command(name, func, help, *parents):
        cmd = sub.add_parser(name, help=help, parents=parents)
        cmd.set_defaults(func=func)
        return cmd

    gen = command("generate", cmd_generate, "generate a dataset bundle", seed, label_tol, out)
    gen.add_argument("--family", required=True, choices=datagen.FAMILIES)
    gen.add_argument("--n", type=int, help="variable count for QP families")
    gen.add_argument("--k", type=int, help="factor count for portfolio")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--label", action="store_true", help="label after generating")
    gen.add_argument("--split", type=int, nargs=3, metavar=("TRAIN", "VAL", "TEST"))

    command("label", cmd_label, "label an existing bundle in place", bundle, label_tol)

    spl = command("split", cmd_split, "assign a split to a bundle in place", bundle, seed)
    spl.add_argument("--sizes", type=int, nargs=3, required=True,
                     metavar=("TRAIN", "VAL", "TEST"))

    cmp_ = command("compare", cmd_compare, "compare DR splitting with DR-GD",
                   bundle, solver, out)
    cmp_.add_argument("--steps", type=int, nargs="+", default=[1])

    tra = command("train", cmd_train, "train the unrolled network",
                  bundle, _training_flags(), seed, out)
    tra.add_argument("--escalate-lr", type=float, default=None,
                     help="raise the learning rate to this value after "
                          "--escalate-patience epochs without improvement")
    tra.add_argument("--escalate-patience", type=int, default=TrainConfig.escalation_patience)
    tra.add_argument("--escalate-min-delta", type=float,
                     default=TrainConfig.escalation_min_delta,
                     help="relative val improvement below this counts "
                          "as a plateau epoch for escalation")
    tra.add_argument("--layers", type=int, default=TrainConfig.layers)
    tra.add_argument("--unroll-steps", type=int, default=TrainConfig.unroll_steps)
    tra.add_argument("--checkpoint", help="checkpoint filename inside --out")

    ev = command("eval", cmd_eval, "warm-start evaluation of a checkpoint",
                 bundle, solver, out)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--history", action="store_true",
                    help="emit residual-history CSV")

    abl = command("ablate", cmd_ablate, "train and evaluate per layer count",
                  bundle, _training_flags(embed=8, epochs=50, eta_prior="auto"), seed,
                  solver, out)
    abl.add_argument("--layers", type=int, nargs="+", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, net.NonFiniteActivationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
