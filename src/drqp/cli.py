"""Command-line entry point: generate, label, split, compare, train, eval, ablate."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import datagen, net, report
from .solvers import SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

OUT_DIR_ENV = "DRQP_OUT_DIR"


def _out_dir(args) -> Path:
    base = args.out or os.environ.get(OUT_DIR_ENV, ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _solver_config(args, record_history: bool = False) -> SolverConfig:
    return SolverConfig(tol_fixed_point=args.tol, max_iter=args.max_iter,
                        record_history=record_history)


def _train_config(args, layers: int, **train_only) -> net.TrainConfig:
    """The TrainConfig of train and ablate from their shared flags, plus the
    fields only train has flags for."""
    return net.TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, max_epochs=args.epochs,
        patience=args.patience, seed=args.seed, eta_prior=args.eta_prior,
        layers=layers, embed=args.embed, **train_only)


def cmd_generate(args) -> int:
    spec = datagen.GenSpec(family=args.family, count=args.count, seed=args.seed,
                           n=args.n, k=args.k)
    bundle = datagen.generate(spec)
    if args.label:
        bundle, excluded = datagen.label_bundle(bundle, tol_label=args.label_tol)
        for i, status in excluded:
            print(f"warning: instance {i} excluded from labels ({status})",
                  file=sys.stderr)
    if args.split:
        bundle = datagen.split_bundle(bundle, tuple(args.split), seed=args.seed)
    out = _out_dir(args)
    datagen.write_bundle(bundle, out)
    print(f"wrote {len(bundle)} instances to {out}")
    return EXIT_OK


def cmd_label(args) -> int:
    bundle = datagen.read_bundle(args.bundle)
    bundle, excluded = datagen.label_bundle(bundle, tol_label=args.label_tol)
    for i, status in excluded:
        print(f"warning: instance {i} excluded from labels ({status})",
              file=sys.stderr)
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
    out = _out_dir(args)
    ext = "md" if args.format == "markdown" else "csv"
    (out / f"comparison.{ext}").write_text(report.comparison_table(rep, args.format))
    (out / f"multistep.{ext}").write_text(report.multistep_table(rep, args.format))
    print(f"iteration ratio (drgd/dr): {rep.iteration_ratio:.3f}")
    failures = [r for r in rep.rows
                if r.dr_status != "converged" or r.drgd_status != "converged"]
    if failures:
        print(f"{len(failures)} instances did not converge", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_train(args) -> int:
    bundle = datagen.read_bundle(args.bundle)
    if bundle.labels is None:
        print("error: bundle has no labels; run `drqp label` first", file=sys.stderr)
        return EXIT_RUNTIME
    if bundle.split is None:
        print("error: bundle has no split; run `drqp split` first", file=sys.stderr)
        return EXIT_RUNTIME
    datas = report.prepare_data(bundle)
    cfg = _train_config(
        args, args.layers, unroll_steps=args.unroll_steps,
        escalated_lr=args.escalate_lr, escalation_patience=args.escalate_patience,
        escalation_min_delta=args.escalate_min_delta)
    result = net.train(datas, bundle.labels, bundle.split["train"],
                       bundle.split["val"], cfg)
    out = _out_dir(args)
    ckpt = out / (args.checkpoint or "model.json")
    net.save_checkpoint(result.params, ckpt)
    net.write_training_log(out / "training_log.csv", result.log)
    print(f"best val loss {result.best_val_loss:.6g} at epoch {result.best_epoch}; "
          f"checkpoint: {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    bundle = datagen.read_bundle(args.bundle)
    params = net.load_checkpoint(args.checkpoint)
    idx = bundle.split["test"] if bundle.split else list(range(len(bundle)))
    datas = report.prepare_data(bundle, idx)
    labels = None
    if bundle.labels is not None:
        labels = [bundle.labels[i] for i in idx]
    rep = report.run_eval(datas, labels, params, _solver_config(args, args.history))
    out = _out_dir(args)
    ext = "md" if args.format == "markdown" else "csv"
    header = ("# warm-started target is the internal DR solver; "
              "ratios are internally consistent, not comparable to external solvers\n")
    (out / f"warmstart.{ext}").write_text(header + report.warmstart_table(rep, args.format))
    (out / f"warmstart_summary.{ext}").write_text(report.warmstart_summary(rep, args.format))
    if args.history:
        (out / "residual_history.csv").write_text(report.residual_history_csv(rep))
    print(f"iteration ratio: {_ratio(rep.iteration_ratio)}  "
          f"time ratio: {_ratio(rep.time_ratio)}")
    if any(r.failed for r in rep.rows):
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_ablate(args) -> int:
    bundle = datagen.read_bundle(args.bundle)
    if bundle.labels is None or bundle.split is None:
        print("error: ablation needs a labeled, split bundle", file=sys.stderr)
        return EXIT_RUNTIME
    datas = report.prepare_data(bundle)
    test_idx = bundle.split["test"]
    test_datas = [datas[i] for i in test_idx]
    test_labels = [bundle.labels[i] for i in test_idx]
    rows = []
    for L in args.layers:
        result = net.train(datas, bundle.labels, bundle.split["train"],
                           bundle.split["val"], _train_config(args, L))
        rep = report.run_eval(test_datas, test_labels, result.params,
                              _solver_config(args))
        rows.append([L, result.best_val_loss, rep.iteration_ratio])
        print(f"L={L}: val loss {result.best_val_loss:.6g}, "
              f"iteration ratio {_ratio(rep.iteration_ratio)}")
    out = _out_dir(args)
    text = report.table(["layers", "best_val_loss", "iteration_ratio"], rows,
                        args.format)
    ext = "md" if args.format == "markdown" else "csv"
    (out / f"ablation.{ext}").write_text(text)
    return EXIT_OK


def _ratio(value) -> str:
    return "unknown" if value is None else f"{value:.3f}"


def _eta_prior(value: str):
    if value == "auto":
        return None
    return float(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drqp",
                                     description="DR splitting QP toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset bundle")
    gen.add_argument("--family", required=True, choices=datagen.FAMILIES)
    gen.add_argument("--n", type=int, help="variable count for QP families")
    gen.add_argument("--k", type=int, help="factor count for portfolio")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--label", action="store_true", help="label after generating")
    gen.add_argument("--label-tol", type=float, default=1e-9)
    gen.add_argument("--split", type=int, nargs=3, metavar=("TRAIN", "VAL", "TEST"))
    gen.add_argument("--out")
    gen.set_defaults(func=cmd_generate)

    lab = sub.add_parser("label", help="label an existing bundle in place")
    lab.add_argument("bundle")
    lab.add_argument("--label-tol", type=float, default=1e-9)
    lab.set_defaults(func=cmd_label)

    spl = sub.add_parser("split", help="assign a split to a bundle in place")
    spl.add_argument("bundle")
    spl.add_argument("--sizes", type=int, nargs=3, required=True,
                     metavar=("TRAIN", "VAL", "TEST"))
    spl.add_argument("--seed", type=int, default=0)
    spl.set_defaults(func=cmd_split)

    cmp_ = sub.add_parser("compare", help="compare DR splitting with DR-GD")
    cmp_.add_argument("bundle")
    cmp_.add_argument("--tol", type=float, default=1e-6)
    cmp_.add_argument("--max-iter", type=int, default=200_000)
    cmp_.add_argument("--steps", type=int, nargs="+", default=[1])
    cmp_.add_argument("--format", choices=["csv", "markdown"], default="csv")
    cmp_.add_argument("--out")
    cmp_.set_defaults(func=cmd_compare)

    tra = sub.add_parser("train", help="train the unrolled network")
    tra.add_argument("bundle")
    tra.add_argument("--lr", type=float, default=1e-5)
    tra.add_argument("--escalate-lr", type=float, default=None,
                     help="raise the learning rate to this value after "
                          "--escalate-patience epochs without improvement")
    tra.add_argument("--escalate-patience", type=int, default=3)
    tra.add_argument("--escalate-min-delta", type=float, default=0.0,
                     help="relative val improvement below this counts "
                          "as a plateau epoch for escalation")
    tra.add_argument("--batch", type=int, default=2)
    tra.add_argument("--epochs", type=int, default=100)
    tra.add_argument("--patience", type=int, default=10)
    tra.add_argument("--seed", type=int, default=0)
    tra.add_argument("--eta-prior", type=_eta_prior, default=0.1,
                     help='step prior per layer, or "auto" for a cap-based value')
    tra.add_argument("--layers", type=int, default=4)
    tra.add_argument("--embed", type=int, default=128)
    tra.add_argument("--unroll-steps", type=int, default=1)
    tra.add_argument("--checkpoint", help="checkpoint filename inside --out")
    tra.add_argument("--out")
    tra.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="warm-start evaluation of a checkpoint")
    ev.add_argument("bundle")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--tol", type=float, default=1e-6)
    ev.add_argument("--max-iter", type=int, default=200_000)
    ev.add_argument("--history", action="store_true",
                    help="emit residual-history CSV")
    ev.add_argument("--format", choices=["csv", "markdown"], default="csv")
    ev.add_argument("--out")
    ev.set_defaults(func=cmd_eval)

    abl = sub.add_parser("ablate", help="train and evaluate per layer count")
    abl.add_argument("bundle")
    abl.add_argument("--layers", type=int, nargs="+", required=True)
    abl.add_argument("--embed", type=int, default=8)
    abl.add_argument("--lr", type=float, default=1e-5)
    abl.add_argument("--batch", type=int, default=2)
    abl.add_argument("--epochs", type=int, default=50)
    abl.add_argument("--patience", type=int, default=10)
    abl.add_argument("--seed", type=int, default=0)
    abl.add_argument("--eta-prior", type=_eta_prior, default="auto")
    abl.add_argument("--tol", type=float, default=1e-6)
    abl.add_argument("--max-iter", type=int, default=200_000)
    abl.add_argument("--format", choices=["csv", "markdown"], default="csv")
    abl.add_argument("--out")
    abl.set_defaults(func=cmd_ablate)

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
