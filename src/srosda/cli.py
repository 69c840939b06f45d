"""Command-line entry points: synth, train, eval, report.

Exit codes: 0 success, 1 runtime error, 2 usage error. Diagnostics go to
stderr.
"""

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import dataio, evaluation, trainer
from .dataio import SynthSpec
from .exceptions import FormatError, SrosdaError
from .model import load_checkpoint, save_checkpoint
from .separation import dump_pseudo_state

CHECKPOINT_FILE = "checkpoint.bin"
HISTORY_FILE = "history.csv"
PSEUDO_FILE = "pseudo.tsv"
RUN_FILE = "run.txt"


def cmd_synth(args):
    spec = dataio.read_dataclass(args.spec, SynthSpec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    source, target = dataio.synth_generate(spec)
    dataio.save_dataset(source, target, args.out)
    if not args.quiet:
        print(f"wrote synthetic dataset ({source.features.shape[0]} source, "
              f"{target.features.shape[0]} target samples) to {args.out}")
    return 0


def cmd_train(args):
    cfg = trainer.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    source = dataio.load_source(args.data)
    target = dataio.load_target(args.data, with_eval=False)
    os.makedirs(args.out, exist_ok=True)

    def progress(epoch, report):
        if not args.quiet:
            print(f"epoch {epoch}: total={report.total:.6f} "
                  f"l_c={report.l_c:.6f} l_d={report.l_d:.6f} l_a={report.l_a:.6f}")

    params, history, pseudo = trainer.train(cfg, source, target.features,
                                            on_epoch=progress)
    save_checkpoint(params, os.path.join(args.out, CHECKPOINT_FILE))
    trainer.save_history(history, os.path.join(args.out, HISTORY_FILE))
    dump_pseudo_state(pseudo, os.path.join(args.out, PSEUDO_FILE))
    dataio.write_kv(dataio.fields_to_kv(cfg) + [
        ("tau", repr(pseudo.tau)), ("params_checksum", history.params_checksum)],
        os.path.join(args.out, RUN_FILE))
    if not args.quiet:
        print(f"trained {cfg.epochs} epochs; checkpoint in {args.out}")
    return 0


def cmd_eval(args):
    params = load_checkpoint(args.checkpoint)
    # the run record beside the checkpoint: every TrainConfig field, tau and
    # params_checksum, each required
    record = os.path.join(os.path.dirname(os.path.abspath(args.checkpoint)), RUN_FILE)
    values = dict(dataio.read_kv(record))
    keys = {f.name for f in fields(trainer.TrainConfig)} | {"tau", "params_checksum"}
    if values.keys() != keys:
        raise FormatError(f"{record}: missing key(s) {sorted(keys - values.keys())}, "
                          f"unknown key(s) {sorted(values.keys() - keys)}")
    try:
        cfg = trainer.TrainConfig(**dataio.fields_from_kv(values, trainer.TrainConfig))
        tau = dataio.parse_field("tau", float, values["tau"])
    except ValueError as err:
        raise FormatError(f"{record}: {err}") from None
    if values["params_checksum"] != trainer.params_checksum(params):
        raise FormatError(f"{record}: params_checksum differs from that of "
                          f"{args.checkpoint}")
    target = dataio.load_target(args.data, with_eval=True)
    report = evaluation.compute_report(
        params, target, tau=tau, epochs=cfg.epochs, use_fusion=cfg.use_fusion,
        seed=cfg.seed if args.seed is None else args.seed)  # --seed wins
    evaluation.save_report(report, args.out)
    if not args.quiet:
        print(f"wrote report to {args.out}")
    return 0


def cmd_report(args):
    report = evaluation.load_report(args.input)
    print("open-set recognition")
    print(f"  {'OS':>10} {'OS*':>10} {'OS^':>10}")
    print(f"  {report.os:10.4f} {report.os_star:10.4f} {report.os_diamond:10.4f}")
    print("semantic recovery")
    print(f"  {'S':>10} {'U':>10} {'H':>10}")
    print(f"  {report.s:10.4f} {report.u:10.4f} {report.h:10.4f}")
    print(f"tau={report.tau!r} epochs={report.epochs} seed={report.seed}")
    if report.attr_pr:
        precs = np.mean([p for p, _ in report.attr_pr])
        recs = np.mean([r for _, r in report.attr_pr])
        print(f"attribute prediction: mean precision {precs:.4f}, "
              f"mean recall {recs:.4f} over {len(report.attr_pr)} samples")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="srosda",
        description="Open-set domain adaptation with semantic attribute recovery")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", required=True, help="synth spec file (key = value)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--config", required=True, help="train config file (key = value)")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True,
                   help=f"checkpoint; scored as the {RUN_FILE} beside it says")
    p.add_argument("--data", required=True, help="dataset directory with eval files")
    p.add_argument("--out", required=True, help="report file to write")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="pretty-print a report file")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def cli_main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else 2
    try:
        return args.func(args)
    except (SrosdaError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
