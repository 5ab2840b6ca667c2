"""Command-line entry point.

Subcommands:

  synth      generate a scene corpus and its manifest
  train      train from a manifest, writing a checkpoint and metrics log
  eval       restore a checkpoint and report pooled metrics on a split
  gradcheck  run the finite-difference verification suite
  ablate     train the classifier x affine lattice and compare mIoU

Exit codes: 0 success, 1 usage, validation or config error, 2 runtime/numeric
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .ablate import parse_variants, run_ablation
from .config import ExtraConfig, config_from, parse_config_file
from .errors import ConfigError, NumericError, SemaffineError, ascii_float, ascii_int
from .harness import TrainConfig
from .model import AFFINE_MODES, CLASSIFIERS, ModelConfig
from .scenes import SceneSpec, generate_scene, write_manifest, write_scene
from .train import eval_run, train_run
from .verify import MODULES, run_suite


def _cmd_synth(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    values = parse_config_file(args.spec) if args.spec else {}
    spec = config_from(values, SceneSpec)
    extra = config_from(values, ExtraConfig)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_val = int(round(args.count * extra.val_fraction))
    entries = []
    for i in range(args.count):
        cloud = generate_scene(spec, args.seed + i)
        name = f"scene_{args.seed + i:05d}.txt"
        write_scene(cloud, out_dir / name)
        entries.append((name, "val" if i >= args.count - n_val else "train"))
    write_manifest(entries, out_dir / "manifest.txt")
    print(f"wrote {args.count} scenes ({args.count - n_val} train / {n_val} val) to {out_dir}")
    return 0


def _cmd_train(args) -> int:
    values = parse_config_file(args.config) if args.config else {}
    model_cfg = config_from(values, ModelConfig)
    train_cfg = config_from(values, TrainConfig)
    log_path = args.log if args.log else str(args.out) + ".log"
    result = train_run(args.data, model_cfg, train_cfg, args.out, log_path=log_path)
    for line in result.log_lines:
        print(line)
    print(f"checkpoint: {args.out}")
    print(f"metrics log: {log_path}")
    if result.final_val is not None:
        print(f"final val mIoU: {result.final_val.miou:.4f}")
    return 0


def _cmd_eval(args) -> int:
    metrics = eval_run(args.ckpt, args.data, split=args.split)
    print(f"accuracy: {metrics.accuracy:.4f}")
    print(f"mIoU: {metrics.miou:.4f}")
    for k, iou in enumerate(metrics.iou):
        shown = "absent" if np.isnan(iou) else f"{iou:.4f}"
        print(f"  class {k}: IoU {shown}")
    return 0


def _cmd_gradcheck(args) -> int:
    ok = run_suite(module=args.module, tol=args.tol)
    if not ok:
        print("gradient suite FAILED")
        return 2
    print("gradient suite passed")
    return 0


def _cmd_ablate(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    values = parse_config_file(args.config) if args.config else {}
    model_cfg = config_from(values, ModelConfig)
    train_cfg = config_from(values, TrainConfig)
    spec = config_from(values, SceneSpec)
    extra = config_from(values, ExtraConfig)
    variants = parse_variants(args.variants.split(","))
    result = run_ablation(
        model_cfg, train_cfg, spec,
        n_train=extra.ablate_train_scenes, n_val=extra.ablate_val_scenes,
        variants=variants, seeds=args.seeds, progress=print,
    )
    for line in result.summary_lines():
        print(line)
    mask_sa, mask_bn = ("mask", "sa"), ("mask", "bn")
    if mask_sa in result.miou and mask_bn in result.miou:
        wins, median = result.paired_comparison(mask_sa, mask_bn)
        print(f"mask/sa vs mask/bn: {wins}/{args.seeds} seeds improved, median delta {median:+.4f}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other invalid input; 2 means a runtime or numeric failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(convert, kind: str):
    """``convert`` as an argparse type whose ValueError is the usage error
    "invalid <kind> value"; ``int()`` and ``float()`` would accept ``_`` and
    Unicode digits."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}") from None
    return parse


_INT = _number(lambda text: ascii_int(text, signed=True), "int")  # the commands report negative values
_FLOAT = _number(ascii_float, "float")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semaffine", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene corpus")
    p.add_argument("--spec", help="scene spec config file (key = value)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=_INT, required=True, help="number of scenes")
    p.add_argument("--seed", type=_INT, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a model from a corpus manifest")
    p.add_argument("--config", help="config file (key = value)")
    p.add_argument("--data", required=True, help="corpus manifest path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--log", help="metrics log path (default: <out>.log)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True, help="corpus manifest path")
    p.add_argument("--split", default="val", choices=["train", "val", "all"])
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="run the gradient verification suite")
    p.add_argument("--module", help=f"restrict to one module ({', '.join(MODULES)})")
    p.add_argument("--tol", type=_FLOAT, help="override the per-check tolerance")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="run the ablation lattice")
    p.add_argument("--config", help="config file (key = value)")
    p.add_argument("--variants", default=",".join(CLASSIFIERS + AFFINE_MODES),
                   help=f"comma-separated axis values: {','.join(CLASSIFIERS)} and {','.join(AFFINE_MODES)}")
    p.add_argument("--seeds", type=_INT, default=5)
    p.set_defaults(func=_cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow shows as a non-finite loss or logit, which the explicit
        # checks report as a numeric failure; numpy's warnings would only
        # print source lines ahead of that message
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 2
    except SemaffineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
