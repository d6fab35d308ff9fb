"""Command-line interface.

Stages can be run end to end (``pipeline``) or one at a time.  Each staged
command runs one row of the pipeline's stage table
(:data:`multitar.pipeline.STAGES`) on the artifact the previous command
wrote, so a run can be resumed from any intermediate output.  Failures exit
nonzero with a stage-tagged message.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import pipeline as pl
from .panel import export_panel, read_panel
from .synthetic import generate_tar_panel

# Staged commands: name, help, input flag, input help.  The flag also picks
# how the input is read (see _read_input).
_STAGED = (
    ("ingest", "validate and canonicalize a panel CSV", "--input",
     "long-format panel CSV"),
    ("fracdiff", "log-transform and difference a panel", "--panel", "panel CSV"),
    ("fit", "fit the tensor autoregression", "--panel", "differenced panel CSV"),
    ("build-network", "arrange the coefficient into blocks", "--model",
     "model directory"),
    ("filter", "sparsify a network CSV", "--network", "network edge CSV"),
    ("measure", "compute layer matrices and node measures", "--network",
     "filtered network CSV"),
)


# Override flags: the config field each sets and its help.  A flag's text is
# read as that field's value in a config file.
_OVERRIDES = (
    ("--out", "out_dir", "output directory"),
    ("--alpha", "alpha", "differencing order ('search' or a number)"),
    ("--lambda", "lambda_grid", "ridge grid: one weight or a comma list"),
    ("--retain", "retain_fraction", "fraction of edges to keep per block"),
    ("--method", "filter_method", "filter method: polya or hard"),
    ("--seed", "seed", "seed override"),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a key = value config file")
    for flag, key, help_flag in _OVERRIDES:
        parser.add_argument(flag, dest=key, help=help_flag)


def _load_config(args) -> pl.PipelineConfig:
    config = (pl.PipelineConfig.from_file(args.config) if args.config
              else pl.PipelineConfig())
    updates = {key: pl._parse_config_value(key, getattr(args, key))
               for _, key, _ in _OVERRIDES if getattr(args, key) is not None}
    return dataclasses.replace(config, **updates) if updates else config


def _read_input(flag: str, path: str, config: pl.PipelineConfig):
    if flag == "--model":
        return pl.load_model_coefficient(path)
    if flag == "--network":
        return pl.import_network(path)
    return read_panel(path, on_missing=config.missing_policy)


def _cmd_stage(args) -> None:
    """Read the input named by the command's flag and run the command's row
    of the stage table, which writes its files under ``out_dir``."""
    config = _load_config(args)
    pl.run_stage(args.command, _read_input(args.flag, args.source, config),
                 config, staged=True)
    print(f"{args.command} -> {config.out_dir}")


def _cmd_pipeline(args) -> None:
    config = _load_config(args)
    panel = read_panel(args.input, on_missing=config.missing_policy)
    manifest = pl.run_pipeline(config, panel)
    print(f"alpha={manifest['fracdiff']['alpha']} "
          f"lambda={manifest['fit']['lambda']} "
          f"kept={manifest['filter']['total_kept']}/"
          f"{manifest['filter']['total_edges']} -> {config.out_dir}")


def _cmd_synth(args) -> None:
    panel, _ = generate_tar_panel(
        n_entities=args.entities, n_layers=args.layers, n_steps=args.steps,
        seed=args.seed,
    )
    export_panel(panel, args.output)
    print(f"wrote synthetic panel {panel.values.shape} -> {args.output}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multitar",
        description="Learn, filter and measure a multilayer network from "
                    "panel time series via tensor autoregression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_cmd, flag, help_input in _STAGED:
        p = sub.add_parser(name, help=help_cmd)
        p.add_argument(flag, dest="source", metavar=flag[2:].upper(),
                       required=True, help=help_input)
        _add_common(p)
        p.set_defaults(fn=_cmd_stage, flag=flag)

    p = sub.add_parser("pipeline", help="run every stage end to end")
    p.add_argument("--input", required=True, help="long-format panel CSV")
    _add_common(p)
    p.set_defaults(fn=_cmd_pipeline)

    p = sub.add_parser("synth", help="write a seeded synthetic panel CSV")
    p.add_argument("--output", required=True)
    p.add_argument("--entities", type=int, default=10)
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except Exception as exc:  # a PipelineError names its stage already
        tag = "" if isinstance(exc, pl.PipelineError) else f"[{args.command}] "
        print(f"error: {tag}{exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
