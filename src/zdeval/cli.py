"""Command-line interface.

Subcommands: run (full experiment), wd (distance analysis only), synth
(generate a synthetic dataset), inspect (dataset summary). The override
flags of run and wd store under their config field's name (`--out` under
`out`, which sets `output_dir`), so they reach the config by name. Progress
goes to stderr; machine-readable artifacts go only to the output directory
(inspect prints its JSON summary to stdout). Exit codes: 0 success, 1 config
error, 2 data/schema error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import __version__
from .config import apply_overrides, load_config
from .errors import ConfigError, DataError, SchemaError
from .flowdata import load_csv, summarize, write_csv
from .harness import emit_reports, run_experiment, run_wd_analysis, writable_dir
from .synth import SyntheticSpec, synthesize_dataset

log = logging.getLogger("zdeval")


def _comma_list(text: str) -> tuple[str, ...] | None:
    return tuple(text.split(",")) if text else None


def _add_common_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--out", help="output directory (overrides config output_dir)")
    sub.add_argument("--seed", type=int, help="override config seed")
    sub.add_argument("--models", type=_comma_list, help="comma-separated subset of forest,mlp")
    sub.add_argument("--classes", type=_comma_list, help="comma-separated subset of held-out attack classes")
    sub.add_argument("--subsample", type=int, help="seeded row cap for desk-scale runs")
    sub.add_argument("--workers", type=int, help="worker pool size (1 = in-process)")
    sub.add_argument("--keep-going", action="store_true", default=None,
                     help="collect per-scenario failures instead of aborting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zdeval", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zdeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full model x scenario experiment matrix")
    _add_common_run_flags(run_p)

    wd_p = sub.add_parser("wd", help="train/test distribution distance analysis only")
    _add_common_run_flags(wd_p)

    synth_p = sub.add_parser("synth", help="generate a synthetic flow dataset CSV")
    synth_p.add_argument("--spec", required=True, help="synthetic dataset spec JSON")
    synth_p.add_argument("--out", required=True, help="CSV file to write")
    synth_p.add_argument("--seed", type=int, help="override the spec seed")
    synth_p.add_argument("--config-out", help="also write a ready-to-run experiment config here")

    inspect_p = sub.add_parser("inspect", help="load a dataset and print its summary as JSON")
    inspect_p.add_argument("--config", required=True, help="experiment config JSON")

    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    overrides = {name: value for name, value in vars(args).items() if name not in ("command", "config")}
    cfg = apply_overrides(load_config(args.config), **overrides)
    writable_dir(cfg.output_dir)  # before the dataset is read
    if args.command == "run":
        log.info("running experiment: dataset=%s models=%s k=%d seed=%d",
                 cfg.dataset, ",".join(cfg.models), cfg.k, cfg.seed)
        report = run_experiment(cfg)
    else:
        log.info("running distance analysis: dataset=%s k=%d seed=%d", cfg.dataset, cfg.k, cfg.seed)
        report = run_wd_analysis(cfg)
    written = emit_reports(report, cfg.output_dir)
    for w in report.warnings:
        log.warning("%s", w)
    log.info("wrote %d report files to %s", len(written), cfg.output_dir)
    return 0


def _experiment_config_template(spec: SyntheticSpec, table, csv_path: str) -> dict:
    return {
        "dataset": csv_path,
        "benign_name": spec.benign_name,
        "columns": table.schema.to_json(),
        "models": ["forest", "mlp"],
        "k": 5,
        "seed": spec.seed,
        "fit_scope": "full-dataset",
        "output_dir": "out",
    }


def _cmd_synth(args: argparse.Namespace) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise ConfigError(f"spec file does not exist: {spec_path}")
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"spec file is not valid JSON: {exc}") from exc
    if args.seed is not None:
        obj["seed"] = args.seed
    try:
        spec = SyntheticSpec.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic spec: {exc}") from exc
    table = synthesize_dataset(spec)
    write_csv(table, args.out)
    log.info("wrote %d rows (%d classes) to %s", table.row_count, len(spec.attacks) + 1, args.out)
    if args.config_out:
        # dataset path relative to the config file, so the pair relocates together
        config_dir = Path(args.config_out).resolve().parent
        dataset = os.path.relpath(Path(args.out).resolve(), start=config_dir)
        cfg = _experiment_config_template(spec, table, dataset)
        with open(args.config_out, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")
        log.info("wrote experiment config template to %s", args.config_out)
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    table = load_csv(cfg.dataset, cfg.schema, cfg.benign_name, on_bad_row=cfg.on_bad_row, keep_identifiers=True)
    table.attack_names  # raises DataError for a table with no attack class
    json.dump(summarize(table), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


_COMMANDS = {"run": _cmd_experiment, "wd": _cmd_experiment, "synth": _cmd_synth, "inspect": _cmd_inspect}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="zdeval: %(levelname)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 1
    except (SchemaError, DataError) as exc:
        log.error("%s", exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("%s: %s", type(exc).__name__, exc)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
