"""Experiment runner: validate a config, execute a named suite, emit
artifacts, and exit 0 on pass, 1 on verdict failure, 2 on usage errors."""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .experiments import REGISTRY, ConfigError, parse_config, run_experiment


def bundled_config_text(name: str) -> str:
    """Raw JSON of a bundled per-experiment config."""
    ref = resources.files("levynoise").joinpath(f"configs/{name}.json")
    return ref.read_text()


def load_config_file(path: str) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config: the top level must be a JSON object, "
                          f"got {type(raw).__name__}")
    return raw


def _apply_overrides(raw: dict, args) -> dict:
    raw = dict(raw)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.replicates is not None:
        raw["replicates"] = args.replicates
    if args.output_dir is not None:
        raw["output_dir"] = args.output_dir
    return raw


def write_artifacts(result, out_dir: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = json.dumps(result.summary(), sort_keys=True, indent=2) + "\n"
    (out / "summary.json").write_text(summary)
    for fname, text in result.tables.items():
        (out / fname).write_text(text)
    return out


def cmd_run(args) -> int:
    try:
        cfg = parse_config(_apply_overrides(load_config_file(args.config), args))
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(cfg)
    out_dir = cfg.output_dir or f"out-{cfg.experiment}"
    out = write_artifacts(result, out_dir)
    for v in result.verdicts:
        status = "PASS" if v.passed else "FAIL"
        print(f"[{status}] {v.name}: estimate={v.estimate} target={v.target} z={v.z:.3g}")
    print(f"experiment {cfg.experiment}: {'PASS' if result.passed else 'FAIL'} "
          f"({len(result.verdicts)} verdicts) -> {out}")
    return 0 if result.passed else 1


def cmd_validate(args) -> int:
    try:
        cfg = parse_config(load_config_file(args.config))
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print("config ok")
    for key in sorted(cfg.params):
        print(f"{key} = {cfg.params[key]!r}")
    return 0


def cmd_list(_args) -> int:
    for name in sorted(REGISTRY):
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="levynoise",
        description="Simulate space-time jump noise and verify its calculus.")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a config file")
    run.add_argument("config")
    run.add_argument("--seed", type=int)
    run.add_argument("--replicates", type=int)
    run.add_argument("--output-dir")
    run.set_defaults(fn=cmd_run)

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("config")
    val.set_defaults(fn=cmd_validate)

    ls = sub.add_parser("list-experiments", help="print available experiment names")
    ls.set_defaults(fn=cmd_list)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
