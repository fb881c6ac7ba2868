"""Command-line interface: `run` Monte Carlo experiments, `verify` the
decomposition identities, and print the honest correspondence `tables`."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .adversary import AnnouncementPolicy, TrentStrategy
from .harness import ConfigError, RunConfig
from .protocol import EncodingVariant, ProtocolId
from .qsim import ATOL

# `run` options: config-file key and flag dest -> (RunConfig field, parser).
# `trent` and `announcement_policy` together make RunConfig.trent.
_RUN_OPTIONS = {
    "protocol": ("protocol", lambda value: ProtocolId(int(value))),
    "variant": ("variant", EncodingVariant),
    "trent": ("trent", str),
    "announcement_policy": ("announcement_policy", AnnouncementPolicy),
    "bits": ("message_length", int),
    "check_fraction": ("check_fraction", float),
    "threshold": ("abort_threshold", float),
    "seed": ("seed", int),
    "repeat": ("rounds_repeat", int),
    "format": ("output_format", str),
    "noise": ("noise_probability", float),
}


def load_config_file(path: str) -> dict[str, str]:
    """Plain key-value config: one `key = value` per line, # comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _RUN_OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Flags override the config file; an option set by neither keeps
    RunConfig's default."""
    values = load_config_file(args.config) if args.config else {}
    for key, flag in vars(args).items():
        if key in _RUN_OPTIONS and flag is not None:
            values[key] = str(flag)
    fields = {}
    for key, value in values.items():
        field, parse = _RUN_OPTIONS[key]
        try:
            fields[field] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    policy = fields.pop("announcement_policy", None)
    trent_kind = fields.pop("trent", "honest")
    if trent_kind == "attack":
        fields["trent"] = TrentStrategy.attack(policy)
    elif trent_kind != "honest":
        raise ConfigError(f"trent must be 'honest' or 'attack', got {trent_kind!r}")
    return RunConfig(**fields)


def cmd_run(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    report = harness.run_experiment(config)
    text = report.to_json() if config.output_format == "json" else report.to_csv()
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    status = 0
    for eq_id, residual in harness.verify_identities():
        ok = residual < ATOL
        print(f"{eq_id:<6} residual={residual:.3e}  {'ok' if ok else 'FAIL'}")
        if not ok:
            status = 1
    return status


def cmd_tables(args: argparse.Namespace) -> int:
    try:
        print(harness.render_tables())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsdc",
        description="GHZ direct-communication protocol simulator with insider-attack analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded Monte Carlo experiment")
    run.add_argument("--protocol", type=int, choices=(1, 2))
    run.add_argument("--variant", choices=("original", "revised"))
    run.add_argument("--trent", choices=("honest", "attack"))
    run.add_argument(
        "--announcement-policy",
        choices=("genuine", "uniform"),
        help="what an attacking Trent announces (defaults per protocol)",
    )
    run.add_argument("--bits", type=int, help="message length in bits")
    run.add_argument("--check-fraction", type=float)
    run.add_argument("--threshold", type=float, help="abort threshold on check error rate")
    run.add_argument("--seed", type=int)
    run.add_argument("--repeat", type=int, help="number of independent sessions")
    run.add_argument("--format", choices=("json", "csv"))
    run.add_argument("--noise", type=float, help="classical bit-flip probability on decoded bits")
    run.add_argument("--config", help="key=value config file; flags override it")
    run.add_argument("--out", help="write the report here instead of stdout")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="check all decomposition identities")
    verify.set_defaults(func=cmd_verify)

    tables = sub.add_parser("tables", help="print honest correspondence tables")
    tables.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
