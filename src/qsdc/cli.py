"""Command-line interface: `run` Monte Carlo experiments, `verify` the
decomposition identities, and print the honest correspondence `tables`."""
from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from enum import EnumMeta
from pathlib import Path

from . import harness, qsim
from .adversary import AnnouncementPolicy, StrategyKind, TrentStrategy
from .harness import ConfigError, RunConfig
from .protocol import EncodingVariant, ProtocolId

# `run` options: config-file key -> (RunConfig field, parser, help).  Each
# also makes the flag `--` + key with `_` -> `-`; flag and file values are
# the same strings, parsed once, an enum's by its members' values.  `trent`
# and `announcement_policy` together make RunConfig.trent.
_RUN_OPTIONS = {
    "protocol": ("protocol", ProtocolId, "1 or 2"),
    "variant": ("variant", EncodingVariant, "original or revised"),
    "trent": ("trent", StrategyKind, "honest or attack"),
    "announcement_policy": (
        "announcement_policy",
        AnnouncementPolicy,
        "what an attacking Trent announces: genuine or uniform (defaults per protocol)",
    ),
    "bits": ("message_length", int, "message length in bits, a positive integer"),
    "check_fraction": ("check_fraction", float, "check rounds' share of all rounds, in (0,1)"),
    "threshold": ("abort_threshold", float, "abort threshold on check error rate, in [0,1]"),
    "seed": ("seed", int, "generator seed, an integer in [0, 2**64)"),
    "repeat": ("rounds_repeat", int, "number of independent sessions, a positive integer"),
    "format": ("output_format", str, "report format: json or csv"),
    "noise": ("noise_probability", float, "classical bit-flip probability on decoded bits, in [0,1]"),
}


def load_config_file(path: str) -> dict[str, str]:
    """Plain key-value config: one `key = value` per line, # comments."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
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
    values = load_config_file(args.config) if args.config is not None else {}
    for key, flag in vars(args).items():
        if key in _RUN_OPTIONS and flag is not None:
            values[key] = flag
    fields = {}
    for key, value in values.items():
        field, parse, _ = _RUN_OPTIONS[key]
        try:
            if isinstance(parse, EnumMeta):  # a miss gets the API's text, which names the key
                fields[field] = {str(member.value): member for member in parse}.get(value, value)
                qsim.check_member(key, fields[field], parse)
            else:
                fields[field] = parse(value)
        except ValueError as exc:
            raise ConfigError(str(exc) if isinstance(parse, EnumMeta) else f"{key}: {exc}") from exc
    kind = fields.pop("trent", StrategyKind.HONEST)
    fields["trent"] = TrentStrategy(kind, fields.pop("announcement_policy", None))
    return RunConfig(**fields)


def _write_in_place(path: str, text: str) -> None:
    """Write `text` over `path` without truncating it first.  Opening an
    existing file with O_TRUNC makes ext4 (and XFS, btrfs) start writing
    its blocks back on close; cutting the file at the written length
    afterwards leaves the write delayed, as for a new file.  A failed
    write empties the file, so no old tail follows the new bytes.  Not
    atomic: after a crash the file can hold old bytes, new bytes or both."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        # a FIFO or a device such as /dev/null has no length to cut
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def cmd_run(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    report = harness.run_experiment(config)
    text = report.to_json() if config.output_format == "json" else report.to_csv()
    if args.out is not None:
        try:
            _write_in_place(args.out, text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    status = 0
    for eq_id, residual in harness.verify_identities():
        ok = residual < qsim.ATOL
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


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The `qsdc` parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qsdc",
        description="GHZ direct-communication protocol simulator with insider-attack analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded Monte Carlo experiment")
    for key, (_, _, help_text) in _RUN_OPTIONS.items():
        run.add_argument("--" + key.replace("_", "-"), help=help_text)
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
        status = args.func(args)
        sys.stdout.flush()
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a write to stdout failed: the reader closed it (`qsdc run | head`),
        # which needs no message, or the device is full.  Point stdout at the
        # null device, so the interpreter's own flush at exit fails no more
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
