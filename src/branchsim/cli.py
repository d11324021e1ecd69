"""Config-driven experiment runner with JSON and text reports.

Configs are JSON files (see README for the schema).  Exit codes: 0 all
checks passed, 1 at least one check failed, 2 usage or config error,
3 capacity exceeded, 4 internal error (a bug; the traceback goes to
standard error).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .errors import CapacityError, ConfigError
from .experiments import (
    APPENDIX_CHECKS,
    CHAIN_CHECKS,
    MAX_TOLERANCE,
    MIN_TOLERANCE,
    ExperimentSpec,
    compile_chain,
    is_normalized,
    plain_rotation_run,
    run_appendix_rotation,
    run_measurement_chain,
)
from .state import TOLERANCE

SCHEMA_VERSION = 2

# The most angles one sweep may hold: a report of about 157 MB at 2.4 KB
# per angle.  Checked before any list of angles is built.
MAX_THETAS = 2**16

EXPERIMENTS = {
    "stern_gerlach": CHAIN_CHECKS,
    "generalized": CHAIN_CHECKS,
    "appendix_rotation": APPENDIX_CHECKS,
}

_CONFIG_KEYS = {
    "experiment",
    "n_versions",
    "coefficients",
    "observers",
    "photon_model",
    "thetas",
    "seed",
    "tolerance",
    "checks",
    "output",
}


@dataclass
class ConfigFile:
    """Validated experiment configuration."""

    experiment: str
    n_versions: int = 2
    coefficients: list[complex] | None = None
    random_draws: int | None = None
    observers: int = 1
    photon_model: bool = False
    thetas: list[float] = field(default_factory=list)
    seed: int | None = None
    tolerance: float = TOLERANCE
    checks: list[str] | None = None
    output_path: str | None = None
    output_format: str = "json"


def parse_config(path: str) -> ConfigFile:
    """Load and validate a JSON config; errors name the offending key."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path!r} is not valid JSON (line {exc.lineno}): {exc.msg}"
        ) from exc
    except ValueError as exc:
        # Python's limit on the digits of an integer literal (3.11 and later).
        raise ConfigError(f"config {path!r} holds a number too long to read: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path!r} nests too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path!r} must be a JSON object")

    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: must be one of {sorted(EXPERIMENTS)}, got {experiment!r}"
        )

    config = ConfigFile(experiment=experiment)
    config.n_versions = _expect_int(raw, "n_versions", default=2, minimum=2)
    config.observers = _expect_int(raw, "observers", default=1, minimum=1)
    config.photon_model = _expect_bool(raw, "photon_model", default=False)
    config.tolerance = _check_tolerance(_expect_float(raw, "tolerance", default=TOLERANCE))
    if "seed" in raw:
        config.seed = _expect_int(raw, "seed", default=None, minimum=0)

    _parse_coefficients(raw, config)
    _parse_thetas(raw, config)
    _parse_checks(raw, config)
    _parse_output(raw, config)
    _cross_validate(config)
    return config


def _expect_int(raw, key, default, minimum=None):
    if key not in raw:
        return default
    value = raw[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
    return value


def _expect_bool(raw, key, default):
    if key not in raw:
        return default
    value = raw[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true or false, got {value!r}")
    return value


def _expect_float(raw, key, default):
    if key not in raw:
        return default
    value = raw[key]
    if not _is_finite_number(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def _is_finite_number(value) -> bool:
    """JSON numbers that fit a float; Python's json also reads NaN and
    Infinity, and integers of any size."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_tolerance(value: float) -> float:
    # Written so that NaN fails the comparison too.
    if not MIN_TOLERANCE <= value <= MAX_TOLERANCE:
        raise ConfigError(
            f"tolerance: must lie in [{MIN_TOLERANCE}, {MAX_TOLERANCE}], got {value!r}"
        )
    return value


def _parse_coefficients(raw: dict, config: ConfigFile) -> None:
    if "coefficients" not in raw:
        raise ConfigError("coefficients: required (list of [re, im] or {\"random\": count})")
    value = raw["coefficients"]
    if isinstance(value, dict):
        if set(value) != {"random"}:
            raise ConfigError(f"coefficients: object form takes only 'random', got {sorted(value)}")
        draws = value["random"]
        if not isinstance(draws, int) or isinstance(draws, bool) or draws < 1:
            raise ConfigError(f"coefficients.random: expected a positive count, got {draws!r}")
        config.random_draws = draws
        return
    if not isinstance(value, list):
        raise ConfigError("coefficients: expected a list of [re, im] pairs or {\"random\": count}")
    coefficients = []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2 or not all(map(_is_finite_number, pair)):
            raise ConfigError(
                f"coefficients[{i}]: expected an [re, im] pair of finite numbers, got {pair!r}"
            )
        coefficients.append(complex(pair[0], pair[1]))
    if len(coefficients) != config.n_versions:
        raise ConfigError(
            f"coefficients: {len(coefficients)} entries for n_versions={config.n_versions}"
        )
    total = sum(abs(c) ** 2 for c in coefficients)
    if not is_normalized(total):
        raise ConfigError(
            f"coefficients: squared moduli sum to {total!r}, expected 1 "
            f"within {TOLERANCE}"
        )
    config.coefficients = coefficients


def _parse_thetas(raw: dict, config: ConfigFile) -> None:
    if "thetas" not in raw:
        return
    value = raw["thetas"]
    if isinstance(value, dict):
        extra = set(value) - {"count", "start", "end"}
        if extra:
            raise ConfigError(f"thetas: unknown sweep keys {sorted(extra)}")
        count = value.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ConfigError(f"thetas.count: expected a positive count, got {count!r}")
        if count > MAX_THETAS:
            raise ConfigError(f"thetas.count: at most {MAX_THETAS} angles, got {count}")
        start = _expect_float(value, "start", default=0.0)
        end = _expect_float(value, "end", default=2 * np.pi)
        # Uniform grid over [start, end); the endpoint is excluded so a full
        # turn does not duplicate theta = 0.
        thetas = [start + (end - start) * k / count for k in range(count)]
        if not all(map(math.isfinite, thetas)):
            raise ConfigError(f"thetas: the sweep from {start!r} to {end!r} overflows")
        config.thetas = thetas
        return
    if not isinstance(value, list) or not all(map(_is_finite_number, value)):
        raise ConfigError("thetas: expected a list of finite angles or {count, start, end}")
    if len(value) > MAX_THETAS:
        raise ConfigError(f"thetas: at most {MAX_THETAS} angles, got {len(value)}")
    config.thetas = [float(x) for x in value]


def _parse_checks(raw: dict, config: ConfigFile) -> None:
    if "checks" not in raw:
        return
    value = raw["checks"]
    if not isinstance(value, list) or not value or not all(isinstance(x, str) for x in value):
        raise ConfigError("checks: expected a non-empty list of check names")
    config.checks = list(value)


def _parse_output(raw: dict, config: ConfigFile) -> None:
    if "output" not in raw:
        return
    value = raw["output"]
    if not isinstance(value, dict) or set(value) - {"path", "format"}:
        raise ConfigError("output: expected an object with keys 'path' and/or 'format'")
    if "path" in value:
        if not isinstance(value["path"], str):
            raise ConfigError(f"output.path: expected a string, got {value['path']!r}")
        config.output_path = value["path"]
    if "format" in value:
        if value["format"] not in ("json", "text"):
            raise ConfigError(f"output.format: expected 'json' or 'text', got {value['format']!r}")
        config.output_format = value["format"]


def _cross_validate(config: ConfigFile) -> None:
    if config.experiment in ("stern_gerlach", "appendix_rotation") and config.n_versions != 2:
        raise ConfigError(f"n_versions: {config.experiment} requires exactly 2 versions")
    if config.random_draws is not None and config.seed is None:
        raise ConfigError("seed: required when coefficients are random")
    if config.experiment == "appendix_rotation" and not config.thetas:
        raise ConfigError("thetas: appendix_rotation needs at least one angle")
    if config.experiment != "appendix_rotation" and config.thetas:
        raise ConfigError("thetas: only apply to appendix_rotation")
    if config.checks is not None:
        allowed = set(EXPERIMENTS[config.experiment])
        unknown = set(config.checks) - allowed
        if unknown:
            raise ConfigError(
                f"checks: unknown names {sorted(unknown)}; "
                f"available for {config.experiment}: {list(EXPERIMENTS[config.experiment])}"
            )


def _coefficient_draws(config: ConfigFile) -> list[list[complex]]:
    if config.coefficients is not None:
        return [config.coefficients]
    rng = np.random.default_rng(config.seed)
    draws = []
    for _ in range(config.random_draws):
        vector = rng.standard_normal(config.n_versions) + 1j * rng.standard_normal(
            config.n_versions
        )
        vector /= np.linalg.norm(vector)
        draws.append([complex(c) for c in vector])
    return draws


def run_and_report(config: ConfigFile, negative_control: bool = False) -> tuple[int, dict]:
    """Execute every run the config asks for and assemble the report.

    Every draw and angle shares the one memoized compiled chain; a rotation
    sweep certifies each draw's unrotated run once and evaluates all its
    angles in one call.  The chain is compiled first, so a chain over
    ``MAX_REGISTERS`` raises ``CapacityError`` before any coefficients are
    drawn.
    """
    started = time.perf_counter()
    compile_chain(config.n_versions, config.observers, config.photon_model, negative_control)
    try:
        specs = [
            ExperimentSpec(
                n_versions=config.n_versions,
                coefficients=tuple(coefficients),
                observers=config.observers,
                photon_model=config.photon_model,
                tolerance=config.tolerance,
                negative_control=negative_control,
            )
            for coefficients in _coefficient_draws(config)
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    runs = []
    for draw_index, spec in enumerate(specs):
        if config.experiment == "appendix_rotation":
            plain = plain_rotation_run(spec, config.checks)
            runs += [(draw_index, r) for r in run_appendix_rotation(plain, config.thetas)]
        else:
            runs.append((draw_index, run_measurement_chain(spec, config.checks)))

    checks_total = sum(len(r.checks) for _, r in runs)
    checks_failed = sum(1 for _, r in runs for c in r.checks if not c.passed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "spec": {
            "experiment": config.experiment,
            "n_versions": config.n_versions,
            "observers": config.observers,
            "photon_model": config.photon_model,
            "coefficients": (
                {"random": config.random_draws}
                if config.random_draws is not None
                else [[c.real, c.imag] for c in config.coefficients]
            ),
            "thetas": config.thetas,
            "seed": config.seed,
            "tolerance": config.tolerance,
            "checks": config.checks,
            "negative_control": negative_control,
        },
        "runs": [
            {"run_index": i, "draw_index": draw, **r.to_dict()}
            for i, (draw, r) in enumerate(runs)
        ],
        "summary": {
            "runs": len(runs),
            "checks_total": checks_total,
            "checks_failed": checks_failed,
            "all_passed": checks_failed == 0,
        },
        "timings": {"total_seconds": time.perf_counter() - started},
    }
    return (0 if checks_failed == 0 else 1), report


def render_text(report: dict) -> str:
    """Aligned, human-readable view of a report."""
    lines = []
    spec = report["spec"]
    summary = report["summary"]
    lines.append(
        f"experiment {spec['experiment']}  runs {summary['runs']}  "
        f"all passed {'yes' if summary['all_passed'] else 'NO'}"
    )
    for run in report["runs"]:
        theta = run["theta"]
        theta_text = "-" if theta is None else f"{theta:.6f}"
        coeffs = ", ".join(f"{re:+.4f}{im:+.4f}i" for re, im in run["coefficients"])
        lines.append(f"run {run['run_index']}  theta {theta_text}  coefficients [{coeffs}]")
        lines.append(f"  {'label':<12} weight")
        for branch in run["branches"]:
            lines.append(f"  {branch['label']:<12} {branch['weight']:.16f}")
        for check in run["checks"]:
            lines.append(
                f"  check {check['name']:<26} {check['status']:<5} "
                f"residual {check['residual']:.3e}  tolerance {check['tolerance']:.3e}"
            )
    return "\n".join(lines) + "\n"


def _jsonify(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_report(report: dict, path: str | None, fmt: str) -> None:
    """Write ``report`` to ``path`` (standard output when None).

    The JSON form is exactly ``json.dumps(report, indent=2, sort_keys=True)``
    plus a newline, built as one list of pieces by ``_append_json`` before
    the file is opened: a non-finite number raises ``ValueError`` (an
    internal error, exit 4) and leaves no file.
    """
    if fmt == "json":
        pieces = []
        _append_json(pieces, {}, report, 0)
        pieces.append("\n")
    else:
        pieces = (render_text(report),)
    if path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc}") from exc


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _flat_encoder(depth: int):
    """The stdlib's C encoder, writing a container whose brackets sit at
    ``depth`` with each item on its own line, as ``indent=2`` does."""
    return c_make_encoder(
        None, _jsonify, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * (depth + 1), True, False, False,
    )


def _append_json(pieces: list, written: dict, value, depth: int) -> None:
    """Append ``json.dumps(value, indent=2, sort_keys=True, default=_jsonify,
    allow_nan=False)`` for a ``value`` at nesting ``depth`` to ``pieces``;
    dict keys must be strings where the dict holds a container.

    A container without container children is one C-encoder call whose
    separators already break the lines (an encoded string never holds a raw
    newline), so only its brackets move onto their own lines.  A container
    met again at the same depth (a report shares some) re-appends its slice
    of ``pieces``, which ``written`` keeps by ``(id, depth)``."""
    key = (id(value), depth)
    if key in written:
        pieces += pieces[slice(*written[key])]
        return
    start = len(pieces)
    is_dict = isinstance(value, dict)
    children = value.values() if is_dict else value
    if not isinstance(value, _CONTAINERS) or not value:
        pieces += _flat_encoder(depth)(value, 0)  # a scalar, [] or {}
    elif not any(isinstance(child, _CONTAINERS) for child in children):
        text = "".join(_flat_encoder(depth)(value, 0))
        pieces += (_separator(text[0], depth + 1), text[1:-1], _separator("", depth), text[-1])
    else:
        items = sorted(value.items()) if is_dict else ((None, child) for child in value)
        encode = _flat_encoder(depth + 1)
        lead = "{" if is_dict else "["
        for name, child in items:
            pieces.append(_separator(lead, depth + 1, name))
            lead = ","
            if isinstance(child, _CONTAINERS):
                _append_json(pieces, written, child, depth + 1)
            else:
                pieces += encode(child, 0)
        pieces += (_separator("", depth), "}" if is_dict else "]")
    written[key] = (start, len(pieces))


@functools.lru_cache(maxsize=1024)
def _separator(lead: str, depth: int, name: str | None = None) -> str:
    """``lead``, a new line at ``depth`` and the dict key ``name``, if any."""
    text = lead + "\n" + "  " * depth
    return text if name is None else text + encode_basestring_ascii(name) + ": "


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="branchsim",
        description="Run branching measurement-chain experiments from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute the experiment in a config file")
    runner.add_argument("config", help="path to a JSON config")
    runner.add_argument(
        "--check",
        action="append",
        dest="checks",
        metavar="NAME",
        help="run only the named check (repeatable)",
    )
    runner.add_argument("--format", choices=("json", "text"), help="report format override")
    runner.add_argument("--out", metavar="PATH", help="report path override")
    runner.add_argument("--seed", type=int, metavar="U64", help="seed override")
    runner.add_argument("--tolerance", type=float, metavar="X", help="tolerance override")
    runner.add_argument(
        "--negative-control", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed: must be non-negative")
            config.seed = args.seed
        if args.tolerance is not None:
            config.tolerance = _check_tolerance(args.tolerance)
        if args.checks:
            config.checks = args.checks
        if args.format:
            config.output_format = args.format
        if args.out:
            config.output_path = args.out
        _cross_validate(config)
        blind = config.checks is not None and "mixed_record" not in config.checks
        if args.negative_control and blind:
            raise ConfigError("--negative-control needs the mixed_record check, which it must fail")
        exit_code, report = run_and_report(config, negative_control=args.negative_control)
        write_report(report, config.output_path, config.output_format)
        return exit_code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except Exception:
        # Anything else is a bug in branchsim, not in the config.
        traceback.print_exc()
        print("internal error: see the traceback above", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
