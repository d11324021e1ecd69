"""Config-driven experiment runner with JSON and text reports.

``main`` reads the command line of ``USAGE`` in one loop over argv: exact
option names, as ``--name value`` or ``--name=value``.  Configs are JSON
files (see README for the schema).  Exit codes, all returned: 0 all checks
passed, 1 at least one check failed, 2 usage or config error, 3 capacity
exceeded, 4 internal error (a bug; the traceback goes to standard error).
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import random
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
    chain_registers,
    is_normalized,
    run_appendix_rotation,
    run_measurement_chain,
)
from .state import TOLERANCE

SCHEMA_VERSION = 2

# The most runs (draws x angles) one report may hold: about 154 MB at 2.35 KB per
# sweep run, whose peak is 0.63 KB a run.  Checked before angles or draws are made.
MAX_RUNS = 2**16

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


@dataclass(slots=True)
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
    if "\0" in path:  # open() would raise ValueError, read below as a long number
        raise ConfigError(f"config path {path!r} holds a NUL character")
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
    # A list or an object cannot be looked up in EXPERIMENTS at all.
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: must be one of {sorted(EXPERIMENTS)}, got {experiment!r}"
        )

    config = ConfigFile(experiment=experiment)
    config.n_versions = _expect_int(raw, "n_versions", default=2, minimum=2)
    config.observers = _expect_int(raw, "observers", default=1, minimum=1)
    config.photon_model = _expect_bool(raw, "photon_model", default=False)
    config.tolerance = _check_tolerance(_expect_float(raw, "tolerance", default=TOLERANCE))
    config.seed = _expect_int(raw, "seed", default=None)

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
        if count > MAX_RUNS:
            raise ConfigError(f"thetas.count: at most {MAX_RUNS} angles, got {count}")
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
    if len(value) > MAX_RUNS:
        raise ConfigError(f"thetas: at most {MAX_RUNS} angles, got {len(value)}")
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
        if not isinstance(value["path"], str) or not value["path"] or "\0" in value["path"]:
            raise ConfigError(f"output.path: expected a path without NUL, got {value['path']!r}")
        config.output_path = value["path"]
    if "format" in value:
        if value["format"] not in ("json", "text"):
            raise ConfigError(f"output.format: expected 'json' or 'text', got {value['format']!r}")
        config.output_format = value["format"]


def _cross_validate(config: ConfigFile) -> None:
    if config.seed is not None and not 0 <= config.seed < 2**64:  # the U64 of --seed
        raise ConfigError(f"seed: must lie in [0, 2**64 - 1], got {config.seed}")
    if config.experiment in ("stern_gerlach", "appendix_rotation") and config.n_versions != 2:
        raise ConfigError(f"n_versions: {config.experiment} requires exactly 2 versions")
    if config.random_draws is not None and config.seed is None:
        raise ConfigError("seed: required when coefficients are random")
    if (config.random_draws or 1) * max(len(config.thetas), 1) > MAX_RUNS:
        raise ConfigError(f"coefficients.random: more runs than MAX_RUNS = {MAX_RUNS}")
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
    """The config's coefficients, or Haar-uniform unit vectors: complex
    Gaussians from ``random.Random(seed)``, each part divided by their exactly
    rounded norm (``c / norm`` does so only from Python 3.14 on)."""
    if config.coefficients is not None:
        return [config.coefficients]
    rng = random.Random(config.seed)
    draws = []
    for _ in range(config.random_draws):
        # Polar Box-Muller; 1 - u lies in (0, 1], so the logarithm is finite.
        vector = [
            cmath.rect(math.sqrt(-2.0 * math.log(1.0 - rng.random())), 2.0 * math.pi * rng.random())
            for _ in range(config.n_versions)
        ]
        norm = math.sqrt(math.fsum(abs(c) ** 2 for c in vector))
        draws.append([complex(c.real / norm, c.imag / norm) for c in vector])
    return draws


class RunEntry:
    """One run's report entry, without its states (runs share ``draw`` and ``checks``);
    the writers build ``to_dict()`` only as they reach the run."""

    __slots__ = ("run_index", "draw_index", "draw", "experiment", "theta", "checks")

    def __init__(self, run_index, draw_index, draw, experiment, theta, checks):
        self.run_index, self.draw_index, self.draw = run_index, draw_index, draw
        self.experiment, self.theta, self.checks = experiment, theta, checks

    def to_dict(self) -> dict:
        return {"run_index": self.run_index, "draw_index": self.draw_index, **self.draw,
                "experiment": self.experiment, "theta": self.theta, "checks": self.checks}


def run_and_report(config: ConfigFile, negative_control: bool = False) -> tuple[int, dict]:
    """Execute every run the config asks for and assemble the report.

    A config's draws run as one batch, in one ``run_measurement_chain`` or
    ``run_appendix_rotation`` call, which compiles the chain, shares it
    among every draw and angle and lets it go before the report is written;
    a rotation's reports come draw-major, one per angle, and the report holds
    a ``RunEntry`` for each.  The registers are counted first, so a chain over
    ``MAX_REGISTERS`` raises ``CapacityError`` before any coefficients are drawn.
    """
    started = time.perf_counter()
    chain_registers(config.n_versions, config.observers, config.photon_model)
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

    if config.experiment == "appendix_rotation":
        runs = run_appendix_rotation(specs, config.thetas, config.checks)
    else:
        runs = run_measurement_chain(specs, config.checks)

    entries, checks, angles = [], {}, max(len(config.thetas), 1)
    for i, r in enumerate(runs):  # runs that share a row of results share its list
        if (row := id(r.checks)) not in checks:
            checks[row] = [c.entry for c in r.checks]
        entries.append(RunEntry(i, i // angles, r.draw, r.experiment, r.theta, checks[row]))
    checks_total = sum(len(r.checks) for r in runs)
    checks_failed = sum(1 for r in runs for c in r.checks if not c.passed)
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
        "runs": entries,
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
    """Aligned, human-readable view of a report from ``run_and_report``."""
    lines = []
    spec = report["spec"]
    summary = report["summary"]
    lines.append(
        f"experiment {spec['experiment']}  runs {summary['runs']}  "
        f"all passed {'yes' if summary['all_passed'] else 'NO'}"
    )
    for run in map(RunEntry.to_dict, report["runs"]):
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
    plus a newline, a ``RunEntry`` read as its ``to_dict()``, written as it is
    encoded, to a file as UTF-8 bytes (``\\n`` line ends) through an unbuffered
    binary handle.  A non-finite number raises ``ValueError`` (exit 4) midway:
    a file begun is removed, printed text stays.
    """
    if path is None:
        return _write(report, fmt, sys.stdout.write)
    try:
        with open(path, "wb", buffering=0) as handle:
            def send(text: str) -> None:
                data = text.encode()
                while data:  # a raw write may take only part of its bytes
                    data = data[handle.write(data):]
            _write(report, fmt, send)
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc}") from exc
    except BaseException:
        if os.path.isfile(path) and not os.path.islink(path):  # a device or link is kept
            os.remove(path)
        raise


def _write(report: dict, fmt: str, write) -> None:
    """Write ``report`` as ``fmt`` through ``write``, at most 4,096 characters
    at a time; JSON goes out as it is encoded, 32 pieces a batch."""
    if fmt == "json":
        _flush(_append_json([], {}, report, 0, write) + ["\n"], write)
    else:
        _flush([render_text(report)], write)


def _flush(pieces: list, write) -> None:
    """Write the text of ``pieces`` at most 4,096 characters at a time; empty it."""
    text = "".join(pieces)
    pieces.clear()
    for start in range(0, len(text), 4096):
        write(text[start:start + 4096])


_CONTAINERS = (dict, list, tuple, RunEntry)


class _ContainerTypes(dict):
    """By type, whether the encoder takes it for a container: a lookup in C."""

    def __missing__(self, kind):
        self[kind] = found = issubclass(kind, _CONTAINERS)
        return found


_is_container_type = _ContainerTypes().__getitem__


@functools.cache
def _flat_encoder(depth: int):
    """The stdlib's C encoder, writing a container whose brackets sit at
    ``depth`` with each item on its own line, as ``indent=2`` does."""
    return c_make_encoder(
        None, _jsonify, encode_basestring_ascii, None,
        ": ", ",\n" + "  " * (depth + 1), True, False, False,
    )


def _append_json(pieces: list, memo: dict, value, depth: int, write=None) -> list:
    """Append ``json.dumps(value, indent=2, sort_keys=True, default=_jsonify,
    allow_nan=False)`` for a ``value`` at nesting ``depth`` to ``pieces``,
    flushed through ``write`` if given, and return it; dict keys must be
    strings where the dict holds a container.

    A container without container children is one C-encoder call whose
    separators already break the lines (an encoded string never holds a raw
    newline), so only its brackets move onto their own lines.  ``memo``
    marks each container met by ``depth << 64 | id`` key; one met again at
    the same depth (a report shares some) is encoded on its own, and
    ``memo`` keeps that text for every later place.  Emptied once it holds
    1,024 keys, ``memo`` stays small; a container met after that is encoded anew."""
    is_dict = isinstance(value, dict)
    children = value.values() if is_dict else value
    if not isinstance(value, _CONTAINERS) or not value:
        pieces += _flat_encoder(depth)(value, 0)  # a scalar, [] or {}
    elif not any(map(_is_container_type, map(type, children))):
        text = "".join(_flat_encoder(depth)(value, 0))
        pieces += (text[0], _separator(depth + 1), text[1:-1], _separator(depth), text[-1])
    else:
        items = sorted(value.items()) if is_dict else ((None, child) for child in value)
        encode = _flat_encoder(depth + 1)
        lead, tag = ("{" if is_dict else "["), (depth + 1) << 64
        for name, child in items:
            pieces += (lead, _separator(depth + 1, name))
            lead = ","
            if not isinstance(child, _CONTAINERS):
                pieces += encode(child, 0)
            elif type(child) is RunEntry:  # never keyed: a later run's dict may take its id
                _append_json(pieces, memo, child.to_dict(), depth + 1, write)
            elif (key := tag | id(child)) not in memo:
                if len(memo) >= 1024:
                    memo.clear()
                memo[key] = None
                _append_json(pieces, memo, child, depth + 1, write)
            else:
                memo[key] = memo[key] or "".join(_append_json([], {}, child, depth + 1))
                pieces.append(memo[key])
            if write is not None and len(pieces) >= 32:
                _flush(pieces, write)
        pieces += (_separator(depth), "}" if is_dict else "]")
    return pieces


@functools.lru_cache(maxsize=1024)
def _separator(depth: int, name: str | None = None) -> str:
    """A new line at ``depth`` and the dict key ``name``, if any."""
    text = "\n" + "  " * depth
    return text if name is None else text + encode_basestring_ascii(name) + ": "


USAGE = """usage: branchsim run <config.json> [--check NAME]... [--format json|text]
                                   [--out PATH] [--seed U64] [--tolerance X]"""

# Each option's value conversion; --check appends, any other repeat overrides.
_OPTIONS = {"--check": str, "--format": str, "--out": str, "--seed": int, "--tolerance": float}


def _parse_argv(argv: list[str]) -> dict | None:
    """``{"config": path, option: value, ...}`` for the options given, or None
    for help.  A usage error raises ``ValueError`` naming the argument."""
    args, tokens, positionals = {}, iter(argv), []
    for token in tokens:
        name, equals, value = token.partition("=")
        if token in ("-h", "--help"):
            return None
        if token == "--negative-control":
            args[token] = True
        elif name in _OPTIONS:
            value = value if equals else next(tokens, None)
            if value is None:
                raise ValueError(f"{name} expects a value")
            try:
                value = _OPTIONS[name](value)
            except ValueError:
                raise ValueError(f"{name}: invalid value {value!r}") from None
            if name == "--format" and value not in ("json", "text"):
                raise ValueError(f"--format: expected 'json' or 'text', got {value!r}")
            args[name] = args.get(name, []) + [value] if name == "--check" else value
        elif token.startswith("-") and token != "-":
            raise ValueError(f"unrecognized argument {token!r}")
        else:
            positionals.append(token)
    if argv[:1] != ["run"] or len(positionals) != 2:
        raise ValueError(f"expected 'run' and one config path, got {positionals}")
    if args.get("--out") == "" or "\0" in args.get("--out", ""):
        raise ValueError(f"--out: expected a path without NUL, got {args['--out']!r}")
    return {"config": positionals[1], **args}


def main(argv: list[str] | None = None) -> int:
    """Run ``branchsim run CONFIG [OPTION]...`` from ``argv`` (default
    ``sys.argv[1:]``) and return its exit code: 2 for a usage error, 0 for help."""
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"{USAGE}\nusage error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(USAGE)
        return 0
    try:
        config = parse_config(args["config"])
        config.seed = args.get("--seed", config.seed)
        if "--tolerance" in args:
            config.tolerance = _check_tolerance(args["--tolerance"])
        config.checks = args.get("--check", config.checks)
        config.output_format = args.get("--format", config.output_format)
        config.output_path = args.get("--out", config.output_path)
        _cross_validate(config)
        negative_control = "--negative-control" in args
        if negative_control and config.checks is not None and "mixed_record" not in config.checks:
            raise ConfigError("--negative-control needs the mixed_record check, which it must fail")
        exit_code, report = run_and_report(config, negative_control=negative_control)
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
