"""Line-oriented run configuration: ``section.key = value`` with # comments.

Matrices are comma-separated row-major lists, axes are ``min:max:count``
triples.  Unknown keys are rejected with a suggestion instead of being
ignored.  ``parse_config(emit_config(cfg))`` reproduces ``cfg`` exactly.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .tolerances import TOLERANCE_KEYS

COMMANDS = ("spectrum", "mesh", "report", "sweep", "boundary", "ep",
            "floquet", "fig1", "fig2", "fig3")

_KNOWN_KEYS = (
    ("command", "model.n", "model.omegas", "model.preset",
     "matrices.D", "matrices.K", "matrices.N",
     "gains.delta", "gains.kappa", "gains.nu", "gains.Omega",
     "axes.Omega", "axes.kappa", "axes.delta", "axes.nu",
     "floquet.steps", "fig3.deltas", "output.path")
    + tuple(f"tolerance.{k}" for k in TOLERANCE_KEYS)
)

# Fig. 1 caption parameters; fig2/fig3 reuse the same rotor and stiffness.
_FIG_D = (-1.0, 0.0, 0.0, 2.0)
_FIG_K = (1.0, 1.0, 1.0, 2.0)
_FIG_N = (0.0, -1.0, 1.0, 0.0)


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int = 1
    omegas: tuple | None = None
    D: tuple | None = None
    K: tuple | None = None
    N: tuple | None = None
    delta: float = 0.0
    kappa: float = 0.0
    nu: float = 0.0
    Omega: float = 0.0
    axes: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    floquet_steps: int = 4096
    fig3_deltas: tuple = (0.05, 0.1, 0.2)
    out_path: str = "."


def _suggest(key: str) -> str | None:
    hit = difflib.get_close_matches(key, _KNOWN_KEYS, n=1, cutoff=0.6)
    if hit:
        return hit[0]
    section, dot, name = key.partition(".")
    if dot:
        same_name = [k for k in _KNOWN_KEYS if k.endswith("." + name)]
        if same_name:
            return same_name[0]
        names = [k.split(".", 1)[1] for k in _KNOWN_KEYS if "." in k]
        hit = difflib.get_close_matches(name, names, n=1, cutoff=0.6)
        if hit:
            return next(k for k in _KNOWN_KEYS if k.endswith("." + hit[0]))
        return None
    hit = difflib.get_close_matches(key, _KNOWN_KEYS, n=1, cutoff=0.4)
    return hit[0] if hit else None


def _parse_float(value: str, key: str, line: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}", line)
    if not math.isfinite(x):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}", line)
    return x


def _parse_int(value: str, key: str, line: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}", line)


def _parse_floats(value: str, key: str, line: int) -> tuple:
    return tuple(_parse_float(v, key, line) for v in value.split(","))


def _parse_axis(value: str, key: str, line: int) -> tuple:
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{key}: expected min:max:count, got {value!r}", line)
    lo = _parse_float(parts[0], key, line)
    hi = _parse_float(parts[1], key, line)
    count = _parse_int(parts[2], key, line)
    if not lo < hi:
        raise ConfigError(f"{key}: axis needs min < max, got {lo} >= {hi}", line)
    if count < 2:
        raise ConfigError(f"{key}: axis needs at least 2 samples, got {count}", line)
    return (lo, hi, count)


def parse_config(text: str) -> RunConfig:
    """Parse and validate one configuration; strict about unknown keys."""
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            hint = _suggest(key)
            suffix = f"; did you mean {hint!r}?" if hint else ""
            raise ConfigError(f"unknown key {key!r}{suffix}", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first on line "
                              f"{entries[key][1]})", lineno)
        if not value:
            raise ConfigError(f"{key}: empty value", lineno)
        entries[key] = (value, lineno)

    if "command" not in entries:
        raise ConfigError("missing required key 'command'")
    command, cmd_line = entries.pop("command")
    if command not in COMMANDS:
        hint = difflib.get_close_matches(command, COMMANDS, n=1)
        suffix = f"; did you mean {hint[0]!r}?" if hint else ""
        raise ConfigError(f"unknown command {command!r}{suffix}", cmd_line)

    kw: dict = {"command": command}
    axes: dict = {}
    tolerances: dict = {}
    for key, (value, line) in sorted(entries.items(), key=lambda kv: kv[1][1]):
        section, _, name = key.partition(".")
        if command in ("fig1", "fig2", "fig3"):
            allowed = {"output", "tolerance"}
            if command == "fig3":
                allowed |= {"fig3"}
            if command == "fig3" and key == "gains.nu":
                pass
            elif section not in allowed:
                raise ConfigError(
                    f"{key}: the {command} preset fixes its own parameters; "
                    "only output/tolerance" +
                    ("/fig3.deltas/gains.nu" if command == "fig3" else "") +
                    " keys may be set", line)
        if key == "model.n":
            kw["n"] = _parse_int(value, key, line)
            if kw["n"] < 1:
                raise ConfigError(f"{key}: must be positive", line)
        elif key == "model.omegas":
            kw["omegas"] = _parse_floats(value, key, line)
        elif key == "model.preset":
            # the string rotor is the default model; the key only names it
            if value != "string":
                raise ConfigError(f"{key}: the only preset is 'string'", line)
            if "model.omegas" in entries:
                raise ConfigError(f"{key} and model.omegas both set the "
                                  "doublet frequencies; keep one", line)
        elif section == "matrices":
            kw[name] = _parse_floats(value, key, line)
        elif section == "gains":
            kw[name] = _parse_float(value, key, line)
        elif section == "axes":
            axes[name] = _parse_axis(value, key, line)
        elif section == "tolerance":
            tolerances[name] = _parse_float(value, key, line)
        elif key == "floquet.steps":
            kw["floquet_steps"] = _parse_int(value, key, line)
        elif key == "fig3.deltas":
            kw["fig3_deltas"] = _parse_floats(value, key, line)
        elif key == "output.path":
            kw["out_path"] = value

    cfg = RunConfig(axes=axes, tolerances=tolerances, **kw)
    return _validate(cfg)


def _validate(cfg: RunConfig) -> RunConfig:
    if cfg.command == "fig1":
        cfg = replace(cfg, n=1, omegas=(1.0,), D=_FIG_D, K=_FIG_K, N=_FIG_N,
                      delta=0.3, kappa=0.2, nu=0.0, Omega=0.0)
    elif cfg.command == "fig2":
        cfg = replace(cfg, n=1, omegas=(1.0,), D=_FIG_D, K=_FIG_K, N=_FIG_N,
                      delta=0.3, kappa=0.0, nu=0.0, Omega=0.0)
    elif cfg.command == "fig3":
        nu = cfg.nu if cfg.nu != 0.0 else 0.2
        cfg = replace(cfg, n=1, omegas=(1.0,), D=_FIG_D, K=_FIG_K, N=_FIG_N,
                      delta=0.0, kappa=0.0, nu=nu, Omega=0.0)

    if cfg.omegas is not None:
        if len(cfg.omegas) != cfg.n:
            raise ConfigError(
                f"model.omegas has {len(cfg.omegas)} entries, model.n = {cfg.n}")
        if any(w <= 0 for w in cfg.omegas) or \
                any(b <= a for a, b in zip(cfg.omegas, cfg.omegas[1:])):
            raise ConfigError("model.omegas must be positive and strictly increasing")
    size = 2 * cfg.n
    for name in ("D", "K", "N"):
        m = getattr(cfg, name)
        if m is not None and len(m) != size * size:
            raise ConfigError(
                f"matrices.{name} needs {size * size} row-major entries for "
                f"n = {cfg.n}, got {len(m)}")

    if cfg.command in ("sweep", "boundary"):
        if len(cfg.axes) != 2:
            raise ConfigError(
                f"{cfg.command} needs exactly two axes.* keys, got {len(cfg.axes)}")
    elif cfg.command == "ep":
        if set(cfg.axes) != {"Omega", "kappa"}:
            raise ConfigError("ep needs axes.Omega and axes.kappa as the search box")
    elif cfg.axes and cfg.command not in ("fig1", "fig2", "fig3"):
        raise ConfigError(f"{cfg.command} takes no axes.* keys")

    if cfg.floquet_steps < 256:
        raise ConfigError("floquet.steps must be at least 256")
    if cfg.command == "fig3":
        if not cfg.fig3_deltas or any(d <= 0 for d in cfg.fig3_deltas):
            raise ConfigError("fig3.deltas must be positive")
    return cfg


def emit_config(cfg: RunConfig) -> str:
    """Serialize a config so that parse_config round-trips it exactly."""
    lines = [f"command = {cfg.command}"]
    fig = cfg.command in ("fig1", "fig2", "fig3")
    if not fig:
        lines.append(f"model.n = {cfg.n}")
        if cfg.omegas is not None:
            lines.append("model.omegas = " + ",".join(repr(w) for w in cfg.omegas))
        for name in ("D", "K", "N"):
            m = getattr(cfg, name)
            if m is not None:
                lines.append(f"matrices.{name} = " + ",".join(repr(v) for v in m))
        for name in ("delta", "kappa", "nu", "Omega"):
            lines.append(f"gains.{name} = {getattr(cfg, name)!r}")
        for name in sorted(cfg.axes):
            lo, hi, count = cfg.axes[name]
            lines.append(f"axes.{name} = {lo!r}:{hi!r}:{count}")
        lines.append(f"floquet.steps = {cfg.floquet_steps}")
    elif cfg.command == "fig3":
        lines.append(f"gains.nu = {cfg.nu!r}")
        lines.append("fig3.deltas = " + ",".join(repr(d) for d in cfg.fig3_deltas))
    for name in sorted(cfg.tolerances):
        lines.append(f"tolerance.{name} = {cfg.tolerances[name]!r}")
    lines.append(f"output.path = {cfg.out_path}")
    return "\n".join(lines) + "\n"
