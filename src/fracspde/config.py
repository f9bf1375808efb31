"""Run configuration: a flat key = value file format and a validated record.

The CLI reads an optional config file, applies flag overrides, validates the
merged result, and echoes the effective configuration next to the outputs so
every artifact is reproducible from the echo alone.  The file format is a
deliberately flat subset of TOML: one ``key = value`` pair per line, ``#``
comments, no sections, no nesting.  Values are booleans (``true``/``false``),
integers, floats, or strings (quoted when they could be mistaken for one of
the former).  Floats serialize via ``repr`` so parse(serialize(c)) == c
exactly.
"""

import math
import re
from dataclasses import dataclass, fields

import numpy as np

from .constants import validate_hurst
from .picard import (
    AffineSigma,
    InitialData,
    PicardConfig,
    constant_initial,
    sampled_holder_initial,
)

_KEY_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


def parse_scalar(token):
    """One value of the file format: a quoted string (quotes removed), a
    bool, an integer, a float, or else the bare string.  The CLI reads
    every setting flag by this rule too."""
    if len(token) >= 2 and token[0] == token[-1] == '"':
        return token[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    if token == "true":
        return True
    if token == "false":
        return False
    if _INT_RE.match(token):
        return int(token)
    try:
        return float(token)
    except ValueError:
        return token


def _split_comment(line):
    # A # starts a comment unless it sits inside a quoted string.
    out = []
    quoted = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"' and (i == 0 or line[i - 1] != "\\"):
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
        i += 1
    return "".join(out)


def parse_config_text(text):
    """Parse flat ``key = value`` lines into an ordered dict.

    Raises ValueError with the offending line number on malformed lines,
    bad keys, unterminated strings, or duplicate keys.
    """
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ValueError(f"config line {lineno}: bad key {key!r}")
        if key in mapping:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        if not value:
            raise ValueError(f"config line {lineno}: missing value for {key!r}")
        if value.startswith('"') and not (len(value) >= 2 and value.endswith('"')):
            raise ValueError(f"config line {lineno}: unterminated string for {key!r}")
        mapping[key] = parse_scalar(value)
    return mapping


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _format_scalar(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    bare_ok = (
        text
        and not any(c in text for c in ' \t"#')
        and not _INT_RE.match(text)
        and text not in ("true", "false")
    )
    if not bare_ok:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    try:
        float(text)
    except ValueError:
        return text
    return '"' + text + '"'


def serialize_mapping(mapping):
    """Render a flat mapping in the file format, one key per line; None
    values are left out, since the format has no null."""
    lines = [
        f"{key} = {_format_scalar(value)}" for key, value in mapping.items() if value is not None
    ]
    return "\n".join(lines) + "\n"


_U0_HINT = "u0 must be 'const:<value>' or 'holder-sample'"


def _parse_u0_spec(spec):
    if spec == "holder-sample":
        return None
    if isinstance(spec, str) and spec.startswith("const:"):
        try:
            return float(spec[len("const:") :])
        except ValueError:
            pass
    raise ValueError(f"{_U0_HINT}, got {spec!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """One validated solver run: equation, grids, noise, and output knobs.

    dt is canonicalized to T / n_steps with n_steps = round(T / dt), so the
    step count divides the horizon exactly; a dt that is not within one part
    in 1e9 of such a divisor is rejected.  The noise has no settings of its
    own: it is drawn on the lattice bands that dx, L and T give the solver.
    """

    equation: str = "wave"
    hurst: float = 0.3
    T: float = 0.5
    dt: float = 0.00390625
    dx: float = 0.00390625
    L: float = 1.0
    sigma_a: float = 0.5
    sigma_b: float = 1.0
    u0: str = "const:0"
    v0: float = 0.0
    seed: int = 0
    ensemble: int = 1
    max_iters: int = 12
    tol: float = 0.001
    out: str = "."

    def __post_init__(self):
        if self.equation not in ("wave", "heat"):
            raise ValueError(f"equation must be 'wave' or 'heat', got {self.equation!r}")
        validate_hurst(self.hurst, name="hurst")
        for name in ("T", "dt", "dx", "L"):
            value = getattr(self, name)
            if not (isinstance(value, float) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite float, got {value!r}")
        steps = self.T / self.dt
        n_steps = round(steps) if math.isfinite(steps) else 0
        if n_steps < 1 or abs(self.dt * n_steps - self.T) > 1e-9 * self.T:
            raise ValueError(f"dt must divide T into a whole number of steps, got T/dt = {steps!r}")
        object.__setattr__(self, "dt", self.T / n_steps)
        for name in ("sigma_a", "sigma_b", "v0", "tol"):
            value = getattr(self, name)
            if not (isinstance(value, float) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite float, got {value!r}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        _parse_u0_spec(self.u0)
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if not (isinstance(self.ensemble, int) and self.ensemble >= 1):
            raise ValueError(f"ensemble must be a positive integer, got {self.ensemble!r}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")
        if not isinstance(self.out, str):
            raise ValueError(f"out must be a string path, got {self.out!r}")

    @property
    def n_steps(self):
        return round(self.T / self.dt)


_FLOAT_FIELDS = ("hurst", "T", "dt", "dx", "L", "sigma_a", "sigma_b", "v0", "tol")
_INT_FIELDS = ("seed", "ensemble", "max_iters")
_FIELD_ORDER = tuple(f.name for f in fields(SimulationConfig))


def from_mapping(mapping):
    """Build a SimulationConfig from a flat mapping over the defaults.

    Unknown keys are rejected by name.  Integer literals are accepted for
    float fields (an integer beyond float range is rejected by name);
    everything else must match the field's type.
    """
    values = {}
    for key, value in mapping.items():
        if key not in _FIELD_ORDER:
            raise ValueError(f"unknown config key {key!r}")
        if key in _FLOAT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{key} must be a number, got {value!r}")
            try:
                values[key] = float(value)
            except OverflowError:
                raise ValueError(f"{key} is too large for a float")
        elif key in _INT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            values[key] = value
        else:
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
            values[key] = value
    return SimulationConfig(**values)


def initial_data(config):
    """Materialize the u0/v0 specification as solver initial data."""
    const_value = _parse_u0_spec(config.u0)
    if const_value is None:
        base = sampled_holder_initial(config.hurst, config.seed)
        if config.v0 == 0.0:
            return base
        v0_value = config.v0

        def v0(x):
            return np.full_like(np.asarray(x, dtype=float), v0_value)

        return InitialData(u0=base.u0, v0=v0)
    return constant_initial(const_value, config.v0)


def to_picard_config(config):
    """Translate the run record into solver inputs."""
    return PicardConfig(
        equation=config.equation,
        h=config.hurst,
        T=config.T,
        n_steps=config.n_steps,
        dx=config.dx,
        L=config.L,
        sigma=AffineSigma(config.sigma_a, config.sigma_b),
        init=initial_data(config),
        seed=config.seed,
        max_iters=config.max_iters,
        tol=config.tol,
    )
