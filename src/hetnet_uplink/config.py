"""Scenario constants, unit conversions and validation.

Everything downstream computes in SI units (meters, watts, hertz, seconds).
dBm / dB values only appear at the boundary: config files and CLI flags.
The dataclass defaults describe the reference scenario used across the
test-suite and the CLI figure aliases.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

# Empirical range of the flight-length tail exponent seen in human
# mobility traces; values outside warn but are not rejected.
ALPHA_EMPIRICAL_RANGE = (0.53, 1.81)


class CellType(Enum):
    CSG = "CSG"
    OSG = "OSG"


class ConfigError(ValueError):
    """One or more configuration invariants are violated."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power level from dBm to watts."""
    if not math.isfinite(p_dbm):
        raise ValueError(f"power in dBm must be finite, got {p_dbm!r}")
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class NetworkConfig:
    """Geometry, population and mobility constants of one scenario.

    L       macro-cell radius [m]
    R       small-cell radius [m]
    R_I     interfering radius [m]
    N       user population
    alpha   flight-length tail exponent
    delta   basic step length (minimum flight length) [m]
    """

    L: float = 500.0
    R: float = 60.0
    R_I: float = 120.0
    N: int = 10000
    alpha: float = 0.6
    delta: float = 30.0
    cell_type: CellType = CellType.CSG


@dataclass(frozen=True)
class ChannelConfig:
    """Transmit power and channel constants.

    Fading is Rayleigh: the power gain is exponential with mean P_gamma, as
    the MGF closed forms and the Monte Carlo draws assume, so its second
    moment is derived from P_gamma, never stored independently.
    """

    P_t_m: float = 0.1                      # macro-user transmit power [W]
    P_t_h: float = dbm_to_watts(-3.0)       # home-user transmit power [W]
    beta: float = 2.0                       # pathloss exponent
    P_gamma: float = 1.0                    # E[gain]
    W: float = 5e6                          # bandwidth [Hz]
    N0: float = 3.98107e-18                 # noise spectral density [W/Hz]

    @property
    def noise_power(self) -> float:
        """Noise power W*N0 [W]; derived, never stored independently."""
        return self.W * self.N0

    @property
    def P_gamma2(self) -> float:
        """E[gain**2] = 2 * P_gamma**2 of the exponential power gain."""
        return 2.0 * self.P_gamma**2


def validate(cfg: NetworkConfig, ch: ChannelConfig | None = None):
    """Check every invariant; raise ConfigError naming all violations.

    Returns the inputs unchanged when they pass.  An alpha outside the
    empirical range only warns.
    """
    bad = []
    if not cfg.R > 1.0:
        bad.append(f"R must exceed 1 m (distance support floor), got R={cfg.R}")
    if not cfg.R < cfg.R_I:
        bad.append(f"R < R_I required, got R={cfg.R}, R_I={cfg.R_I}")
    if not cfg.R_I < cfg.L:
        bad.append(f"R_I < L required, got R_I={cfg.R_I}, L={cfg.L}")
    if not cfg.alpha > 0:
        bad.append(f"alpha must be positive, got alpha={cfg.alpha}")
    if not cfg.delta > 0:
        bad.append(f"delta must be positive, got delta={cfg.delta}")
    if not cfg.N >= 0:
        bad.append(f"N must be nonnegative, got N={cfg.N}")

    if ch is not None:
        if not ch.beta >= 2.0:
            bad.append(f"beta >= 2 required, got beta={ch.beta}")
        if not ch.P_gamma > 0:
            bad.append(f"P_gamma must be positive, got {ch.P_gamma}")
        for name in ("P_t_m", "P_t_h", "W", "N0"):
            if not getattr(ch, name) > 0:
                bad.append(f"{name} must be positive, got {getattr(ch, name)}")

    if bad:
        raise ConfigError(bad)

    if cfg.alpha > 0 and not (
        ALPHA_EMPIRICAL_RANGE[0] <= cfg.alpha <= ALPHA_EMPIRICAL_RANGE[1]
    ):
        warnings.warn(
            f"alpha={cfg.alpha} lies outside the empirical range "
            f"{ALPHA_EMPIRICAL_RANGE}; the model remains well defined",
            UserWarning,
            stacklevel=2,
        )
    return (cfg, ch) if ch is not None else cfg


_NETWORK_KEYS = {f.name for f in fields(NetworkConfig)}
_CHANNEL_KEYS = {f.name for f in fields(ChannelConfig)}
_DBM_KEYS = {"P_t_m_dbm": "P_t_m", "P_t_h_dbm": "P_t_h"}


def load_config(path) -> tuple[NetworkConfig, ChannelConfig]:
    """Parse a key-value config file and validate it.

    Lines look like ``key = value`` (``:`` also accepted); ``#`` starts a
    comment.  Keys are the NetworkConfig / ChannelConfig field names;
    transmit powers may instead use a ``_dbm`` suffix.  Missing keys keep
    the reference defaults; unknown keys are an error.
    """
    net: dict = {}
    chan: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sep = "=" if "=" in line else (":" if ":" in line else None)
        if sep is None:
            raise ConfigError([f"line {lineno}: expected 'key = value', got {raw!r}"])
        key, value = (part.strip() for part in line.split(sep, 1))
        if key in _DBM_KEYS:
            chan[_DBM_KEYS[key]] = dbm_to_watts(float(value))
        elif key in _CHANNEL_KEYS:
            chan[key] = float(value)
        elif key == "cell_type":
            try:
                net["cell_type"] = CellType[value.upper()]
            except KeyError:
                raise ConfigError(
                    [f"line {lineno}: cell_type must be CSG or OSG, got {value!r}"]
                ) from None
        elif key == "N":
            net["N"] = int(float(value))
        elif key in _NETWORK_KEYS:
            net[key] = float(value)
        else:
            raise ConfigError([f"line {lineno}: unknown key {key!r}"])

    cfg = NetworkConfig(**net)
    ch = ChannelConfig(**chan)
    validate(cfg, ch)
    return cfg, ch
