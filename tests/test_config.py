import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hetnet_uplink import (
    CellType,
    ChannelConfig,
    ConfigError,
    NetworkConfig,
    dbm_to_watts,
    load_config,
    validate,
)


def test_dbm_to_watts_reference_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(20.0) == pytest.approx(0.1)
    assert dbm_to_watts(-3.0) == pytest.approx(5.01187e-4, rel=1e-5)


def test_dbm_to_watts_rejects_non_finite():
    with pytest.raises(ValueError):
        dbm_to_watts(math.inf)


def test_dbm_scaling_and_monotonicity():
    xs = [-40.0, -3.0, 0.0, 7.5, 20.0, 33.0]
    for x in xs:
        assert dbm_to_watts(x + 10.0) == pytest.approx(10.0 * dbm_to_watts(x), rel=1e-12)
    values = [dbm_to_watts(x) for x in xs]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_reference_defaults_validate():
    cfg, ch = validate(NetworkConfig(), ChannelConfig())
    assert cfg.L == 500.0 and cfg.alpha == 0.6
    assert ch.beta == 2.0
    assert ch.noise_power == pytest.approx(5e6 * 3.98107e-18)


def test_validate_names_each_violation():
    with pytest.raises(ConfigError) as err:
        validate(NetworkConfig(R_I=700.0))
    assert any("R_I" in v and "L" in v for v in err.value.violations)

    with pytest.raises(ConfigError) as err:
        validate(NetworkConfig(), ChannelConfig(beta=1.5))
    assert any("beta" in v for v in err.value.violations)

    # several violations at once: all must be named
    with pytest.raises(ConfigError) as err:
        validate(NetworkConfig(R=0.5, delta=-1.0, N=-3), ChannelConfig(P_gamma=0.0))
    text = " ".join(err.value.violations)
    for token in ("R ", "delta", "N ", "P_gamma"):
        assert token in text


@pytest.mark.parametrize(
    "cfg,ok",
    [
        (NetworkConfig(), True),
        (NetworkConfig(R=1.0), False),             # R must exceed 1 m
        (NetworkConfig(R=130.0), False),           # R < R_I
        (NetworkConfig(L=100.0), False),           # R_I < L
        (NetworkConfig(alpha=-0.1), False),
        (NetworkConfig(delta=0.0), False),
        (NetworkConfig(alpha=2.5), True),          # warns, does not reject
    ],
)
def test_validate_accepts_exactly_the_invariant_set(cfg, ok):
    if ok:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            validate(cfg)
    else:
        with pytest.raises(ConfigError):
            validate(cfg)


def test_alpha_outside_empirical_range_warns():
    with pytest.warns(UserWarning, match="empirical range"):
        validate(NetworkConfig(alpha=2.5))


def test_rayleigh_default_second_moment():
    # the second moment of the exponential gain is derived, never configured
    assert ChannelConfig().P_gamma2 == 2.0
    assert ChannelConfig(P_gamma=1.5).P_gamma2 == 4.5


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        """
        # reference scenario, desk population
        L = 500
        R = 60
        R_I = 120
        N = 2000
        alpha = 0.6
        delta = 30
        cell_type = OSG
        P_t_m_dbm = 20
        P_t_h_dbm = -3
        beta = 2
        P_gamma = 1.0
        W = 5e6
        N0 = 3.98107e-18
        """
    )
    cfg, ch = load_config(path)
    assert cfg.N == 2000
    assert cfg.cell_type is CellType.OSG
    assert ch.P_t_m == pytest.approx(0.1)
    assert ch.P_t_h == pytest.approx(dbm_to_watts(-3.0))


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    for line in ("shadowing = 8\n", "T_s = 1.0\n"):      # T_s: a flight period no model reads
        path.write_text(line)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)


def test_load_config_rejects_the_derived_second_moment(tmp_path):
    # P_gamma2 = 2 P_gamma**2 follows from Rayleigh fading; it is no option
    path = tmp_path / "bad.cfg"
    for line in ("P_gamma2 = 2.0\n", "P_gamma2 = 0.5\n"):
        path.write_text(line)
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats serves the test oracles only; importing the library must not load it
    import hetnet_uplink

    src = str(Path(hetnet_uplink.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hetnet_uplink; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.strip() == "False"
