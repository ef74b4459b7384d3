import math

import pytest

from gyrospec.config import RunConfig, emit_config, parse_config
from gyrospec.errors import ConfigError
from gyrospec.tolerances import DEFAULT, TOLERANCE_KEYS


MINIMAL = """
command = spectrum
model.n = 1
model.omegas = 1.0
"""


class TestParse:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.command == "spectrum"
        assert cfg.omegas == (1.0,)
        assert cfg.delta == cfg.kappa == cfg.nu == cfg.Omega == 0.0
        assert cfg.D is None and cfg.N is None
        assert cfg.axes == {} and cfg.tolerances == {}

    def test_comments_and_blanks(self):
        cfg = parse_config("""
        # a comment
        command = mesh   # trailing comment

        model.n = 2
        model.preset = string
        gains.Omega = 0.4
        """)
        assert cfg.command == "mesh"
        # the string preset is the default model: n doublets, no omegas
        assert cfg.n == 2 and cfg.omegas is None
        assert cfg == parse_config("command = mesh\nmodel.n = 2\ngains.Omega = 0.4\n")
        assert cfg.Omega == 0.4

    def test_fig1_preset_expands_caption(self):
        cfg = parse_config("command = fig1\n")
        assert cfg.omegas == (1.0,)
        assert cfg.K == (1.0, 1.0, 1.0, 2.0)
        assert cfg.D == (-1.0, 0.0, 0.0, 2.0)
        assert cfg.N == (0.0, -1.0, 1.0, 0.0)
        assert cfg.kappa == 0.2 and cfg.nu == 0.0 and cfg.delta == 0.3

    def test_fig3_allows_nu_override(self):
        cfg = parse_config("command = fig3\ngains.nu = 0.15\nfig3.deltas = 0.1,0.2\n")
        assert cfg.nu == 0.15
        assert cfg.fig3_deltas == (0.1, 0.2)
        assert cfg.K == (1.0, 1.0, 1.0, 2.0)

    def test_fig_preset_rejects_overrides(self):
        with pytest.raises(ConfigError):
            parse_config("command = fig1\ngains.kappa = 0.5\n")
        with pytest.raises(ConfigError):
            parse_config("command = fig2\nmatrices.D = 1,0,0,1\n")

    def test_unknown_key_suggestion(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = spectrum\ndampping.D = 1,0,0,1\n")
        assert "did you mean" in str(err.value)
        assert "matrices.D" in str(err.value)

    def test_unknown_command_suggestion(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = spectrom\n")
        assert "spectrum" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = mesh\nmodel.n = 1\nmodel.n = 2\n")
        assert "duplicate" in str(err.value)

    def test_line_numbers_reported(self):
        with pytest.raises(ConfigError) as err:
            parse_config("command = mesh\n\nnot a pair\n")
        assert err.value.line == 3

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            parse_config("command = sweep\naxes.Omega = 1:0:10\naxes.kappa = 0:1:5\n")
        with pytest.raises(ConfigError):
            parse_config("command = sweep\naxes.Omega = 0:1:1\naxes.kappa = 0:1:5\n")

    def test_sweep_needs_two_axes(self):
        with pytest.raises(ConfigError):
            parse_config("command = sweep\naxes.Omega = 0:1:5\n")
        with pytest.raises(ConfigError):
            parse_config("command = spectrum\naxes.Omega = 0:1:5\n")

    def test_ep_needs_box(self):
        with pytest.raises(ConfigError):
            parse_config("command = ep\naxes.Omega = 0:1:5\naxes.delta = 0:1:5\n")

    def test_matrix_length_checked(self):
        with pytest.raises(ConfigError):
            parse_config("command = spectrum\nmodel.n = 1\nmatrices.D = 1,2,3\n")

    def test_preset_with_omegas_rejected(self):
        for order in ("model.preset = string\nmodel.omegas = 1,3\n",
                      "model.omegas = 1,3\nmodel.preset = string\n"):
            with pytest.raises(ConfigError, match="model.omegas"):
                parse_config("command = mesh\nmodel.n = 2\n" + order)

    def test_omegas_monotonicity(self):
        with pytest.raises(ConfigError):
            parse_config("command = mesh\nmodel.n = 2\nmodel.omegas = 2.0,1.0\n")

    def test_tolerance_keys(self):
        cfg = parse_config("command = spectrum\ntolerance.poly_residual = 1e-11\n")
        assert cfg.tolerances == {"poly_residual": 1e-11}
        for key in ("bogus", "conj_closure", "ep_disc_rtol", "cluster_rtol",
                    "qep_residual_rtol"):
            with pytest.raises(ConfigError):
                parse_config(f"command = spectrum\ntolerance.{key} = 1\n")


# one config per numeric key; {v} marks the number that is made non-finite
NUMERIC_KEYS = {
    **{f"gains.{g}": "command = spectrum\ngains.%s = {v}\n" % g
       for g in ("delta", "kappa", "nu", "Omega")},
    **{f"matrices.{m}": "command = spectrum\nmatrices.%s = 0,1,{v},0\n" % m
       for m in ("D", "K", "N")},
    "model.omegas": "command = mesh\nmodel.n = 2\nmodel.omegas = {v},2\n",
    **{f"axes.{a}": "command = sweep\naxes.%s = 0:{v}:5\naxes.%s = 0:1:5\n"
       % (a, "nu" if a == "Omega" else "Omega")
       for a in ("Omega", "kappa", "delta", "nu")},
    "fig3.deltas": "command = fig3\nfig3.deltas = 0.1,{v}\n",
    **{f"tolerance.{k}": "command = spectrum\ntolerance.%s = {v}\n" % k
       for k in TOLERANCE_KEYS},
}


class TestNonFinite:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(NUMERIC_KEYS))
    def test_rejected_with_key_and_line(self, key, value):
        text = NUMERIC_KEYS[key].format(v=value)
        parse_config(NUMERIC_KEYS[key].format(v="0.5"))  # the template is valid
        with pytest.raises(ConfigError, match="finite") as err:
            parse_config(text)
        assert key in str(err.value)
        assert err.value.line == next(i for i, ln in enumerate(text.splitlines(), 1)
                                      if ln.startswith(key + " "))

    def test_tolerances_finite_and_non_negative(self):
        for key in TOLERANCE_KEYS:
            assert getattr(DEFAULT.override(**{key: 0.0}), key) == 0.0
            for bad in (math.nan, math.inf, -1e-300):
                with pytest.raises(ConfigError, match=key):
                    DEFAULT.override(**{key: bad})


class TestRoundTrip:
    def roundtrip(self, cfg):
        assert parse_config(emit_config(cfg)) == cfg

    def test_minimal(self):
        self.roundtrip(parse_config(MINIMAL))

    def test_sweep_with_everything(self):
        text = """
        command = boundary
        model.n = 1
        model.omegas = 1.0
        matrices.D = -1,0,0,2
        matrices.K = 1,1,1,2
        gains.delta = 0.3
        axes.Omega = -0.45:0.45:91
        axes.kappa = -0.3:0.3:61
        tolerance.boundary_residual = 1e-8
        output.path = out
        """
        self.roundtrip(parse_config(text))

    def test_fig_presets(self):
        for cmd in ("fig1", "fig2"):
            self.roundtrip(parse_config(f"command = {cmd}\n"))
        self.roundtrip(parse_config(
            "command = fig3\ngains.nu = 0.25\nfig3.deltas = 0.02,0.07\n"))

    def test_ep_box(self):
        self.roundtrip(parse_config(
            "command = ep\nmodel.n = 1\nmodel.omegas = 1.0\n"
            "matrices.K = 1,1,1,2\ngains.nu = 0.2\n"
            "axes.Omega = -0.05:0.05:41\naxes.kappa = 0.1:0.25:41\n"))

    def test_floquet_steps(self):
        self.roundtrip(parse_config(
            "command = floquet\nmodel.n = 1\nmodel.omegas = 1.0\n"
            "gains.Omega = 0.4\nfloquet.steps = 512\n"))
