"""Tests for the unified ExperimentSpec API and the removed legacy shims."""

import pytest

from repro.api import CONFIGS, ExperimentSpec, plan, profile, run
from repro.errors import ExperimentError
from repro.experiments import runner

SCALE = 0.05


class TestSpecValidation:
    def test_defaults(self):
        spec = ExperimentSpec("mcf", "amd-phenom-ii")
        assert spec.config == "baseline"
        assert spec.input_set == "ref"
        assert spec.scale == 1.0

    def test_unknown_config_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec("mcf", "amd-phenom-ii", "quantum")

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(ExperimentError):
            ExperimentSpec("mcf", "amd-phenom-ii", scale=scale)

    @pytest.mark.parametrize("field", ["workload", "machine", "input_set"])
    def test_empty_strings_rejected(self, field):
        kwargs = {"workload": "mcf", "machine": "amd-phenom-ii", "input_set": "ref"}
        kwargs[field] = ""
        with pytest.raises(ExperimentError):
            ExperimentSpec(**kwargs)

    def test_scale_normalised_to_float(self):
        a = ExperimentSpec("mcf", "amd-phenom-ii", scale=1)
        b = ExperimentSpec("mcf", "amd-phenom-ii", scale=1.0)
        assert a == b and hash(a) == hash(b)
        assert isinstance(a.scale, float)

    def test_frozen(self):
        spec = ExperimentSpec("mcf", "amd-phenom-ii")
        with pytest.raises(AttributeError):
            spec.config = "hw"


class TestSpecDerivedViews:
    def test_profile_key_ignores_machine_and_config(self):
        a = ExperimentSpec("mcf", "amd-phenom-ii", "hw", "train", 0.2)
        b = ExperimentSpec("mcf", "intel-i7-2600k", "swnt", "train", 0.2)
        assert a.profile_key == b.profile_key == ("mcf", "train", 0.2)

    @pytest.mark.parametrize(
        "config,kind",
        [("baseline", None), ("hw", None), ("sw", "sw"), ("swnt", "swnt"),
         ("stride", "stride"), ("hwsw", "swnt")],
    )
    def test_plan_kind(self, config, kind):
        assert ExperimentSpec("mcf", "amd-phenom-ii", config).plan_kind == kind

    def test_with_config(self):
        spec = ExperimentSpec("mcf", "amd-phenom-ii", "baseline", "train", 0.2)
        other = spec.with_config("swnt")
        assert other.config == "swnt"
        assert other.profile_key == spec.profile_key

    def test_grid_order_and_size(self):
        grid = ExperimentSpec.grid(
            ("a1", "b2"), ("amd-phenom-ii",), ("baseline", "hw"), scales=(0.1,)
        )
        assert len(grid) == 4
        assert grid[0] == ExperimentSpec("a1", "amd-phenom-ii", "baseline", "ref", 0.1)
        assert [s.workload for s in grid] == ["a1", "a1", "b2", "b2"]

    def test_label(self):
        spec = ExperimentSpec("mcf", "amd-phenom-ii", "swnt", "train", 0.25)
        assert spec.label() == "mcf/amd-phenom-ii/swnt/train@0.25"


class TestFacade:
    def test_run_is_memoised(self):
        spec = ExperimentSpec("libquantum", "amd-phenom-ii", "baseline", scale=SCALE)
        assert run(spec) is run(spec)

    def test_profile_ignores_machine(self):
        a = profile(ExperimentSpec("mcf", "amd-phenom-ii", scale=SCALE))
        b = profile(ExperimentSpec("mcf", "intel-i7-2600k", scale=SCALE))
        assert a is b

    def test_plan_requires_plan_config(self):
        with pytest.raises(ExperimentError):
            plan(ExperimentSpec("mcf", "amd-phenom-ii", "baseline", scale=SCALE))

    def test_facade_never_touches_the_disk_cache(self, tmp_path):
        """run, profile and plan use the in-process memo only, even when
        the default engine has a persistent cache configured."""
        from repro.api import configure, reset_default_engine

        runner.clear_memo()
        spec = ExperimentSpec("libquantum", "amd-phenom-ii", "swnt", scale=SCALE)
        try:
            configure(jobs=1, use_cache=True, cache_dir=tmp_path)
            run(spec)
            profile(spec)
            plan(spec)
        finally:
            reset_default_engine()
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_plan_for_hwsw_is_swnt_plan(self):
        hwsw = plan(ExperimentSpec("libquantum", "amd-phenom-ii", "hwsw", scale=SCALE))
        swnt = plan(ExperimentSpec("libquantum", "amd-phenom-ii", "swnt", scale=SCALE))
        assert hwsw is swnt


class TestRemovedShims:
    """The stringly-typed entry points finished their tombstone cycle;
    the old names are now plain AttributeErrors like any other typo."""

    NAMES = ("profile_workload", "plan_for", "run_config", "run_all_configs")

    @pytest.mark.parametrize("name", NAMES)
    def test_runner_names_raise_attribute_error(self, name):
        with pytest.raises(AttributeError):
            getattr(runner, name)

    @pytest.mark.parametrize("name", NAMES)
    def test_package_names_raise_attribute_error(self, name):
        import repro.experiments as experiments

        with pytest.raises(AttributeError):
            getattr(experiments, name)

    def test_engine_lazy_reexport_survives(self):
        import repro.experiments as experiments

        assert experiments.ExperimentEngine.__name__ == "ExperimentEngine"

    def test_configs_reexported(self):
        assert runner.CONFIGS == CONFIGS


class TestEngineSurface:
    """repro.api is the one import point for the engine machinery."""

    def test_engine_types_resolvable(self):
        import repro.api as api

        assert api.ExperimentEngine.__name__ == "ExperimentEngine"
        assert api.EngineStats.__name__ == "EngineStats"
        assert api.FailureReport.__name__ == "FailureReport"
        assert api.RetryPolicy.__name__ == "RetryPolicy"

    def test_configure_installs_default_engine(self):
        from repro.api import configure, current_engine, reset_default_engine

        try:
            engine = configure(jobs=1, use_cache=False)
            assert current_engine() is engine
        finally:
            reset_default_engine()

    def test_current_engine_creates_on_demand(self):
        from repro.api import current_engine, reset_default_engine

        reset_default_engine()
        engine = current_engine()
        assert current_engine() is engine
        reset_default_engine()
