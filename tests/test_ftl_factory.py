"""The FTL factory and the public package surface."""

import pytest

import repro
from repro.errors import ExperimentError
from repro.ftl import DFTL, FTL_NAMES, SFTL, TPFTL, OptimalFTL, make_ftl


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("optimal", OptimalFTL),
        ("dftl", DFTL),
        ("tpftl", TPFTL),
    ])
    def test_builds_named_ftl(self, tiny_config, name, cls):
        ftl = make_ftl(name, tiny_config)
        assert isinstance(ftl, cls)
        assert ftl.name == name

    def test_page_granular_ftls_need_roomier_cache(self, roomy_config):
        assert isinstance(make_ftl("sftl", roomy_config), SFTL)

    def test_case_insensitive(self, tiny_config):
        assert isinstance(make_ftl("TPFTL", tiny_config), TPFTL)

    def test_unknown_name_rejected(self, tiny_config):
        with pytest.raises(ExperimentError):
            make_ftl("nope", tiny_config)

    def test_registry_names_sorted_and_complete(self):
        assert FTL_NAMES == ("dftl", "optimal", "sftl", "tpftl", "zftl")

    def test_tpftl_receives_technique_config(self, tiny_config):
        from dataclasses import replace
        from repro.config import TPFTLConfig
        config = replace(tiny_config,
                         tpftl=TPFTLConfig.from_monogram("bc"))
        ftl = make_ftl("tpftl", config)
        assert ftl.techniques.monogram == "bc"


class TestPublicAPI:
    def test_version_string(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_surface(self):
        # the objects the README quickstart uses
        assert repro.SimulationConfig
        assert repro.SSDConfig
        assert repro.make_ftl
        assert repro.simulate
