"""Tests for the `repro.api` facade."""

import pytest

import repro
import repro.api as api


class TestFacade:
    def test_init_reexports_api_one_to_one(self):
        for name in api.__all__:
            assert getattr(repro, name) is getattr(api, name), name

    def test_all_matches_api_plus_version(self):
        assert set(repro.__all__) == set(api.__all__) | {"__version__"}

    def test_facade_covers_every_concern(self):
        # One spot check per concern the facade documents.
        assert api.ClusterRunner is not None  # measurement
        assert api.build_model is not None  # model building
        assert api.InterferenceModel.predict is not None  # prediction
        assert api.SimulatedAnnealingPlacer is not None  # placement
        assert api.ConsolidationService is not None  # service
        assert api.recording is not None  # observability
        assert issubclass(api.ModelError, api.ReproError)  # errors

    def test_version_lives_in_init_not_api(self):
        assert isinstance(repro.__version__, str)
        assert "__version__" not in api.__all__


class TestLegacyShims:
    """The pre-1.1 top-level aliases are gone; no ``__getattr__`` hook."""

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'Nonsense'"):
            repro.Nonsense

    def test_removed_aliases_raise(self):
        for name in ("Cluster", "make_bubble", "MAX_PRESSURE"):
            assert not hasattr(repro, name), name
