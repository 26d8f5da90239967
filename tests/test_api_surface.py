"""The public API surface stays coherent: every top-level export is real,
documented in docs/API.md, and listed in ``__all__`` exactly once;
``run_stress`` takes a :class:`StressConfig` and rejects loose keyword
arguments."""

from pathlib import Path

import pytest

import repro
import repro.service as service

API_MD = Path(__file__).resolve().parent.parent / "docs" / "API.md"


class TestTopLevelSurface:
    def test_all_entries_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_all_has_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_all_matches_documented_surface(self):
        text = API_MD.read_text(encoding="utf-8")
        missing = [
            name
            for name in repro.__all__
            if name != "__version__" and name not in text
        ]
        assert not missing, (
            f"repro.__all__ names not documented in docs/API.md: {missing}"
        )

    def test_cluster_surface_reexported(self):
        assert repro.connect_cluster is service.connect_cluster
        assert repro.ClusterConfig is service.ClusterConfig
        assert repro.ShardMap is service.ShardMap
        assert repro.StressConfig is service.StressConfig


class TestServiceSurface:
    def test_all_entries_exist(self):
        for name in service.__all__:
            assert hasattr(service, name)

    def test_all_sorted(self):
        assert list(service.__all__) == sorted(service.__all__)

    def test_configs_are_frozen_keyword_only(self):
        for cls in (repro.StressConfig, repro.ClusterConfig):
            cfg = cls()
            with pytest.raises(AttributeError):
                cfg.seed = 1
            with pytest.raises(TypeError):
                cls(1)  # positional args rejected: keyword-only


class TestLegacyKwargsShim:
    """The loose-keyword shim is retired: ``run_stress`` takes one
    ``StressConfig`` (plus the live sinks) and nothing else."""

    def test_bare_kwargs_rejected(self):
        with pytest.raises(TypeError):
            repro.run_stress(clients=2)

    def test_config_path_emits_no_deprecation(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            repro.run_stress(repro.StressConfig(clients=1, txns_per_client=2))
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_config_plus_kwargs_rejected(self):
        with pytest.raises(TypeError):
            repro.run_stress(repro.StressConfig(), clients=2)

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(TypeError):
            repro.run_stress(not_a_knob=1)
