"""ServingConfig and the SessionTier handle.

The typed config surface's validation and its flow through the server
and app, and the :class:`SessionTier` lifecycle (a session is plain data
and weaves nothing).
"""

import pytest

from repro.baselines import museum_fixture
from repro.hypermedia.errors import NavigationError
from repro.navigation import (
    AudienceBundle,
    AudienceServer,
    BreadcrumbAspect,
    NavigationApp,
    ServingConfig,
    SessionTier,
)

VISITOR = [AudienceBundle("visitor", ("index", "guided-tour"))]


@pytest.fixture()
def fixture():
    return museum_fixture()


class TestServingConfig:
    def test_defaults_validate(self):
        config = ServingConfig()
        assert config.session_idle_timeout == 600.0
        assert config.cache_enabled is True

    @pytest.mark.parametrize(
        "changes",
        [
            {"session_idle_timeout": 0.0},
            {"session_idle_timeout": -1.0},
            {"max_sessions": 0},
            {"breadcrumb_limit": 0},
            {"lint": "loud"},
            {"cache_pages": 0},
        ],
    )
    def test_rejects_bad_values(self, changes):
        with pytest.raises(ValueError):
            ServingConfig(**changes)

    def test_none_idle_timeout_disables_eviction(self):
        assert ServingConfig(session_idle_timeout=None).session_idle_timeout is None

    def test_replace_revalidates(self):
        config = ServingConfig()
        assert config.replace(max_sessions=9).max_sessions == 9
        with pytest.raises(ValueError):
            config.replace(max_sessions=-1)

    def test_flows_through_server_and_app(self, fixture):
        config = ServingConfig(breadcrumb_limit=2, max_sessions=7)
        with AudienceServer(fixture, VISITOR, config=config) as server:
            assert server.config is config
            app = NavigationApp(server)
            # The app inherits the server's config when not given one.
            assert app.config is config
            assert app.config.max_sessions == 7
            app.close()


class TestSessionTier:
    def test_context_manager_unwinds_everything(self, fixture):
        with AudienceServer(fixture, VISITOR) as server:
            deployments = len(server.runtime.deployments)
            epoch = server.weave_epoch("visitor")
            with server.session_tier("visitor", "alice", limit=4) as tier:
                assert isinstance(tier, SessionTier)
                assert (tier.sid, tier.audience) == ("alice", "visitor")
                tier.trail.record("index.html", "Home")
                assert tier.snapshot().trail == (("index.html", "Home"),)
                # Nothing woven, nothing scoped, no epoch moved.
                assert len(server.runtime.deployments) == deployments
                assert len(server.scope("visitor")) == 1
                assert server.weave_epoch("visitor") == epoch
            assert len(tier.trail) == 0

    def test_close_is_idempotent_and_blocks_deploys(self, fixture):
        with AudienceServer(fixture, VISITOR) as server:
            tier = server.session_tier("visitor")
            tier.close()
            tier.close()
            with pytest.raises(NavigationError):
                tier.deploy(BreadcrumbAspect(limit=4))
            with pytest.raises(NavigationError):
                server.session_tier("stranger")
