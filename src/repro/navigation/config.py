"""One typed configuration surface for the whole serving stack.

:class:`ServingConfig` gathers every knob that used to travel as loose
keyword arguments across :class:`~repro.navigation.serving.
AudienceServer`, :class:`~repro.navigation.http.NavigationApp` and
``repro.tools serve`` — session policy, lint mode and the page-cache
tier — into a single frozen dataclass handed to each layer.  Each layer
reads the fields it owns:

==========================  ================================================
field                       consumed by
==========================  ================================================
``lint``                    ``AudienceServer`` (every weave this server adds)
``cache_enabled``           ``AudienceServer`` (page-cache tier on/off)
``cache_pages``             ``AudienceServer`` (per-audience LRU bound)
``session_idle_timeout``    ``NavigationApp`` (idle eviction)
``max_sessions``            ``NavigationApp`` (live-session cap)
``breadcrumb_limit``        ``NavigationApp`` (per-session trail bound)
==========================  ================================================
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

#: Valid ``lint`` modes (``None`` disables the static weave-plan gate).
LINT_MODES = (None, "warn", "error")


@dataclass(frozen=True)
class ServingConfig:
    """Every serving-stack policy knob, validated once at construction.

    ``cache_enabled`` switches the page-cache tier (``serve --no-cache``
    clears it).  ``session_idle_timeout=None`` disables idle
    eviction entirely.  ``max_sessions`` bounds memory: a live session is
    plain data (its trail and bookkeeping, well under 1 KiB at the
    default trail length), so the default cap costs tens of MiB at most.
    """

    session_idle_timeout: float | None = 600.0
    max_sessions: int = 65536
    breadcrumb_limit: int = 8
    lint: str | None = None
    cache_enabled: bool = True
    cache_pages: int = 256

    def __post_init__(self) -> None:
        if self.session_idle_timeout is not None and self.session_idle_timeout <= 0:
            raise ValueError("session_idle_timeout must be positive (or None)")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.breadcrumb_limit < 1:
            raise ValueError("breadcrumb_limit must be >= 1")
        if self.lint not in LINT_MODES:
            raise ValueError(
                f"lint must be one of {LINT_MODES!r}, not {self.lint!r}"
            )
        if self.cache_pages < 1:
            raise ValueError("cache_pages must be >= 1")

    def replace(self, **changes: object) -> "ServingConfig":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)
