"""Session-wide test setup.

The persistent result cache defaults to ``~/.cache/repro``.  Every test
session points ``REPRO_CACHE_DIR`` at a temporary directory instead, so
a test run neither reads results a previous run left behind nor leaves
its own in the user's cache.  Tests that need their own cache directory
still set it themselves (``monkeypatch.setenv``), which overrides this
one for that test.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session", autouse=True)
def _session_cache_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
        )
        yield
