"""Tests for ``repro.analysis`` (the ``repro lint`` static analyzers)
and the :mod:`repro.knobs` runtime registry they enforce.

Each analyzer is exercised against a tiny seeded-violation fixture tree
(one per finding code), plus negatives for the patterns the lints must
*allow*.  The repository itself is the final fixture: the suite asserts
the real tree is lint-clean and that the knob registry covers every
``REPRO_*`` name a plain text grep of ``src/`` discovers.
"""

import json
import re
import textwrap
from pathlib import Path

import pytest

from repro import knobs
from repro.analysis import (
    ANALYSIS_CODES,
    ANALYZERS,
    Baseline,
    Finding,
    Project,
    run_lint,
)
from repro.analysis import knob_registry
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

# -- fixture tree -------------------------------------------------------------

#: A minimal project that every analyzer passes with zero findings.
#: Violation tests override individual files.
CLEAN = {
    "src/pkg/__init__.py": "",
    "src/pkg/knobs.py": """
        import os

        class KnobSpec:
            def __init__(self, name, type, default, cache_policy,
                         reason="", description=""):
                self.name = name
                self.cache_policy = cache_policy

        KNOBS = (
            KnobSpec(
                name="REPRO_DEMO",
                type="bool",
                default="0",
                cache_policy="salted",
                description="demo switch",
            ),
            KnobSpec(
                name="REPRO_AUX",
                type="int",
                default="3",
                cache_policy="exempt",
                reason="does not change simulated results",
                description="aux tuning",
            ),
        )
        REGISTRY = {spec.name: spec for spec in KNOBS}

        def raw(name):
            return os.environ.get(name, "")

        def enabled(name):
            return raw(name) == "1"

        def get_int(name):
            return int(raw(name) or 0)

        def salted_knobs():
            return tuple(
                s.name for s in KNOBS if s.cache_policy == "salted"
            )

        def fingerprint():
            return tuple(os.environ.get(n, "") for n in salted_knobs())
    """,
    "src/pkg/cache.py": """
        from pkg import knobs

        def cache_key(payload):
            return (payload, knobs.fingerprint())
    """,
    "src/pkg/faults.py": """
        SITES = ("demo.site",)

        def decide(site, token=None):
            return None

        def maybe_fail(site, token=None):
            return None
    """,
    "src/pkg/app.py": """
        from pkg import faults, knobs

        CODES = {
            "K901": "demo diagnostic",
        }

        def run():
            if knobs.enabled("REPRO_DEMO"):
                faults.maybe_fail("demo.site")
            return knobs.get_int("REPRO_AUX")
    """,
    "tests/test_robustness.py": """
        def test_demo_site_recovery():
            assert "demo.site"

        def test_k901_fires():
            assert "K901"
    """,
    "docs/codes.md": """
        # Codes

        * K901 — demo diagnostic.
    """,
}


def seed(tmp_path, overrides=None):
    """Write the clean fixture (plus *overrides*) under *tmp_path*."""
    files = dict(CLEAN)
    files.update(overrides or {})
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return tmp_path


def lint_codes(root):
    report = run_lint(root)
    return {(f.code, f.subject) for f in report.findings}


# -- repro.knobs runtime registry ---------------------------------------------


class TestKnobsRuntime:
    def test_spec_rejects_undeclared(self):
        with pytest.raises(KeyError):
            knobs.spec("REPRO_NOT_A_KNOB")

    def test_raw_returns_declared_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_DEEP_PERIOD", raising=False)
        assert knobs.raw("REPRO_CHECK_DEEP_PERIOD") == "64"
        monkeypatch.setenv("REPRO_CHECK_DEEP_PERIOD", "7")
        assert knobs.raw("REPRO_CHECK_DEEP_PERIOD") == "7"

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("1", True),
            ("on", True),
            ("yes", True),
            ("TRUE", True),
            ("0", False),
            ("off", False),
            ("false", False),
            ("no", False),
            ("", False),
            ("  0  ", False),
        ],
    )
    def test_enabled_value_grammar(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert knobs.enabled("REPRO_SANITIZE") is expected

    def test_get_int_falls_back_on_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_DEEP_PERIOD", "not-a-number")
        assert knobs.get_int("REPRO_CHECK_DEEP_PERIOD") == 64

    def test_get_float_falls_back_on_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_CLAIM_TTL", "soon")
        assert knobs.get_float("REPRO_CACHE_CLAIM_TTL") == 120.0

    def test_salted_knobs_policy(self):
        assert knobs.salted_knobs() == (
            "REPRO_SANITIZE",
            "REPRO_CHECK_DEEP_PERIOD",
            "REPRO_TELEMETRY",
            "REPRO_KERNEL",
        )

    def test_fingerprint_tracks_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        before = knobs.fingerprint()
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        after = knobs.fingerprint()
        assert before != after
        assert after[knobs.salted_knobs().index("REPRO_TELEMETRY")] == "1"

    def test_every_exempt_knob_has_a_reason(self):
        for spec in knobs.KNOBS:
            if spec.cache_policy == "exempt":
                assert spec.reason, spec.name

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            knobs.KnobSpec(
                name="NOT_PREFIXED",
                type="bool",
                default="0",
                cache_policy="salted",
            )
        with pytest.raises(ValueError):
            knobs.KnobSpec(
                name="REPRO_BAD",
                type="bool",
                default="0",
                cache_policy="exempt",  # exempt without a reason
            )


class TestRegistryCoverage:
    def test_registry_covers_every_grep_discovered_knob(self):
        """Any ``REPRO_*`` token in ``src/`` names a declared knob (the
        analysis package is excluded: its docstrings use placeholder
        knob names when describing the rules)."""
        token = re.compile(r"REPRO_[A-Z0-9_]+")
        discovered = set()
        for path in (REPO_ROOT / "src").rglob("*.py"):
            if "analysis" in path.parts:
                continue
            discovered.update(token.findall(path.read_text()))
        assert discovered, "grep found no knobs at all?"
        assert discovered <= set(knobs.REGISTRY)
        assert len(knobs.REGISTRY) == 15

    def test_analyzer_sees_every_knob(self):
        project = Project(REPO_ROOT)
        reads = {r.name for r in knob_registry.collect_reads(project)}
        declared = {d.name for d in knob_registry.parse_registry(project)}
        assert reads == declared == set(knobs.REGISTRY)


# -- knob-registry analyzer (A010-A013) ---------------------------------------


class TestKnobRegistryAnalyzer:
    def test_clean_fixture_has_no_findings(self, tmp_path):
        root = seed(tmp_path)
        report = run_lint(root)
        assert report.findings == [] and report.warnings == []

    def test_undeclared_knob_read_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    from pkg import knobs

                    def hidden():
                        return knobs.raw("REPRO_OTHER")
                """
            },
        )
        assert ("A010", "REPRO_OTHER") in lint_codes(root)

    def test_unsalted_cache_key_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/cache.py": """
                    _KEY_KNOBS = ("REPRO_AUX",)

                    def cache_key(payload):
                        return (payload, _KEY_KNOBS)
                """
            },
        )
        codes = lint_codes(root)
        assert ("A011", "REPRO_DEMO") in codes  # salted, not in the key
        assert ("A011", "REPRO_AUX") not in codes  # exempt with reason

    def test_explicit_salted_list_accepted(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/cache.py": """
                    _KEY_KNOBS = ("REPRO_DEMO",)

                    def cache_key(payload):
                        return (payload, _KEY_KNOBS)
                """
            },
        )
        assert lint_codes(root) == set()

    def test_stale_declaration_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/app.py": """
                    from pkg import faults, knobs

                    CODES = {
                        "K901": "demo diagnostic",
                    }

                    def run():
                        faults.maybe_fail("demo.site")
                        return knobs.get_int("REPRO_AUX")
                """
            },
        )
        # REPRO_DEMO is still declared and cache-salted, but unread.
        assert ("A012", "REPRO_DEMO") in lint_codes(root)

    def test_registry_bypass_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    import os

                    def sneaky():
                        return os.environ.get("REPRO_DEMO", "0")
                """
            },
        )
        codes = lint_codes(root)
        assert ("A013", "REPRO_DEMO") in codes
        assert ("A010", "REPRO_DEMO") not in codes  # declared, just bypassed

    def test_getenv_and_subscript_reads_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    import os
                    from os import environ

                    def sneaky():
                        return os.getenv("REPRO_DEMO"), environ["REPRO_AUX"]
                """
            },
        )
        codes = lint_codes(root)
        assert ("A013", "REPRO_DEMO") in codes
        assert ("A013", "REPRO_AUX") in codes

    def test_environment_writes_allowed(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    import os

                    def arm_child():
                        os.environ["REPRO_DEMO"] = "1"
                """
            },
        )
        assert lint_codes(root) == set()


# -- concurrency analyzer (A020-A022) -----------------------------------------


class TestConcurrencyAnalyzer:
    def test_shared_queue_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/chan.py": """
                    import multiprocessing

                    def build():
                        return multiprocessing.Queue()
                """
            },
        )
        assert ("A020", "Queue") in lint_codes(root)

    def test_context_queue_flagged_simplequeue_allowed(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/chan.py": """
                    import multiprocessing

                    def build():
                        ctx = multiprocessing.get_context("spawn")
                        good = ctx.SimpleQueue()
                        bad = ctx.Queue()
                        return good, bad
                """
            },
        )
        codes = lint_codes(root)
        assert ("A020", "Queue") in codes
        assert not any(subject == "SimpleQueue" for _, subject in codes)

    def test_blocking_call_in_async_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/srv.py": """
                    import time

                    async def handle(request):
                        time.sleep(0.1)
                        return request
                """
            },
        )
        assert ("A021", "time.sleep") in lint_codes(root)

    def test_open_in_async_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/srv.py": """
                    async def handle(path):
                        with open(path) as fh:
                            return fh.read()
                """
            },
        )
        assert ("A021", "open") in lint_codes(root)

    def test_executor_handoff_allowed(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/srv.py": """
                    import asyncio
                    import time

                    async def handle(request):
                        def work():
                            time.sleep(0.1)
                            return request
                        return await asyncio.to_thread(work)
                """
            },
        )
        assert lint_codes(root) == set()

    def test_inconsistent_lock_order_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/locks.py": """
                    import threading

                    a_lock = threading.Lock()
                    b_lock = threading.Lock()

                    def forward():
                        with a_lock:
                            with b_lock:
                                return 1

                    def backward():
                        with b_lock:
                            with a_lock:
                                return 2
                """
            },
        )
        assert ("A022", "a_lock<->b_lock") in lint_codes(root)

    def test_consistent_lock_order_allowed(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/locks.py": """
                    import threading

                    a_lock = threading.Lock()
                    b_lock = threading.Lock()

                    def forward():
                        with a_lock:
                            with b_lock:
                                return 1

                    def also_forward():
                        with a_lock, b_lock:
                            return 2
                """
            },
        )
        assert lint_codes(root) == set()


# -- service-errors analyzer (A023) -------------------------------------------


class TestServiceErrorsAnalyzer:
    def test_swallowed_connection_error_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/service/proxy.py": """
                    def forward(sock):
                        try:
                            return sock.recv(1)
                        except ConnectionError:
                            pass
                """
            },
        )
        assert ("A023", "ConnectionError") in lint_codes(root)

    def test_tuple_catch_reports_network_members_only(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/service/proxy.py": """
                    def forward(sock):
                        try:
                            return sock.recv(1)
                        except (ValueError, OSError, BrokenPipeError):
                            return None
                """
            },
        )
        assert ("A023", "BrokenPipeError,OSError") in lint_codes(root)

    def test_reraise_is_exempt(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/service/proxy.py": """
                    def forward(sock):
                        try:
                            return sock.recv(1)
                        except ConnectionResetError:
                            raise RuntimeError("replica gone")
                """
            },
        )
        assert lint_codes(root) == set()

    def test_record_call_is_exempt(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/service/proxy.py": """
                    def forward(replica, sock):
                        try:
                            return sock.recv(1)
                        except OSError as exc:
                            replica.record_failure(str(exc))
                            return None
                """
            },
        )
        assert lint_codes(root) == set()

    def test_counter_call_is_exempt(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/service/proxy.py": """
                    def forward(registry, sock):
                        try:
                            return sock.recv(1)
                        except ConnectionRefusedError:
                            registry.inc("balance.upstream_errors")
                            return None
                """
            },
        )
        assert lint_codes(root) == set()

    def test_timeout_and_non_network_errors_ignored(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/service/proxy.py": """
                    def forward(sock):
                        try:
                            return sock.recv(1)
                        except TimeoutError:
                            pass

                    def parse(raw):
                        try:
                            return int(raw)
                        except ValueError:
                            return None
                """
            },
        )
        assert lint_codes(root) == set()

    def test_same_swallow_outside_service_package_ignored(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/engine.py": """
                    def forward(sock):
                        try:
                            return sock.recv(1)
                        except ConnectionError:
                            pass
                """
            },
        )
        assert lint_codes(root) == set()


# -- fault-site analyzer (A030-A032) ------------------------------------------


class TestFaultSiteAnalyzer:
    def test_undeclared_site_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    from pkg import faults

                    def risky():
                        faults.maybe_fail("other.site")
                """
            },
        )
        assert ("A030", "other.site") in lint_codes(root)

    def test_unfired_declared_site_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/faults.py": """
                    SITES = ("demo.site", "dead.site")

                    def decide(site, token=None):
                        return None

                    def maybe_fail(site, token=None):
                        return None
                """
            },
        )
        assert ("A031", "dead.site") in lint_codes(root)

    def test_chaos_uncovered_site_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/faults.py": """
                    SITES = ("demo.site", "quiet.site")

                    def decide(site, token=None):
                        return None

                    def maybe_fail(site, token=None):
                        return None
                """,
                "src/pkg/extra.py": """
                    from pkg import faults

                    def risky():
                        faults.decide("quiet.site")
                """,
            },
        )
        codes = lint_codes(root)
        assert ("A032", "quiet.site") in codes
        assert ("A031", "quiet.site") not in codes  # it *is* fired

    def test_real_sites_match_declaration(self):
        from repro import faults
        from repro.analysis import fault_sites

        project = Project(REPO_ROOT)
        sites, _ = fault_sites.declared_sites(project)
        assert tuple(sites) == faults.SITES
        used = {u.site for u in fault_sites.collect_uses(project)}
        assert used == set(faults.SITES)


# -- error-code analyzer (A040-A043) ------------------------------------------


class TestErrorCodeAnalyzer:
    def test_duplicate_code_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/more.py": """
                    MORE_CODES = {
                        "K901": "the same code again",
                    }
                """
            },
        )
        assert ("A040", "K901") in lint_codes(root)

    def test_undocumented_code_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/app.py": """
                    from pkg import faults, knobs

                    CODES = {
                        "K901": "demo diagnostic",
                        "K902": "documented nowhere",
                    }

                    def run():
                        if knobs.enabled("REPRO_DEMO"):
                            faults.maybe_fail("demo.site")
                        return knobs.get_int("REPRO_AUX")
                """,
                "tests/test_robustness.py": """
                    def test_demo_site_recovery():
                        assert "demo.site"

                    def test_codes_fire():
                        assert "K901" and "K902"
                """,
            },
        )
        codes = lint_codes(root)
        assert ("A041", "K902") in codes
        assert ("A042", "K902") not in codes  # the test references it

    def test_untested_code_flagged(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/app.py": """
                    from pkg import faults, knobs

                    CODES = {
                        "K901": "demo diagnostic",
                        "K903": "tested nowhere",
                    }

                    def run():
                        if knobs.enabled("REPRO_DEMO"):
                            faults.maybe_fail("demo.site")
                        return knobs.get_int("REPRO_AUX")
                """,
                "docs/codes.md": """
                    # Codes

                    * K901 — demo diagnostic.
                    * K903 — tested nowhere.
                """,
            },
        )
        codes = lint_codes(root)
        assert ("A042", "K903") in codes
        assert ("A041", "K903") not in codes  # the docs cover it

    def test_stale_doc_reference_is_warning(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "docs/codes.md": """
                    # Codes

                    * K901 — demo diagnostic.
                    * T909 — removed long ago.
                """
            },
        )
        report = run_lint(root)
        assert report.findings == []  # warnings never fail the run
        assert [(f.code, f.subject) for f in report.warnings] == [
            ("A043", "T909")
        ]


# -- findings, baseline, report mechanics -------------------------------------


class TestFindingMechanics:
    def test_fingerprint_excludes_line(self):
        a = Finding("A010", "src/x.py", 10, "REPRO_Z", "m")
        b = Finding("A010", "src/x.py", 99, "REPRO_Z", "other")
        assert a.fingerprint == b.fingerprint

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Finding("A999", "src/x.py", 1, "s", "m")

    def test_every_analyzer_code_is_catalogued(self):
        assert set(ANALYSIS_CODES) == {
            "A010", "A011", "A012", "A013",
            "A020", "A021", "A022", "A023",
            "A030", "A031", "A032",
            "A040", "A041", "A042", "A043",
        }
        assert set(ANALYZERS) == {
            "knob-registry", "concurrency", "service-errors",
            "fault-sites", "error-codes",
        }

    def test_baseline_round_trip(self, tmp_path):
        findings = [Finding("A010", "src/x.py", 1, "REPRO_Z", "m")]
        path = tmp_path / "baseline.json"
        Baseline().write(path, findings)
        loaded = Baseline.load(path)
        assert loaded.suppresses(findings[0])

    def test_baseline_version_check(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "suppressions": []}')
        with pytest.raises(ValueError):
            Baseline.load(path)

    def test_baseline_suppression_moves_finding(self, tmp_path):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    from pkg import knobs

                    def hidden():
                        return knobs.raw("REPRO_OTHER")
                """
            },
        )
        dirty = run_lint(root)
        assert not dirty.ok
        baseline = Baseline.from_findings(dirty.findings)
        clean = run_lint(root, baseline=baseline)
        assert clean.ok
        assert [f.code for f in clean.suppressed] == ["A010"]


# -- CLI ----------------------------------------------------------------------


class TestLintCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = seed(tmp_path)
        assert main(["lint", "--root", str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tmp_path, capsys):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    from pkg import knobs

                    def hidden():
                        return knobs.raw("REPRO_OTHER")
                """
            },
        )
        assert main(["lint", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "[A010] REPRO_OTHER" in out

    def test_json_output(self, tmp_path, capsys):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    from pkg import knobs

                    def hidden():
                        return knobs.raw("REPRO_OTHER")
                """
            },
        )
        assert main(["lint", "--root", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert [f["code"] for f in payload["findings"]] == ["A010"]
        assert payload["files_scanned"] > 0

    def test_write_baseline_round_trip(self, tmp_path, capsys):
        root = seed(
            tmp_path,
            {
                "src/pkg/extra.py": """
                    from pkg import knobs

                    def hidden():
                        return knobs.raw("REPRO_OTHER")
                """
            },
        )
        assert main(["lint", "--root", str(root)]) == 1
        assert main(["lint", "--root", str(root), "--write-baseline"]) == 0
        assert (root / "lint_baseline.json").is_file()
        assert main(["lint", "--root", str(root)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_bad_baseline_exits_two(self, tmp_path, capsys):
        root = seed(tmp_path)
        (root / "lint_baseline.json").write_text("{\"version\": 99}")
        assert main(["lint", "--root", str(root)]) == 2


# -- the repository itself ----------------------------------------------------


class TestRepositoryClean:
    def test_repository_is_lint_clean(self):
        baseline = Baseline.load(REPO_ROOT / "lint_baseline.json")
        report = run_lint(REPO_ROOT, baseline=baseline)
        assert report.ok, "\n" + report.render()
        assert report.warnings == [], "\n" + report.render()
