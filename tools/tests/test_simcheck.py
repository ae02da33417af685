#!/usr/bin/env python3
"""Fixture tests for tools/simcheck (stdlib unittest; no pytest).

Each of the ten rules must fire on its bad fixture and stay silent on
the clean tree; the allowlist must suppress and --check-allowlist must
flag stale entries; the JSON report must carry the documented schema.
The directory-scoped rules see real scopes: their fixtures sit under
src/<dir>/ in each tree. Tests run the internal frontend so they pass in
environments without libclang; when clang.cindex IS importable, a
cross-frontend smoke test checks the clang path agrees on the fixtures.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SIMCHECK = REPO / "tools" / "simcheck" / "simcheck.py"
FIXTURES = HERE / "fixtures" / "simcheck"

sys.path.insert(0, str(SIMCHECK.parent))
from cxxlex import tokenize  # noqa: E402

ALL_RULES = (
    "det-unordered-iter", "det-pointer-key", "det-pointer-compare",
    "det-unseeded-rng", "det-ambient-entropy", "unit-raw-double",
    "unit-value-escape", "hot-alloc", "hot-dir-alloc", "lib-iostream",
)


def run_simcheck(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SIMCHECK), *argv],
        capture_output=True, text=True, cwd=REPO)


def bad_tree_args(frontend: str = "internal") -> list[str]:
    return ["--frontend", frontend,
            "--src", str(FIXTURES / "bad" / "src"),
            "--repo-root", str(FIXTURES / "bad"),
            "--allowlist", "/dev/null"]


class BadFixtureTest(unittest.TestCase):
    def test_every_rule_fires(self):
        r = run_simcheck(*bad_tree_args())
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        for rule in ALL_RULES:
            self.assertIn(f"[{rule}]", r.stdout,
                          f"rule {rule} did not fire:\n{r.stdout}")

    def test_expected_sites(self):
        r = run_simcheck(*bad_tree_args())
        expect = (
            ("det-unordered-iter", "det_unordered.cc"),
            ("det-pointer-key", "det_pointer_key.cc"),
            ("det-pointer-compare", "det_pointer_compare.cc"),
            ("det-unseeded-rng", "det_unseeded_rng.cc"),
            ("unit-raw-double", "unit_raw_double.hh"),
            ("unit-value-escape", "unit_value_escape.hh"),
            ("hot-alloc", "hot_alloc.cc"),
        )
        for rule, fname in expect:
            self.assertRegex(r.stdout, rf"{fname}:\d+: \[{rule}\]")

    def test_token_rule_sites(self):
        # Every site reported exactly once: rand, random_device (after
        # a "https://" literal on line 12), getenv, both wall clocks,
        # time(nullptr), the stream include, a unit-suffixed double in
        # a physics header, std::function and make_shared in src/sim/,
        # and push_back in a src/obs/ header.
        r = run_simcheck(*bad_tree_args())
        for site, rule in (
                ("src/core/bad_determinism.cc:12", "det-ambient-entropy"),
                ("src/core/bad_determinism.cc:14", "det-ambient-entropy"),
                ("src/core/bad_determinism.cc:15", "det-ambient-entropy"),
                ("src/core/bad_wall_clock.cc:11", "det-ambient-entropy"),
                ("src/core/bad_wall_clock.cc:12", "det-ambient-entropy"),
                ("src/core/bad_wall_clock.cc:13", "det-ambient-entropy"),
                ("src/core/bad_iostream.cc:2", "lib-iostream"),
                ("src/hw/bad_units.hh:7", "unit-raw-double"),
                ("src/sim/bad_hot_path.cc:11", "hot-dir-alloc"),
                ("src/sim/bad_hot_path.cc:16", "hot-dir-alloc"),
                ("src/obs/bad_counter.hh:11", "hot-dir-alloc")):
            self.assertEqual(r.stdout.count(f"{site}: [{rule}]"), 1,
                             f"{site} [{rule}]:\n{r.stdout}")

    def test_hot_dir_alloc_is_directory_scoped(self):
        # hot_alloc.cc grows containers outside src/sim|net|obs: only
        # the reachability rule may report it.
        r = run_simcheck(*bad_tree_args())
        self.assertNotRegex(r.stdout, r"hot_alloc\.cc:\d+: \[hot-dir-alloc\]")

    def test_hot_alloc_reaches_through_helper(self):
        # recordEvent allocates and is only reachable via runOne.
        r = run_simcheck(*bad_tree_args())
        self.assertRegex(
            r.stdout, r"hot_alloc\.cc:17: \[hot-alloc\]")

    def test_rule_filter(self):
        r = run_simcheck(*bad_tree_args(), "--rules", "det-unseeded-rng")
        self.assertIn("[det-unseeded-rng]", r.stdout)
        self.assertNotIn("[hot-alloc]", r.stdout)

    def test_unknown_rule_rejected(self):
        r = run_simcheck(*bad_tree_args(), "--rules", "no-such-rule")
        self.assertEqual(r.returncode, 2)


class CleanFixtureTest(unittest.TestCase):
    def test_clean_tree_is_clean(self):
        r = run_simcheck("--frontend", "internal",
                         "--src", str(FIXTURES / "clean" / "src"),
                         "--repo-root", str(FIXTURES / "clean"),
                         "--allowlist", "/dev/null")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("clean", r.stdout)


class TokenizerTest(unittest.TestCase):
    """The token rules see code only: comments are dropped and string
    literals stay opaque, with `//` and `/*` inside them as content."""

    @staticmethod
    def texts(src: str) -> list[str]:
        return [t.text for t in tokenize(src)]

    def test_slashes_inside_string_are_not_a_comment(self):
        toks = tokenize(
            'const char* d = "https://x.io"; std::random_device rd;')
        self.assertIn("random_device", [t.text for t in toks])
        self.assertIn(("str", '"https://x.io"'),
                      [(t.kind, t.text) for t in toks])

    def test_real_trailing_comment_is_dropped(self):
        self.assertEqual(self.texts("int x = 1; // rand() in prose"),
                         ["int", "x", "=", "1", ";"])

    def test_escaped_quote_does_not_end_string(self):
        texts = self.texts(r'auto s = "a\"b // c"; f();')
        self.assertIn(r'"a\"b // c"', texts)
        self.assertEqual(texts[-4:], ["f", "(", ")", ";"])

    def test_inline_block_comment_removed(self):
        self.assertEqual(self.texts("int y; /* steady_clock prose */ g();"),
                         ["int", "y", ";", "g", "(", ")", ";"])

    def test_multiline_block_comment(self):
        toks = tokenize("start /* opens\nrand() still inside\n"
                        "done */ h();")
        self.assertEqual([t.text for t in toks],
                         ["start", "h", "(", ")", ";"])
        self.assertEqual(toks[1].line, 3)

    def test_comment_openers_inside_string(self):
        self.assertEqual(self.texts('auto s = "/* not a comment"; k;'),
                         ["auto", "s", "=", '"/* not a comment"', ";",
                          "k", ";"])


class AllowlistTest(unittest.TestCase):
    def test_allowlist_suppresses(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("det-unseeded-rng:det_unseeded_rng.cc:mt19937\n")
            allow = f.name
        r = run_simcheck("--frontend", "internal",
                         "--src", str(FIXTURES / "bad" / "src"),
                         "--repo-root", str(FIXTURES / "bad"),
                         "--allowlist", allow)
        self.assertEqual(r.returncode, 1)  # other rules still fire
        self.assertNotIn("[det-unseeded-rng]", r.stdout)

    def test_stale_entry_detected(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("*:no_such_file.cc:no_such_line\n")
            allow = f.name
        r = run_simcheck("--frontend", "internal",
                         "--src", str(FIXTURES / "clean" / "src"),
                         "--repo-root", str(FIXTURES / "clean"),
                         "--allowlist", allow, "--check-allowlist")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("stale", r.stderr)
        self.assertIn("*:no_such_file.cc:no_such_line", r.stderr)

    def test_malformed_entry_rejected(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write("only-one-field\n")
            allow = f.name
        r = run_simcheck(*bad_tree_args()[:-2], "--allowlist", allow)
        self.assertEqual(r.returncode, 2)
        self.assertIn("malformed", r.stderr)

    def test_repo_src_clean_and_allowlist_fresh(self):
        r = run_simcheck("--frontend", "internal", "--check-allowlist")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


class JsonReportTest(unittest.TestCase):
    def test_schema(self):
        with tempfile.NamedTemporaryFile(suffix=".json",
                                         delete=False) as f:
            out = f.name
        run_simcheck(*bad_tree_args(), "--json", out)
        payload = json.loads(Path(out).read_text())
        self.assertEqual(payload["schema_version"], 1)
        self.assertEqual(payload["tool"], "simcheck")
        self.assertEqual(payload["frontend"], "internal")
        self.assertEqual(
            {r["id"] for r in payload["rules"]}, set(ALL_RULES))
        self.assertGreater(payload["summary"]["active"], 0)
        self.assertEqual(payload["summary"]["suppressed"], 0)
        for finding in payload["findings"]:
            for key in ("rule", "file", "line", "message",
                        "suppressed"):
                self.assertIn(key, finding)
            self.assertIn(finding["rule"], ALL_RULES)


class ClangFrontendSmokeTest(unittest.TestCase):
    """Runs only where python3-clang is installed (e.g. the CI job)."""

    def setUp(self):
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            self.skipTest("clang.cindex not installed")

    def test_clang_frontend_agrees_on_fixtures(self):
        r = run_simcheck(*bad_tree_args("clang"))
        if r.returncode == 2:
            self.skipTest(f"clang frontend unavailable: {r.stderr}")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        for rule in ALL_RULES:
            self.assertIn(f"[{rule}]", r.stdout,
                          f"rule {rule} did not fire under libclang:\n"
                          f"{r.stdout}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
