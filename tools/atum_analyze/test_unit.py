"""Unit tests for the libclang-free parts of atum_analyze.

These run on every host (ctest registers them unconditionally): the
suppression grammar, compile_commands loading and sanitization, the
fixture-expectation parser, template drift, the graceful-skip paths, and
the rule algorithms over hand-built models. Only the libclang extraction
itself needs clang — that is what the fixture self-test covers in CI.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import engine  # noqa: E402
import rules as rules_mod  # noqa: E402
import selftest  # noqa: E402
import suppress  # noqa: E402

# The CLI lives in __main__.py; import it by path so running this file as a
# script does not alias it to ourselves.
import importlib.util  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "atum_analyze_cli",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "__main__.py"),
)
cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli)


def write(path, content):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


class SuppressionTest(unittest.TestCase):
    def test_same_line_above_and_rule_match(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "x.cpp")
            write(
                path,
                "int a;\n"
                "for (auto& kv : m) {}  // lint: unordered-iter-ok(order-free sum)\n"
                "// lint: hot-path-alloc-ok(amortized arena growth)\n"
                "auto* p = new int(1);\n"
                "auto* q = new int(2);\n",
            )
            s = suppress.Suppressions()
            self.assertTrue(s.allows(path, 2, "unordered-iter"))
            self.assertFalse(s.allows(path, 2, "hot-path-alloc"))
            self.assertTrue(s.allows(path, 4, "hot-path-alloc"))  # line above
            self.assertFalse(s.allows(path, 5, "hot-path-alloc"))  # two above
            self.assertFalse(s.allows(os.path.join(tmp, "missing.cpp"), 1, "x"))


class CompileCommandsTest(unittest.TestCase):
    def test_missing_file_raises_with_hint(self):
        with self.assertRaises(FileNotFoundError) as ctx:
            engine.load_compile_commands("/nonexistent/compile_commands.json")
        self.assertIn("configure with cmake", str(ctx.exception))

    def test_invalid_json_raises(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "compile_commands.json")
            write(path, "not json")
            with self.assertRaises(ValueError):
                engine.load_compile_commands(path)

    def test_command_and_arguments_forms(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "compile_commands.json")
            write(
                path,
                json.dumps(
                    [
                        {
                            "directory": tmp,
                            "file": "a.cpp",
                            "command": "g++ -std=c++20 -Iinc -Wall -c a.cpp -o a.o",
                        },
                        {
                            "directory": tmp,
                            "file": os.path.join(tmp, "b.cpp"),
                            "arguments": ["g++", "-DFOO=1", "-c", "b.cpp", "-o", "b.o"],
                        },
                    ]
                ),
            )
            commands = engine.load_compile_commands(path)
            self.assertEqual(len(commands), 2)
            src_a, args_a, _ = commands[0]
            self.assertEqual(src_a, os.path.join(tmp, "a.cpp"))
            self.assertIn("-std=c++20", args_a)
            self.assertIn("-Iinc", args_a)
            self.assertNotIn("-Wall", args_a)  # warnings dropped
            self.assertNotIn("-c", args_a)
            self.assertNotIn("-o", args_a)
            self.assertNotIn("a.o", args_a)
            self.assertNotIn("a.cpp", args_a)  # source re-added by parse()
            _, args_b, _ = commands[1]
            self.assertEqual(args_b, ["-DFOO=1"])


class FixtureCorpusTest(unittest.TestCase):
    def test_expectation_parsing(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.cpp")
            write(
                path,
                "int a;\n"
                "head_ = p.data();  // expect: payload-escape\n"
                "last = r.u64();  // expect: handler-serde-safety\n",
            )
            self.assertEqual(
                selftest.parse_expectations(path),
                {2: "payload-escape", 3: "handler-serde-safety"},
            )

    def test_corpus_size_contract(self):
        self.assertGreaterEqual(len(selftest.fixture_files()), selftest.MIN_FIXTURES)

    def test_every_rule_has_flag_suppressed_and_clean_fixtures(self):
        prefixes = {
            "payload-escape": "pe_",
            "handler-serde-safety": "hs_",
            "hot-path-alloc": "hp_",
            "unordered-iter": "ui_",
        }
        files = selftest.fixture_files()
        for rule, prefix in prefixes.items():
            family = [f for f in files if f.startswith(prefix)]
            flagged = [
                f
                for f in family
                if selftest.parse_expectations(os.path.join(selftest.FIXTURES_DIR, f))
            ]
            self.assertTrue(flagged, "no expected-finding fixture for %s" % rule)
            self.assertIn("%ssuppressed.cpp" % prefix, family)
            self.assertTrue(
                any(f.endswith("_clean.cpp") for f in family),
                "no clean fixture for %s" % rule,
            )
            for f in flagged:
                expectations = selftest.parse_expectations(
                    os.path.join(selftest.FIXTURES_DIR, f)
                )
                self.assertTrue(
                    all(r == rule for r in expectations.values()),
                    "%s declares expectations for a foreign rule" % f,
                )

    def test_template_matches_fixture_listing(self):
        with open(selftest.TEMPLATE_PATH, encoding="utf-8") as fh:
            on_disk = fh.read()
        self.assertEqual(
            on_disk,
            selftest.template_json(),
            "fixtures/compile_commands.json.in is stale — regenerate it from "
            "selftest.template_json() after adding or removing fixtures",
        )


class GracefulSkipTest(unittest.TestCase):
    def setUp(self):
        os.environ[engine.FORCE_NO_LIBCLANG_ENV] = "1"

    def tearDown(self):
        os.environ.pop(engine.FORCE_NO_LIBCLANG_ENV, None)

    def test_find_libclang_honors_force_off(self):
        cindex, reason = engine.find_libclang()
        self.assertIsNone(cindex)
        self.assertIn(engine.FORCE_NO_LIBCLANG_ENV, reason)

    def test_probe_exits_skip(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--probe"])
        self.assertEqual(code, cli.EXIT_SKIP)
        self.assertIn(cli.SKIP_MARKER, out.getvalue())

    def test_analysis_run_skips_before_touching_compile_commands(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["src", "--compile-commands", "/nonexistent.json"])
        self.assertEqual(code, cli.EXIT_SKIP)
        self.assertIn(cli.SKIP_MARKER, out.getvalue())

    def test_list_rules_never_needs_libclang(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--list-rules"])
        self.assertEqual(code, cli.EXIT_CLEAN)
        self.assertEqual(out.getvalue().split(), list(rules_mod.ALL_RULES))


class CliErrorTest(unittest.TestCase):
    def test_unknown_rule_is_a_usage_error(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["--rules", "no-such-rule"])
        self.assertEqual(code, cli.EXIT_ERROR)
        self.assertIn("unknown rule", err.getvalue())


def make_model():
    return engine.Model()


def add_fn(model, usr, qualname, serde_exempt=False):
    node = engine.FunctionNode(usr, qualname, "/repo/%s.cpp" % usr, 1, 1, serde_exempt)
    model.add_function(node)
    return node


class RuleAlgorithmTest(unittest.TestCase):
    """rules.py over hand-built models — the graph logic, minus libclang."""

    def no_suppressions(self):
        s = suppress.Suppressions()
        s._by_file["/repo/h.cpp"] = {}
        return s

    def test_serde_guarded_edge_contains_the_subtree(self):
        model = make_model()
        handler = add_fn(model, "h", "app::Rx::on_message")
        helper = add_fn(model, "p", "app::parse")
        helper.decode_uses.append(engine.Fact("/repo/p.cpp", 10, 3, "ByteReader::u64()", False))
        # Guarded call edge: helper's unguarded reads are contained.
        handler.calls.append(engine.CallSite("parse", "p", "/repo/h.cpp", 5, 3, True))
        findings, _ = rules_mod.run_rules(
            model, suppress.Suppressions(), [rules_mod.RULE_HANDLER_SERDE]
        )
        self.assertEqual(findings, [])

    def test_serde_unguarded_transitive_path_flags(self):
        model = make_model()
        handler = add_fn(model, "h", "app::Rx::on_message")
        helper = add_fn(model, "p", "app::parse")
        helper.decode_uses.append(engine.Fact("/repo/p.cpp", 10, 3, "ByteReader::u64()", False))
        handler.calls.append(engine.CallSite("parse", "p", "/repo/h.cpp", 5, 3, False))
        findings, _ = rules_mod.run_rules(
            model, suppress.Suppressions(), [rules_mod.RULE_HANDLER_SERDE]
        )
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].rule, rules_mod.RULE_HANDLER_SERDE)
        self.assertEqual(findings[0].line, 10)

    def test_serde_unreachable_decode_is_clean(self):
        model = make_model()
        helper = add_fn(model, "p", "app::parse_trusted")
        helper.decode_uses.append(engine.Fact("/repo/p.cpp", 10, 3, "ByteReader::u64()", False))
        findings, _ = rules_mod.run_rules(
            model, suppress.Suppressions(), [rules_mod.RULE_HANDLER_SERDE]
        )
        self.assertEqual(findings, [])

    def test_hot_path_walks_unique_name_fallback(self):
        model = make_model()
        entry = add_fn(model, "s", "fx::sim::Simulator::step")
        helper = add_fn(model, "m", "fx::mix")
        helper.allocs.append(engine.Fact("/repo/m.cpp", 7, 3, "naked `new` heap allocation"))
        # Unresolved call (usr=None) resolves through the unique simple name.
        entry.calls.append(engine.CallSite("mix", None, "/repo/s.cpp", 4, 3, False))
        findings, _ = rules_mod.run_rules(
            model, suppress.Suppressions(), [rules_mod.RULE_HOT_PATH_ALLOC]
        )
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 7)

    def test_hot_path_cold_alloc_is_clean(self):
        model = make_model()
        helper = add_fn(model, "m", "fx::bootstrap")
        helper.allocs.append(engine.Fact("/repo/m.cpp", 7, 3, "naked `new` heap allocation"))
        findings, _ = rules_mod.run_rules(
            model, suppress.Suppressions(), [rules_mod.RULE_HOT_PATH_ALLOC]
        )
        self.assertEqual(findings, [])

    def test_suppression_filters_and_counts(self):
        model = make_model()
        model.range_iters.append(engine.Fact("/tmp_fixture.cpp", 2, 3, "std::unordered_map<int, int>"))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.cpp")
            write(path, "// lint: unordered-iter-ok(order-free)\nfor (auto& kv : m) {}\n")
            model.range_iters[0].file = path
            model.range_iters[0].line = 2
            findings, suppressed = rules_mod.run_rules(
                model, suppress.Suppressions(), [rules_mod.RULE_UNORDERED_ITER]
            )
        self.assertEqual(findings, [])
        self.assertEqual(suppressed, 1)

    def test_hash_order_covers_unordered_and_flat_tables(self):
        for spelling in (
            "std::unordered_map<int, int>",
            "const std::unordered_set<unsigned long>",
            "atum::FlatTable<unsigned long, atum::net::SimNetwork::Node, "
            "atum::FlatHash<unsigned long>>",
            "const atum::FlatTable<atum::BroadcastId, void, atum::FlatHash<atum::BroadcastId>>",
        ):
            self.assertTrue(engine.iterates_in_hash_order(spelling), spelling)
        for spelling in ("std::map<int, int>", "std::vector<unsigned long>", "atum::FlatHash<int>"):
            self.assertFalse(engine.iterates_in_hash_order(spelling), spelling)

    def test_findings_render_location_rule_and_hint(self):
        finding = rules_mod.Finding(
            rules_mod.RULE_PAYLOAD_ESCAPE, "/repo/x.cpp", 3, 9, "stores a view"
        )
        text = finding.render()
        self.assertIn("/repo/x.cpp:3:9", text)
        self.assertIn("[payload-escape]", text)
        self.assertIn("hint:", text)


if __name__ == "__main__":
    unittest.main(verbosity=2)
