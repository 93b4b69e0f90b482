"""Flow-analyzer tests: the seeded-bug fixture corpus (lock ordering,
guarded-by, leaks, counter drift, and dead kill switches), the
clean-program negative, the suppression/baseline machinery, and the
lint/flow single-parse regression."""

import ast
import textwrap
from pathlib import Path

from repro.analysis import flow
from repro.analysis.lint import lint_model, lint_paths
from repro.analysis.project import ProjectModel
from repro.observability import registry as registry_module

FIXTURES = Path(__file__).parent / "flow_fixtures"
ENGINE_REGISTRY = Path(registry_module.__file__)


def analyze(*names):
    _, findings = flow.analyze([FIXTURES / name for name in names])
    return findings


def triples(findings):
    return [(f.rule, f.symbol, f.key) for f in findings]


class TestLockDiscipline:
    def test_lock_ordering_cycle(self):
        findings = analyze("race_lock_order.py")
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "RACE002"
        assert finding.key == (
            "lock-order:race_lock_order.LOCK_A->"
            "race_lock_order.LOCK_B->race_lock_order.LOCK_A"
        )
        assert finding.symbol == "race_lock_order.take_ba"

    def test_guarded_by_violation(self):
        findings = analyze("race_guarded_pair.py")
        assert triples(findings) == [
            ("RACE002", "race_guarded_pair.Buffer.drop", "Buffer._rows"),
        ]
        assert "'Buffer._lock'" in findings[0].message


class TestLeaksAndDrift:
    def test_spillfile_leaks(self):
        findings = analyze("leak_spillfile.py")
        assert triples(findings) == [
            ("FLOW001", "leak_spillfile.spill_rows", "SpillFile:handle"),
            ("FLOW001", "leak_spillfile.spill_and_forget",
             "SpillFile:discarded"),
        ]
        assert "raises" in findings[0].message

    def test_counter_drift(self):
        _, findings = flow.analyze([FIXTURES / "drift"])
        assert sorted(triples(findings)) == [
            ("FLOW002", "emitters.bump_custom", "custom."),
            ("FLOW002", "emitters.bump_undeclared", "scan.rows_out"),
            ("FLOW002", "emitters.gauge_undeclared", "bogus.gauge"),
            ("FLOW002", "registry", "cache.unused_counter"),
        ]
        gauge = next(f for f in findings if f.key == "bogus.gauge")
        assert gauge.message.startswith("gauge 'bogus.gauge'")


def snippet_keys(tmp_path, body, registry=ENGINE_REGISTRY):
    """FLOW002 keys reported inside ``body`` (the statements of one
    function) when it is checked against ``registry``."""
    path = tmp_path / "snippet.py"
    path.write_text(
        "def emit(stats, name, hit):\n"
        + textwrap.indent(textwrap.dedent(body), "    "),
        encoding="utf-8",
    )
    _, findings = flow.analyze([registry, path])
    return [f.key for f in findings
            if f.rule == "FLOW002" and f.symbol == "snippet.emit"]


class TestCounterNames:
    """FLOW002 is the one static check on counter and gauge names: each
    call shape, checked against the engine's own registry."""

    def test_undeclared_literal_flagged(self, tmp_path):
        assert snippet_keys(tmp_path, 'stats.bump("totally.bogus")\n') == [
            "totally.bogus",
        ]

    def test_declared_literal_clean(self, tmp_path):
        assert snippet_keys(tmp_path, 'stats.bump("verify.plans")\n') == []

    def test_declared_prefix_fstring_clean(self, tmp_path):
        assert snippet_keys(
            tmp_path, 'stats.bump(f"optimizer.rule.{name}")\n') == []

    def test_undeclared_prefix_fstring_flagged(self, tmp_path):
        assert snippet_keys(tmp_path, 'stats.bump(f"custom.{name}")\n') == [
            "custom.",
        ]

    def test_dynamic_name_left_to_runtime(self, tmp_path):
        assert snippet_keys(tmp_path, "stats.bump(name)\n") == []

    def test_gauge_names_checked(self, tmp_path):
        assert snippet_keys(tmp_path, """\
            gauge_max("executor.peak_materialized_rows", 5)
            stats.gauge_max("bogus.gauge", 1)
            stats.gauge_max("verify.plans", 1)
        """) == ["bogus.gauge", "verify.plans"]  # a counter is no gauge

    def test_conditional_name_checks_both_arms(self, tmp_path):
        assert snippet_keys(
            tmp_path,
            'stats.bump("verify.plans" if hit else "verify.plan")\n',
        ) == ["verify.plan"]

    def test_ambient_helper_bare_and_aliased(self, tmp_path):
        assert snippet_keys(tmp_path, """\
            count("bogus.bare")
            _count("bogus.aliased")
            count("rtree.searches", 3)
        """) == ["bogus.bare", "bogus.aliased"]

    def test_method_named_count_is_not_the_helper(self, tmp_path):
        # a method that wraps its own prefix
        assert snippet_keys(tmp_path, 'stats._count("dp_plans")\n') == []

    def test_frozenset_registry_is_read(self, tmp_path):
        registry = tmp_path / "names.py"
        registry.write_text(
            'DECLARED_COUNTERS = frozenset({"a.declared"})\n',
            encoding="utf-8",
        )
        assert snippet_keys(tmp_path, """\
            stats.bump("a.declared")
            stats.bump("a.undeclared")
        """, registry=registry) == ["a.undeclared"]

    def test_no_registry_no_findings(self, tmp_path):
        path = tmp_path / "lonely.py"
        path.write_text('def emit(stats):\n    stats.bump("any.name")\n',
                        encoding="utf-8")
        _, findings = flow.analyze([path])
        assert findings == []

    def test_dead_set_flag(self):
        assert triples(analyze("dead_set_flag.py")) == [
            ("FLOW003", "dead_set_flag.Session._execute_set",
             "debug_joins"),
        ]

    def test_dead_env_toggle(self):
        assert triples(analyze("dead_env_toggle.py")) == [
            ("FLOW003", "dead_env_toggle._legacy_spill_dir",
             "REPRO_SPILL_DIR"),
        ]


class TestNegatives:
    def test_clean_program_has_zero_findings(self):
        assert analyze("clean_program.py") == []

    def test_whole_corpus_has_no_unexpected_rules(self):
        """Analyzing every fixture at once raises exactly the four
        catalogued rules — no cross-fixture interference artifacts."""
        _, findings = flow.analyze([FIXTURES])
        assert {f.rule for f in findings} == {
            "RACE002", "FLOW001", "FLOW002", "FLOW003",
        }
        assert not [f for f in findings
                    if "clean_program" in f.symbol]


def guarded_pair_with(tmp_path, comment):
    """Findings on ``race_guarded_pair.py`` with ``comment`` on the bare
    write RACE002 blames."""
    source = (FIXTURES / "race_guarded_pair.py").read_text(encoding="utf-8")
    bare = "    def drop(self):\n        self._rows = []\n"
    assert bare in source
    path = tmp_path / "race_guarded_pair.py"
    path.write_text(source.replace(bare, f"{bare[:-1]}  {comment}\n"),
                    encoding="utf-8")
    _, findings = flow.analyze([path])
    return findings


class TestSuppressionAndBaseline:
    def test_inline_suppression(self, tmp_path):
        assert guarded_pair_with(
            tmp_path, "# flow: ignore[RACE002]") == []

    def test_suppression_is_rule_scoped(self, tmp_path):
        findings = guarded_pair_with(tmp_path, "# flow: ignore[FLOW001]")
        assert [f.rule for f in findings] == ["RACE002"]

    def test_baseline_round_trip(self, tmp_path):
        findings = analyze("race_guarded_pair.py")
        baseline_path = tmp_path / "baseline.txt"
        baseline_path.write_text(
            flow.format_baseline(findings), encoding="utf-8")
        baseline = flow.load_baseline(baseline_path)
        new, accepted, stale = flow.split_by_baseline(findings, baseline)
        assert new == [] and len(accepted) == 1 and stale == []

    def test_baseline_preserves_justifications(self, tmp_path):
        findings = analyze("race_guarded_pair.py")
        previous = {findings[0].fingerprint: "drop runs before sharing"}
        text = flow.format_baseline(findings, previous)
        assert "drop runs before sharing" in text
        baseline_path = tmp_path / "baseline.txt"
        baseline_path.write_text(text, encoding="utf-8")
        assert flow.load_baseline(baseline_path)[
            findings[0].fingerprint] == "drop runs before sharing"

    def test_stale_entries_detected(self):
        findings = analyze("race_guarded_pair.py")
        baseline = {"RACE002 gone.symbol gone.key": "obsolete"}
        new, accepted, stale = flow.split_by_baseline(findings, baseline)
        assert len(new) == 1 and accepted == []
        assert stale == ["RACE002 gone.symbol gone.key"]


class TestSharedParsing:
    def test_lint_and_flow_parse_each_file_once(self, monkeypatch):
        counted = []
        real_parse = ast.parse

        def counting_parse(source, *args, **kwargs):
            counted.append(kwargs.get("filename"))
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        model = ProjectModel.parse([FIXTURES])
        parses_after_load = len(counted)
        assert parses_after_load == len(model.modules) > 0
        lint_model(model)
        flow.analyze([FIXTURES], model=model)
        assert len(counted) == parses_after_load

    def test_lint_model_matches_per_file_lint(self):
        via_model = lint_paths([str(FIXTURES)])
        from repro.analysis.lint import lint_file
        from repro.analysis.project import iter_python_files
        per_file = []
        for path in iter_python_files([str(FIXTURES)]):
            per_file.extend(lint_file(path))
        per_file.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        assert via_model == per_file

    def test_syntax_error_survives_model_path(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n", encoding="utf-8")
        violations = lint_paths([str(path)])
        assert [v.code for v in violations] == ["ANL000"]
        _, findings = flow.analyze([path])
        assert findings == []
