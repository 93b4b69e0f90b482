"""Unit tests for ``python -m repro.analysis.lint --fix`` (ANL007
unused-import deletion): exact spans, valid output, idempotency, and
the CLI wiring."""

import ast

import pytest

from repro.analysis.lint import lint_paths
from repro.analysis.lint.fixes import fix_unused_imports


def fix(source, filename="m.py"):
    fixed, count = fix_unused_imports(source, filename)
    ast.parse(fixed)  # the result must always stay valid Python
    again, n_again = fix_unused_imports(fixed, filename)
    assert (again, n_again) == (fixed, 0), "fixer is not idempotent"
    return fixed, count


class TestWholeStatement:
    def test_drops_line(self):
        assert fix("import os\nx = 1\n") == ("x = 1\n", 1)

    def test_drops_indented_statement(self):
        source = "def f():\n    import os\n    return 1\n"
        assert fix(source) == ("def f():\n    return 1\n", 1)

    def test_multi_name_import_fully_dead(self):
        assert fix("import os, sys\nx = 1\n") == ("x = 1\n", 2)

    def test_multiple_statements(self):
        assert fix("import os\nimport sys\nx = 1\n") == ("x = 1\n", 2)

    def test_dotted_import_with_asname(self):
        source = "import os.path as p\nimport sys\nsys\n"
        assert fix(source) == ("import sys\nsys\n", 1)


class TestPartialStatement:
    def test_middle_alias(self):
        source = "from a import b, c, d\nb; d\n"
        assert fix(source) == ("from a import b, d\nb; d\n", 1)

    def test_tail_run_stays_valid(self):
        # b and c both dead at the end of the list: the separator comma
        # after `a`'s survivor must go too, or the result is invalid.
        source = "from a import b, c, d\nb\n"
        assert fix(source) == ("from a import b\nb\n", 2)

    def test_head_run(self):
        source = "from a import b, c, d\nd\n"
        assert fix(source) == ("from a import d\nd\n", 2)

    def test_import_statement_partial(self):
        assert fix("import os, sys\nsys\n") == ("import sys\nsys\n", 1)

    def test_parenthesized_last_alias(self):
        source = "from a import (\n    b,\n    c,\n)\nb\n"
        assert fix(source) == ("from a import (\n    b,\n)\nb\n", 1)

    def test_parenthesized_middle_alias(self):
        source = "from a import (\n    b,\n    c,\n    d,\n)\nb; d\n"
        expected = "from a import (\n    b,\n    d,\n)\nb; d\n"
        assert fix(source) == (expected, 1)


class TestExemptions:
    def test_init_py_untouched(self):
        assert fix("import os\n", filename="__init__.py") == \
            ("import os\n", 0)

    def test_reexport_idiom_untouched(self):
        assert fix("from a import b as b\n") == \
            ("from a import b as b\n", 0)

    def test_underscore_binding_untouched(self):
        assert fix("import _thread\n") == ("import _thread\n", 0)

    def test_future_import_untouched(self):
        source = "from __future__ import annotations\n"
        assert fix(source) == (source, 0)

    def test_used_import_untouched(self):
        assert fix("import os\nos.path\n") == ("import os\nos.path\n", 0)

    def test_string_annotation_counts_as_use(self):
        source = "from a import Thing\nx: \"Thing\" = None\n"
        assert fix(source) == (source, 0)

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            fix_unused_imports("def f(:\n", "m.py")


class TestCli:
    def test_fix_flag_rewrites_and_exits_clean(self, tmp_path):
        from repro.analysis.lint.__main__ import main
        path = tmp_path / "victim.py"
        path.write_text("import os\nimport sys\nsys.exit\n",
                        encoding="utf-8")
        assert lint_paths([str(path)]) != []
        assert main(["--fix", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == \
            "import sys\nsys.exit\n"
        assert lint_paths([str(path)]) == []

    def test_fix_skips_unparseable_files(self, tmp_path):
        from repro.analysis.lint.__main__ import main
        path = tmp_path / "broken.py"
        source = "def f(:\n"
        path.write_text(source, encoding="utf-8")
        assert main(["--fix", str(path)]) == 1  # still reports ANL000
        assert path.read_text(encoding="utf-8") == source
