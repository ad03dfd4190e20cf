"""The analysis core: contexts, annotations, the parse cache, the registry."""

import ast

import pytest

from repro.analysis import (
    AnalysisError,
    CHECKER_REGISTRY,
    FileContext,
    Finding,
    Report,
    analyze_paths,
    clear_parse_cache,
    iter_python_files,
    load_file,
    parse_cache_info,
)
from repro.analysis.core import resolve_checkers


def _ctx(source: str) -> FileContext:
    from pathlib import Path

    return FileContext(Path("mem.py"), "mem.py", source)


class TestFileContext:
    def test_annotation_extraction(self):
        ctx = _ctx("x = 1  # guarded-by: _lock\n")
        assert ctx.annotation(1, "guarded-by") == "_lock"
        assert ctx.annotation(1, "holds-lock") is None

    def test_marker_requires_leading_tag(self):
        ctx = _ctx("# bit-exact: datapath module\ny = 2\n")
        assert ctx.has_marker("bit-exact")
        trailing = _ctx("# this module is NOT bit-exact\n")
        assert not trailing.has_marker("bit-exact")

    def test_suppressed_codes_comma_split(self):
        ctx = _ctx("x = 1  # repro: ignore[REP001, REP003] reviewed\n")
        assert ctx.suppressed_codes(1) == frozenset({"REP001", "REP003"})
        assert ctx.suppressed_codes(2) == frozenset()

    def test_parent_and_ancestors(self):
        ctx = _ctx("def f():\n    return 1\n")
        ret = ctx.tree.body[0].body[0]
        assert isinstance(ctx.parent(ret), ast.FunctionDef)
        chain = list(ctx.ancestors(ret))
        assert isinstance(chain[-1], ast.Module)


class TestParseCache:
    def test_unchanged_file_parses_once(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        clear_parse_cache()
        first = load_file(target)
        second = load_file(target)
        assert first is second
        info = parse_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_modified_file_reparses(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("x = 1\n")
        clear_parse_cache()
        load_file(target)
        target.write_text("x = 1  # changed\n")  # size differs: new signature
        refreshed = load_file(target)
        assert refreshed.comment(1)
        assert parse_cache_info()["misses"] == 2


class TestPathExpansion:
    def test_skips_cache_dirs_and_dedups(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path, tmp_path / "pkg" / "mod.py"])
        assert [f.name for f in files] == ["mod.py"]
        assert "__pycache__" not in files[0].parts

    def test_missing_path_is_an_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such file"):
            iter_python_files([tmp_path / "ghost.py"])


class TestRegistry:
    def test_all_codes_registered(self):
        import repro.analysis.checkers  # noqa: F401  registration side effect

        for code in ("REP001", "REP002", "REP003", "REP005", "REP006"):
            assert CHECKER_REGISTRY.get(code).code == code

    def test_select_by_lowercase_name_alias(self):
        import repro.analysis.checkers  # noqa: F401

        chosen = resolve_checkers(select=["lock-discipline"])
        assert [c.code for c in chosen] == ["REP001"]

    def test_ignore_drops_checker(self):
        import repro.analysis.checkers  # noqa: F401

        codes = {c.code for c in resolve_checkers(ignore=["REP003"])}
        assert "REP003" not in codes and "REP001" in codes

    def test_unknown_code_raises(self):
        with pytest.raises(AnalysisError):
            resolve_checkers(select=["REP999"])


class TestReport:
    def test_exit_codes(self):
        assert Report().exit_code == 0
        finding = Finding("f.py", 1, 1, "REP005", "m")
        assert Report(findings=[finding]).exit_code == 1

    def test_parse_failure_wins(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        report = analyze_paths([broken])
        assert report.exit_code == 2
        assert report.parse_failures[0].file.endswith("broken.py")

    def test_findings_sorted_and_serializable(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    pass\nexcept:\n    pass\n"
            "try:\n    pass\nexcept Exception:\n    pass\n"
        )
        report = analyze_paths([bad], select=["REP005"])
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
        payload = report.to_dict()
        assert payload["summary"]["findings"] == 2
        assert payload["findings"][0]["code"] == "REP005"
