"""Every checker: a firing and a non-firing fixture."""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"

ALL_CODES = ("REP001", "REP002", "REP003", "REP005", "REP006")

#: Exact finding counts the bad fixtures are built to produce; a checker
#: that stops seeing one of its planted violations fails here.
EXPECTED_BAD = {
    "REP001": 2,  # unlocked increment + closure read under an outer with
    "REP002": 4,  # time.sleep, from-imported sleep, subprocess.run, open
    "REP003": 4,  # bare arange, builtin sum, set-literal for, set() comp
    "REP005": 3,  # bare except, swallowed Exception, tuple BaseException
    "REP006": 3,  # undocumented op, missing doc file, non-literal value
}


def _lint(name: str, code: str):
    return analyze_paths([FIXTURES / name], select=[code])


class TestFiring:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_bad_fixture_fires(self, code):
        report = _lint(f"{code.lower()}_bad.py", code)
        assert report.parse_failures == []
        assert len(report.findings) == EXPECTED_BAD[code]
        assert all(f.code == code for f in report.findings)

    def test_findings_carry_location_and_advice(self):
        report = _lint("rep001_bad.py", "REP001")
        finding = report.findings[0]
        assert finding.file.endswith("rep001_bad.py")
        assert finding.line > 0 and finding.col > 0
        assert "_lock" in finding.message  # names the lock to take


class TestNotFiring:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_good_fixture_clean(self, code):
        report = _lint(f"{code.lower()}_good.py", code)
        assert report.parse_failures == []
        assert report.findings == []

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_good_fixture_clean_under_all_checkers(self, code):
        report = analyze_paths([FIXTURES / f"{code.lower()}_good.py"])
        assert report.findings == []

    def test_inline_suppression_counts_not_fails(self):
        report = _lint("rep005_good.py", "REP005")
        assert report.findings == []
        assert report.suppressed == 1  # the justified best-effort close


class TestCheckerDetails:
    def test_rep001_closure_not_excused_by_outer_with(self):
        # The second planted violation reads the attribute from a nested
        # closure while the *outer* function holds the lock — the checker
        # must still flag it (the closure runs later, lock long released).
        report = _lint("rep001_bad.py", "REP001")
        source = (FIXTURES / "rep001_bad.py").read_text().splitlines()
        flagged = {source[f.line - 1].strip() for f in report.findings}
        assert "return self._hits  # closure: outer `with` would not save it" in flagged

    def test_rep003_inert_without_marker(self, tmp_path):
        unmarked = tmp_path / "unmarked.py"
        unmarked.write_text(
            "import numpy as np\nindices = np.arange(10)\n"
        )
        report = analyze_paths([unmarked], select=["REP003"])
        assert report.findings == []

    def test_rep006_names_the_missing_op(self):
        report = _lint("rep006_bad.py", "REP006")
        assert any("frobnicate" in f.message for f in report.findings)

    def test_gate_tripwire_fixture_really_trips(self):
        report = analyze_paths([FIXTURES / "gate_tripwire.py"])
        assert report.exit_code == 1
        assert any(f.code == "REP005" for f in report.findings)
