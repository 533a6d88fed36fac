"""Documentation-code consistency guards.

The README promises a bench per artefact and an example per scenario;
these tests keep the promises true as the repository evolves.
"""

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def readme() -> str:
    return (REPO / "README.md").read_text()


class TestReadme:
    def test_mentions_every_benchmark_file(self, readme):
        for path in sorted((REPO / "benchmarks").glob("test_*.py")):
            if path.name in (
                "test_simulator_performance.py",
                "test_sweep_performance.py",
            ):
                continue  # meta-benchmarks, not paper artefacts
            assert path.name in readme, f"README does not mention {path.name}"

    def test_mentions_every_example(self, readme):
        for path in sorted((REPO / "examples").glob("*.py")):
            assert path.name in readme, f"README does not mention {path.name}"

    def test_install_instructions_present(self, readme):
        assert "pip install -e ." in readme
        assert "pytest benchmarks/ --benchmark-only" in readme


class TestDesignDoc:
    def test_every_paper_figure_has_an_index_row(self):
        design = (REPO / "DESIGN.md").read_text()
        for figure in ("Figure 1", "Figure 2", "Figure 4", "Figure 5",
                       "Figure 6", "Figure 7", "Figure 8", "Figure 9",
                       "Figure 10", "Figure 11", "Figure 12", "Table 1"):
            assert figure in design, f"DESIGN.md misses {figure}"

    def test_paper_identity_check_present(self):
        design = (REPO / "DESIGN.md").read_text()
        assert "10.48786/edbt.2024.59" in design


class TestExperimentsDoc:
    def test_records_known_divergences(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "Known divergence" in text

    def test_covers_observations(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        assert "O1-O6" in text


class TestDocsDirectory:
    def test_expected_documents_exist(self):
        for name in ("architecture.md", "calibration.md", "reproducing.md",
                     "workloads.md"):
            assert (REPO / "docs" / name).exists(), name

    def test_calibration_doc_matches_code_notes(self):
        from repro.perfmodel.calibration import CALIBRATION_NOTES

        text = (REPO / "docs" / "calibration.md").read_text()
        # Spot-check headline constants appear in the prose.
        assert "16 GFLOP/s" in text
        assert "420 GFLOP/s" in text
        assert CALIBRATION_NOTES["cpu.flops_per_core"][0] == 16.0e9


class TestLintingDoc:
    def test_rule_table_is_current(self):
        """The rule table in docs/linting.md matches
        repro.analysis.rule_table() byte for byte."""
        from repro.analysis import rule_table

        text = (REPO / "docs" / "linting.md").read_text()
        start = "<!-- rule-table:start -->"
        end = "<!-- rule-table:end -->"
        assert start in text and end in text
        embedded = text.split(start, 1)[1].split(end, 1)[0].strip()
        assert embedded == rule_table(), (
            "docs/linting.md rule table drifted from repro.analysis.RULES — "
            "regenerate it with repro.analysis.rule_table()"
        )

    def test_every_workflow_rule_has_a_prose_section(self):
        from repro.analysis import RULES

        text = (REPO / "docs" / "linting.md").read_text()
        for code in sorted(code for code in RULES if code.startswith("WF")):
            assert f"#### {code}" in text, (
                f"docs/linting.md has no section for {code}"
            )


class TestApiReference:
    def test_api_doc_is_current(self):
        """docs/api.md matches the current public surface."""
        import sys

        sys.path.insert(0, str(REPO / "scripts"))
        try:
            import build_api_docs
        finally:
            sys.path.pop(0)
        assert (REPO / "docs" / "api.md").read_text() == build_api_docs.build()
