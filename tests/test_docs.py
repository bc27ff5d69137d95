"""Documentation correctness: the README quickstart must actually run,
and every documented experiment id must exist."""

from __future__ import annotations

import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self) -> str:
        return (REPO_ROOT / "README.md").read_text()

    def test_quickstart_snippet_executes(self, readme):
        """Extract the first python code block and run it (shrunk)."""
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        assert blocks, "README lost its quickstart code block"
        code = blocks[0]
        # Shrink the workload so the doc test stays fast.
        code = code.replace("generate(10,", "generate(2,")
        namespace: dict = {}
        exec(compile(code, "<readme-quickstart>", "exec"), namespace)  # noqa: S102

    def test_examples_listed_exist(self, readme):
        for match in re.findall(r"`examples/(\w+\.py)`", readme):
            assert (REPO_ROOT / "examples" / match).exists(), match

    def test_referenced_docs_exist(self):
        for name in ("DESIGN.md", "EXPERIMENTS.md", "README.md"):
            assert (REPO_ROOT / name).exists()


class TestCliDocAgreement:
    def test_every_listed_experiment_runs_through_dispatch(self):
        from repro.cli import _EXPERIMENTS, build_parser

        parser = build_parser()
        for name in _EXPERIMENTS:
            args = parser.parse_args(["experiment", name])
            assert args.name == name

    def test_design_doc_maps_every_bench_file(self):
        """DESIGN.md's experiment index references existing bench files."""
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for match in re.findall(r"benchmarks/(bench_\w+\.py)", design):
            assert (REPO_ROOT / "benchmarks" / match).exists(), match

    def test_every_bench_file_writes_a_known_result(self):
        """Each bench module calls write_result (self-describing output)."""
        for bench in (REPO_ROOT / "benchmarks").glob("bench_*.py"):
            text = bench.read_text()
            assert "write_result(" in text, bench.name

    def test_documented_config_fields_exist(self):
        """Every `ClusterConfig.<name>` in the prose names a real field,
        so a deleted flag cannot live on in the docs."""
        import dataclasses

        from repro.platform.config import ClusterConfig

        fields = {field.name for field in dataclasses.fields(ClusterConfig)}
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            text = (REPO_ROOT / doc).read_text()
            for name in re.findall(r"`ClusterConfig\.(\w+)", text):
                assert name in fields, f"{doc}: ClusterConfig.{name}"
