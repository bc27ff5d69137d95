"""Documentation correctness: the README quickstart must actually run,
and every documented experiment id must exist."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _setting_leaves(config, prefix: str = ""):
    """Dotted names of ``config``'s fields, nested config objects expanded."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            yield from _setting_leaves(value, f"{prefix}{field.name}.")
        else:
            yield f"{prefix}{field.name}"


def _config_objects():
    """``ClusterConfig()``, every config object nested in it, and
    ``MedesPolicyConfig()``."""
    from repro.core.policy import MedesPolicyConfig
    from repro.platform.config import ClusterConfig

    pending = [ClusterConfig(), MedesPolicyConfig()]
    while pending:
        config = pending.pop()
        yield config
        for field in dataclasses.fields(config):
            value = getattr(config, field.name)
            if dataclasses.is_dataclass(value):
                pending.append(value)


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
        """Every `<Config>.<name>` in the prose, for ``ClusterConfig``,
        the config classes nested in it and ``MedesPolicyConfig``, names
        a real field or member, so a deleted setting cannot live on in
        the docs."""
        members = {
            type(config).__name__: {field.name for field in dataclasses.fields(config)}
            | set(dir(config))
            for config in _config_objects()
        }
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            text = (REPO_ROOT / doc).read_text()
            for owner, name in re.findall(r"`(\w+Config|FaultSchedule)\.(\w+)", text):
                if owner in members:
                    assert name in members[owner], f"{doc}: {owner}.{name}"

    def test_config_table_has_one_row_per_field(self):
        """DESIGN.md's ``ClusterConfig`` table names each field in
        exactly one row, and nothing else."""

        from repro.platform.config import ClusterConfig

        text = (REPO_ROOT / "DESIGN.md").read_text()
        section = text.split("### `ClusterConfig` fields", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE)
        fields = [field.name for field in dataclasses.fields(ClusterConfig)]
        assert sorted(rows) == sorted(fields)


#: CHANGES.md entries after this line say what changed, what moved and
#: what was left, in at most :data:`CHANGES_ENTRY_BYTES` bytes each.
CHANGES_CAP_MARKER = "<!-- Each entry below: at most 1,200 bytes. -->"
CHANGES_ENTRY_BYTES = 1200


class TestChangesLog:
    def test_new_entries_stay_short(self):
        text = (REPO_ROOT / "CHANGES.md").read_text()
        assert CHANGES_CAP_MARKER in text
        capped = text.split(CHANGES_CAP_MARKER, 1)[1]
        entries = [line for line in capped.splitlines() if line.startswith("- ")]
        assert entries, "no entry under the cap marker"
        for entry in entries:
            size = len(entry.encode())
            assert size <= CHANGES_ENTRY_BYTES, f"{entry[:40]}... is {size} bytes"


#: Top-level defs (and methods of top-level classes) of 8+ lines in
#: ``src/`` that nothing else in ``src/`` names, each with who calls it.
#: "debt" entries are reached only by tests and wait to get a shipping
#: caller, move to ``tests/oracles/`` or be deleted (ROADMAP item 1(c)).
UNREFERENCED_ALLOWED = {
    "repro.core.basemgr:BaseSandboxManager.retire_unreferenced": "tracer binds it",
    "repro.core.registry:FingerprintRegistry.choose_base_page": "tracer binds it; benches call it",
    "repro.memory.synth:build_region": "tracer binds it",
    "repro.platform.metrics:RunMetrics.mttr_ms": "bench: bench_fault_recovery",
    "repro.platform.platform:Platform.cluster_snapshot": "example: examples/failure_injection.py",
    "repro.storage.store:TieredCheckpointStore.fetch_cost_ms": "tracer binds it",
    "repro.tenancy.attack:run_attack": "bench: bench_tenant_isolation",
    "repro.workload.azure:ClusterTraceGenerator": "bench: bench_scalability and the ledger",
    "repro.workload.functionbench:FunctionBenchSuite.subset": "benches and examples",
    "repro.workload.trace:Trace.with_tenants": "bench: bench_tenant_isolation and the ledger",
}


#: Leaves of ``ClusterConfig()`` (nested configs expanded) and of
#: ``MedesPolicyConfig()`` that nothing in ``src/``, ``benchmarks/`` or
#: ``examples/`` passes by keyword, each with why it stays a setting.
#: A leaf nobody sets becomes a constant instead; the list may shrink,
#: never grow.
SETTINGS_ALLOWED = {
    "storage.remote_dram_mb": "capacity: tests shrink it to force tier overflow",
    "storage.ssd_capacity_mb": "capacity: tests shrink it to force tier overflow",
    "templates.hot_window_ms": "the hot-replica guard's window; tests shrink it to drop replicas",
    "faults.schedule.shard_outages": "fault-schedule entry: an input, like the trace",
    "faults.schedule.link_degradations": "fault-schedule entry: an input, like the trace",
    "faults.schedule.link_partitions": "fault-schedule entry: an input, like the trace",
    "MedesPolicyConfig.per_function_alpha": "per-function latency bounds (paper §5.3)",
}


class TestEverySettingHasASetter:
    """A setting stays only if something that ships sets it: every leaf
    is passed by keyword in ``src/``, ``benchmarks/`` or ``examples/``,
    or is listed in :data:`SETTINGS_ALLOWED` with its reason."""

    def test_every_leaf_is_set_or_allowed(self):
        from repro.core.policy import MedesPolicyConfig
        from repro.platform.config import ClusterConfig

        keywords = {
            node.arg
            for top in ("src", "benchmarks", "examples")
            for path in (REPO_ROOT / top).rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.keyword)
        }
        leaves = [
            *_setting_leaves(ClusterConfig()),
            *_setting_leaves(MedesPolicyConfig(), "MedesPolicyConfig."),
        ]
        unset = {leaf for leaf in leaves if leaf.rpartition(".")[2] not in keywords}
        unlisted = sorted(unset - SETTINGS_ALLOWED.keys())
        assert not unlisted, f"only tests set these; make them constants: {unlisted}"
        stale = SETTINGS_ALLOWED.keys() - unset
        assert not stale, f"set now or gone; drop from the allow-list: {sorted(stale)}"


#: ``RunMetrics`` fields that nothing in ``src/``, ``benchmarks/`` or
#: ``examples/`` reads, each with why it stays; empty, and it may shrink,
#: never grow.
METRICS_ALLOWED: dict[str, str] = {}


def _attribute_reads(tree: ast.AST) -> set[str]:
    """Names read as ``<x>.<name>``: an attribute in Load context that is
    not the receiver of ``.append`` or ``.append_row`` (a write to the
    list or timeline it names).  An assignment target is in Store
    context, so ``<x>.<name> += 1`` is no read either."""
    receivers = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("append", "append_row")
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in receivers
    }


class TestEveryMetricHasAReader:
    """A ``RunMetrics`` field ships with its reader: every field is read
    in ``src/``, ``benchmarks/`` or ``examples/``, or is listed in
    :data:`METRICS_ALLOWED` with its reason.  A field only tests read is
    run history nothing uses, filled on every run."""

    def test_every_field_is_read_or_allowed(self):
        from repro.platform.metrics import RunMetrics

        reads = {
            name
            for top in ("src", "benchmarks", "examples")
            for path in (REPO_ROOT / top).rglob("*.py")
            for name in _attribute_reads(ast.parse(path.read_text()))
        }
        unread = {field.name for field in dataclasses.fields(RunMetrics)} - reads
        unlisted = sorted(unread - METRICS_ALLOWED.keys())
        assert not unlisted, f"only tests read these; delete them and what fills them: {unlisted}"
        stale = METRICS_ALLOWED.keys() - unread
        assert not stale, f"read now or gone; drop from the allow-list: {sorted(stale)}"


class TestNoUnreferencedCode:
    """Code in ``src/`` that only tests reach drifts from the code that
    replaced it; the allow-list above may shrink, never grow."""

    @staticmethod
    def unreferenced() -> set[str]:
        src = REPO_ROOT / "src"
        trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
        names: set[str] = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
        found = set()
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for path, tree in trees.items():
            module = ".".join(path.relative_to(src).with_suffix("").parts)
            for node in tree.body:
                if not isinstance(node, defs):
                    continue
                members = [(node.name, node)]
                if isinstance(node, ast.ClassDef):
                    members += [
                        (f"{node.name}.{sub.name}", sub)
                        for sub in node.body
                        if isinstance(sub, defs)
                    ]
                for qualname, member in members:
                    dunder = member.name.startswith("__") and member.name.endswith("__")
                    long = member.end_lineno - member.lineno + 1 >= 8
                    if long and not dunder and member.name not in names:
                        found.add(f"{module}:{qualname}")
        return found

    def test_nothing_new_is_unreferenced(self):
        found = self.unreferenced()
        new = found - UNREFERENCED_ALLOWED.keys()
        assert not new, f"only tests reach these: {sorted(new)}"
        stale = UNREFERENCED_ALLOWED.keys() - found
        assert not stale, f"referenced or gone now; drop from the allow-list: {sorted(stale)}"


def _reads_a_config(node) -> bool:
    """``config.<field>`` or ``<anything>.config.<field>``."""
    value = node.value
    if isinstance(value, ast.Name):
        return value.id == "config"
    return isinstance(value, ast.Attribute) and value.attr == "config"


class TestNoDeadConfigField:
    """Every ``ClusterConfig`` field is read through a config object
    (``config.<field>`` or ``<x>.config.<field>``) somewhere in ``src/``
    outside ``config.py``, so a knob nothing reads fails here instead of
    riding along on another object's attribute of the same name."""

    def test_every_field_is_read(self):

        from repro.platform.config import ClusterConfig

        src = REPO_ROOT / "src"
        config = src / "repro" / "platform" / "config.py"
        read = {
            node.attr
            for path in src.rglob("*.py")
            if path != config
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and _reads_a_config(node)
        }
        fields = [field.name for field in dataclasses.fields(ClusterConfig)]
        assert [name for name in fields if name not in read] == []


class TestNoProcessGlobalIds:
    """Ids belong to a run: the controller numbers its sandboxes and each
    checkpoint store its checkpoints, so no output depends on what else
    ran in the process."""

    def test_no_module_level_counter(self):

        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            for node in ast.parse(path.read_text()).body:
                value = getattr(node, "value", None)
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(value, ast.Call):
                    func = ast.unparse(value.func)
                    assert func not in ("itertools.count", "count"), (
                        f"{path.relative_to(REPO_ROOT)}:{node.lineno} binds {func}()"
                    )

    def test_old_counters_and_their_resets_are_gone(self):
        # Whole words, so a test named after checkpoint ids is no match;
        # written as groups, so this file is none either.
        old = re.compile(r"\b(_(sandbox|checkpoint)_ids|(sandbox|checkpoint)_module)\b")
        ledger = REPO_ROOT / "benchmarks" / "ledger"
        for top in ("src", "tests", "benchmarks"):
            for path in sorted((REPO_ROOT / top).rglob("*.py")):
                if ledger not in path.parents:
                    match = old.search(path.read_text())
                    assert match is None, f"{path.relative_to(REPO_ROOT)}: {match[0]}"


def _string_annotation_names(tree: ast.AST) -> set[str]:
    """Names inside quoted annotations (``node: "Node"``): uses too."""
    notes = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            notes += [arg.annotation for arg in every if arg is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
    names = set()
    for sub in (sub for note in notes if note is not None for sub in ast.walk(note)):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            with contextlib.suppress(SyntaxError):
                parsed = ast.parse(sub.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


class TestNoUnusedImports:
    """pyflakes' F401, which CI's ``ruff check`` runs, checked offline:
    every name an import binds is read in its module.  A name listed in
    ``__all__`` or in a quoted annotation counts as read; a ``noqa``
    line is skipped."""

    def test_every_imported_name_is_read(self):
        unused = []
        for top in ("src", "tests", "benchmarks", "examples"):
            for path in sorted((REPO_ROOT / top).rglob("*.py")):
                source = path.read_text()
                tree, lines = ast.parse(source), source.splitlines()
                read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
                read |= _string_annotation_names(tree)
                for node in ast.walk(tree):
                    targets = getattr(node, "targets", [])
                    if any(getattr(target, "id", None) == "__all__" for target in targets):
                        read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
                for node in ast.walk(tree):
                    if not isinstance(node, (ast.Import, ast.ImportFrom)):
                        continue
                    if getattr(node, "module", None) == "__future__":
                        continue
                    if "noqa" in lines[node.lineno - 1]:
                        continue
                    for alias in node.names:
                        bound = alias.asname or alias.name.partition(".")[0]
                        if bound not in read and alias.name != "*":
                            unused.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {bound}")
        assert not unused, f"unused imports (F401): {unused}"


def _doc_files() -> list[pathlib.Path]:
    """The root ``*.md`` files, ``docs/`` and ``benchmarks/**/*.md``."""
    return sorted(
        {
            *REPO_ROOT.glob("*.md"),
            *REPO_ROOT.glob("docs/**/*.md"),
            *REPO_ROOT.glob("benchmarks/**/*.md"),
        }
    )


class TestDocReferencesResolve:
    """A moved or deleted file or section cannot leave a dangling
    reference behind in the docs or the code."""

    def test_relative_links_resolve(self):
        links = []
        for doc in _doc_files():
            prose = re.sub(r"`[^`\n]*`", "", doc.read_text())  # a code span links nowhere
            for target in re.findall(r"\]\(([^)\s]+)\)", prose):
                if re.match(r"[a-z]+:", target) or target.startswith("#"):
                    continue  # a URL or an anchor in the same file
                links.append((doc, target.partition("#")[0]))
        assert links, "no relative link found: the pattern went stale"
        dangling = [
            f"{doc.relative_to(REPO_ROOT)}: {target}"
            for doc, target in links
            if not (doc.parent / target).exists()
        ]
        assert not dangling, f"links to nothing: {dangling}"

    def test_design_section_references_name_a_section(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        sections = set(re.findall(r"^## (\d+)\.", design, re.MULTILINE))
        cited: dict[str, set[str]] = {}
        sources = [p for top in ("src", "tests") for p in (REPO_ROOT / top).rglob("*.py")]
        for path in [*sources, *_doc_files()]:
            # "DESIGN.md §7", and each of "DESIGN.md §7, §16 and §18".
            text = path.read_text()
            for run in re.findall(r"DESIGN\.md,?\s+((?:§\d+(?:,\s*|\s+and\s+)?)+)", text):
                for number in re.findall(r"§(\d+)", run):
                    cited.setdefault(number, set()).add(str(path.relative_to(REPO_ROOT)))
        assert cited, "no DESIGN.md § reference found: the pattern went stale"
        missing = {n: sorted(paths) for n, paths in cited.items() if n not in sections}
        assert not missing, f"DESIGN.md has no such section: {missing}"
