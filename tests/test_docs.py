"""Documentation smoke checks.

The README and the docs/ pages promise things — files, packages, modules,
CLI subcommands and flags.  These tests parse those promises out of the
markdown and verify each one against the actual tree, so documentation rot
fails CI instead of misleading readers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, TOOL_COMMANDS, build_parser
from repro.experiments.registry import experiment_names, iter_experiments

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"

#: Inline-code tokens that look like repo-relative paths (files or dirs).
_PATH_TOKEN = re.compile(r"`([A-Za-z0-9_][A-Za-z0-9_./-]*(?:\.py|\.md|/))`")
#: Markdown links to local files.
_LOCAL_LINK = re.compile(r"\]\((?!https?://)([^)#]+)\)")
#: Inline-code dotted module references into the repro package.
_MODULE_TOKEN = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)`")
#: CLI invocations inside fenced code blocks.
_CLI_LINE = re.compile(r"python -m repro\s+([a-z0-9]+)")
#: Long flags shown for the repro CLI.
_CLI_FLAG = re.compile(r"`(--[a-z-]+)`")


def _doc_text() -> str:
    return "\n\n".join(path.read_text(encoding="utf-8") for path in DOC_FILES)


def test_doc_files_exist():
    for path in DOC_FILES:
        assert path.is_file(), f"expected documentation file {path}"
    assert len(DOC_FILES) >= 3  # README + architecture + reproducing


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: p.name)
def test_referenced_paths_exist(doc):
    text = doc.read_text(encoding="utf-8")
    referenced = set(_PATH_TOKEN.findall(text)) | set(_LOCAL_LINK.findall(text))
    missing = []
    for token in referenced:
        candidate = (REPO_ROOT / token.rstrip("/")).resolve()
        if REPO_ROOT not in candidate.parents and candidate != REPO_ROOT:
            continue  # absolute/user paths like ~/.cache are not repo promises
        # Prose may refer to files relative to the repo root or to the
        # package root (e.g. `core/maxmin/`, `batch.py` in a quantum section).
        package_relative = REPO_ROOT / "src" / "repro" / token.rstrip("/")
        if not candidate.exists() and not package_relative.exists():
            missing.append(token)
    assert not missing, f"{doc.name} references nonexistent paths: {sorted(missing)}"


def test_referenced_modules_import():
    missing = []
    for module in sorted(set(_MODULE_TOKEN.findall(_doc_text()))):
        try:
            importlib.import_module(module)
        except ImportError:
            # A dotted reference may name an attribute (function/class) of a
            # module rather than a module itself.
            parent, _, attribute = module.rpartition(".")
            try:
                if not hasattr(importlib.import_module(parent), attribute):
                    missing.append(module)
            except ImportError:
                missing.append(module)
    assert not missing, f"docs reference unimportable modules: {missing}"


def test_cli_subcommands_shown_are_real():
    shown = set(_CLI_LINE.findall(_doc_text()))
    assert shown, "docs should demonstrate CLI usage"
    runnable = set(EXPERIMENTS) | set(TOOL_COMMANDS)
    unknown = shown - runnable
    assert not unknown, f"docs show nonexistent subcommands: {sorted(unknown)}"
    # A CI step that calls a removed verb fails here, not only on the CI host.
    in_ci = set(_CLI_LINE.findall(CI_WORKFLOW.read_text(encoding="utf-8")))
    unknown = in_ci - runnable
    assert not unknown, f"ci.yml calls nonexistent subcommands: {sorted(unknown)}"
    # Everything runnable should also be documented somewhere.
    undocumented = runnable - shown
    assert not undocumented, f"subcommands missing from docs: {sorted(undocumented)}"


def _walk_parsers(parser):
    """The main parser plus every registered experiment subparser."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for subparser in action.choices.values():
                if id(subparser) not in seen:  # aliases share parser objects
                    seen.add(id(subparser))
                    yield subparser


def _all_parser_flags():
    return {
        option
        for parser in _walk_parsers(build_parser())
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }


def test_cli_flags_shown_are_real():
    shown = {flag for flag in _CLI_FLAG.findall(_doc_text()) if flag != "--help"}
    unknown = shown - _all_parser_flags()
    assert not unknown, f"docs show nonexistent CLI flags: {sorted(unknown)}"


def test_every_cli_flag_is_documented():
    """The reverse direction: adding a CLI flag without documenting it
    (in a backticked ``--flag`` token somewhere under README/docs) fails CI."""
    parser_flags = {flag for flag in _all_parser_flags() if flag != "--help"}
    documented = set(_CLI_FLAG.findall(_doc_text()))
    undocumented = parser_flags - documented
    assert not undocumented, f"CLI flags missing from the docs: {sorted(undocumented)}"


@pytest.mark.parametrize("experiment", iter_experiments(), ids=lambda e: e.name)
def test_every_paramspec_appears_in_help_and_docs(experiment):
    """Registry gate: each CLI-exposed ParamSpec entry must show up both in
    the experiment's ``--help`` output and as a documented flag token."""
    parser = build_parser()
    subparser = next(
        action.choices[experiment.name]
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    help_text = subparser.format_help()
    documented = set(_CLI_FLAG.findall(_doc_text()))
    for spec in experiment.cli_specs():
        assert spec.cli_flag in help_text, (
            f"{experiment.name}: flag {spec.cli_flag} (param {spec.name!r}) "
            "missing from --help"
        )
        assert spec.cli_flag in documented, (
            f"{experiment.name}: flag {spec.cli_flag} (param {spec.name!r}) "
            "not documented in README/docs"
        )
        assert spec.help, f"{experiment.name}: param {spec.name!r} has no help text"


def test_every_workload_is_documented():
    """Registry gate: every workload of the spec mini-language must appear in
    the docs as a backticked token (bare or with parameters), and every
    parameter a workload accepts must be shown as a `key=...` token."""
    from repro.workloads.registry import WORKLOAD_NAMES, WORKLOAD_PARAMS

    text = _doc_text()
    documented_names = set(re.findall(r"`([a-z]+)[:`]", text))
    missing = [name for name in WORKLOAD_NAMES if name not in documented_names]
    assert not missing, f"workloads missing from the docs: {missing}"

    documented_params = set(re.findall(r"`([a-z_]+)=", text))
    undocumented = sorted(
        {
            param
            for name in WORKLOAD_NAMES
            for param in WORKLOAD_PARAMS[name]
            if param not in documented_params
        }
    )
    assert not undocumented, f"workload parameters missing from the docs: {undocumented}"


def test_every_queue_policy_and_class_is_documented():
    """The queueing policies and traffic classes a spec can name are part of
    the mini-language surface; the docs must list them all."""
    from repro.workloads.base import CLASS_MIXES, TRAFFIC_CLASSES
    from repro.workloads.queueing import QUEUE_POLICIES

    text = _doc_text()
    tokens = set(re.findall(r"`([a-z-]+)`", text))
    for collection, kind in (
        (QUEUE_POLICIES, "queue policy"),
        (TRAFFIC_CLASSES, "traffic class"),
        (CLASS_MIXES, "class mix"),
    ):
        missing = [name for name in collection if name not in tokens]
        assert not missing, f"{kind} names missing from the docs: {missing}"


def test_every_group_strategy_is_documented():
    """Registry gate: every GHZ group-serving strategy a workload spec can
    name (``group_strategy=``) must appear in the docs as a backticked
    token, so the strategy surface can never grow undocumented."""
    from repro.protocols.fusion import DEFAULT_GROUP_STRATEGY, GROUP_STRATEGIES

    text = _doc_text()
    tokens = set(re.findall(r"`([a-z-]+)`", text))
    missing = [name for name in GROUP_STRATEGIES if name not in tokens]
    assert not missing, f"group strategy names missing from the docs: {missing}"
    assert DEFAULT_GROUP_STRATEGY in tokens
    # The knobs that select them must be shown as `key=` tokens too.
    documented_params = set(re.findall(r"`([a-z_]+)=", text))
    for param in ("group_fraction", "group_size", "group_strategy"):
        assert param in documented_params, f"`{param}=` missing from the docs"


def test_serve_protocol_surface_is_documented():
    """Registry gate: the service-mode surface -- every wire-protocol verb,
    job/daemon lifecycle state and error kind, plus every ``repro serve``
    and ``repro submit`` flag -- must appear backticked in README/docs, so
    the protocol can never grow undocumented."""
    from repro.serve.protocol import DAEMON_STATES, ERROR_KINDS, JOB_STATES, VERBS

    text = _doc_text()
    tokens = set(re.findall(r"`([a-z-]+)`", text))
    for collection, kind in (
        (VERBS, "protocol verb"),
        (JOB_STATES, "job state"),
        (DAEMON_STATES, "daemon state"),
        (ERROR_KINDS.values(), "error kind"),
    ):
        missing = [name for name in collection if name not in tokens]
        assert not missing, f"serve {kind} names missing from the docs: {missing}"

    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    documented_flags = set(_CLI_FLAG.findall(text))
    for command in ("serve", "submit"):
        flags = {
            option
            for action in subparsers.choices[command]._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        missing = sorted(flags - documented_flags)
        assert not missing, f"`repro {command}` flags missing from the docs: {missing}"


def test_every_span_and_metric_family_is_documented():
    """Registry gate: the observability surface -- every telemetry span
    name plus every hub and serve metric family -- must appear backticked
    in README/docs, so instrumentation can never grow undocumented."""
    from repro.obs.spans import SPAN_NAMES
    from repro.obs.telemetry import HUB_METRIC_NAMES
    from repro.serve.daemon import SERVE_METRIC_NAMES

    tokens = set(re.findall(r"`([a-z][a-z0-9._-]*)`", _doc_text()))
    for collection, kind in (
        (SPAN_NAMES, "span"),
        (HUB_METRIC_NAMES, "hub metric family"),
        (SERVE_METRIC_NAMES, "serve metric family"),
    ):
        missing = [name for name in collection if name not in tokens]
        assert not missing, f"telemetry {kind} names missing from the docs: {missing}"


def test_checked_in_telemetry_schema_matches_canonical():
    """docs/schemas/telemetry.schema.json must never drift from the code."""
    from repro.obs.schemas import TELEMETRY_SCHEMA

    checked_in = json.loads(
        (REPO_ROOT / "docs" / "schemas" / "telemetry.schema.json").read_text(
            encoding="utf-8"
        )
    )
    assert checked_in == TELEMETRY_SCHEMA


def test_every_experiment_has_a_ci_invocation():
    """Registry gate: every registered experiment must be exercised by CI
    with a ``--smoke``-or-small invocation."""
    text = CI_WORKFLOW.read_text(encoding="utf-8")
    missing = [
        name
        for name in experiment_names()
        if not re.search(rf"python -m repro {re.escape(name)}\b", text)
    ]
    assert not missing, f"experiments without a CI invocation in ci.yml: {missing}"


def test_checked_in_result_schema_matches_canonical():
    """docs/schemas/experiment-result.schema.json is the copy external
    consumers pin; it must never drift from the validator's schema."""
    from repro.experiments.schema import RESULT_SCHEMA

    checked_in = json.loads(
        (REPO_ROOT / "docs" / "schemas" / "experiment-result.schema.json").read_text(
            encoding="utf-8"
        )
    )
    assert checked_in == RESULT_SCHEMA


def test_readme_quickstart_snippet_runs(tmp_path):
    """The README's API quickstart must run as written, saved as a script
    (with the default worker count, so pool workers re-import it)."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks, "README should contain a python quickstart block"
    env = dict(os.environ)
    env.pop("REPRO_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    for number, block in enumerate(blocks):
        script = tmp_path / f"quickstart_{number}.py"
        script.write_text(block, encoding="utf-8")
        completed = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip(), "the quickstart should print its report"


def test_package_layout_table_matches_tree():
    """Every package the README's layout table names must exist (and vice versa)."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`src/repro/([a-z_]+)/`", readme))
    actual = {
        path.name
        for path in (REPO_ROOT / "src" / "repro").iterdir()
        if path.is_dir() and (path / "__init__.py").exists()
    }
    assert named == actual, (
        f"README layout table out of sync: missing {sorted(actual - named)}, "
        f"stale {sorted(named - actual)}"
    )
