"""The command steps of the CI workflow, run as part of the test suite,
and the syntax of the package at the lowest Python version it supports.

Each step's ``run:`` script is read from ``.github/workflows/tier1.yml``
and run with ``bash -e`` in a temporary directory, with ``cycloschur`` and
``python`` on PATH calling this interpreter on the checkout's ``src/``.
The install step and the pytest step are skipped: the package is run
from the checkout, and the suite is already running.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
SKIPPED = ("pip install", "pytest")


def workflow_steps(text):
    """(name, script) of each step with a ``run:`` key, in order.  A block
    scalar (``run: |``) runs up to the first nonblank line indented no
    deeper than its key; this is all the YAML the workflow's steps use."""
    steps, name = [], None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        body = line.lstrip(" -")
        if body.startswith("name: "):
            name = body[len("name: ") :]
        if not body.startswith("run: "):
            continue
        script = body[len("run: ") :]
        if script == "|":
            indent = len(line) - len(line.lstrip())
            block = []
            for later in lines[i + 1 :]:
                if later.strip() and len(later) - len(later.lstrip()) <= indent:
                    break
                block.append(later)
            script = textwrap.dedent("\n".join(block))
        steps.append((name, script))
    return steps


def test_workflow_parser_reads_plain_and_block_scripts():
    text = textwrap.dedent(
        """\
        steps:
          - name: one
            run: echo 1
          - name: two
            working-directory: x
            run: |
              echo 2
                echo 3

              echo 4
          - name: three
            run: echo 5
        """
    )
    assert workflow_steps(text) == [
        ("one", "echo 1"),
        ("two", "echo 2\n  echo 3\n\necho 4"),
        ("three", "echo 5"),
    ]


@pytest.mark.skipif(shutil.which("bash") is None, reason="the steps are bash scripts")
def test_workflow_command_steps_pass(tmp_path):
    steps = workflow_steps(WORKFLOW.read_text())
    commands = [step for step in steps if not any(word in step[1] for word in SKIPPED)]
    assert len(steps) - len(commands) == len(SKIPPED), steps
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    entry = "from cycloschur.cli import entrypoint; entrypoint()"
    shims = {
        "cycloschur": f'exec "{sys.executable}" -c "{entry}" "$@"',
        "python": f'exec "{sys.executable}" "$@"',
    }
    for tool, line in shims.items():
        shim = bin_dir / tool
        shim.write_text(f"#!/bin/sh\n{line}\n")
        shim.chmod(0o755)
    env = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        "PYTHONPATH": str(ROOT / "src"),
    }
    assert commands
    for index, (name, script) in enumerate(commands):
        work = tmp_path / f"step{index}"
        work.mkdir()
        done = subprocess.run(
            ["bash", "-e", "-c", script],
            cwd=work,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, (name, done.stdout[-2000:], done.stderr[-2000:])


def test_sources_parse_at_the_python_floor():
    # the syntax of every module against the grammar of the oldest Python
    # that pyproject.toml admits; library calls new in later versions are
    # not checked
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor, "pyproject.toml names no requires-python floor"
    version = (int(floor[1]), int(floor[2]))
    sources = sorted((ROOT / "src" / "cycloschur").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
