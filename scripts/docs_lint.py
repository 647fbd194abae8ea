#!/usr/bin/env python
"""Docs/source consistency lint (CI's docs-lint job).

Four checks, two-way where that makes sense:

1. **Environment variables** -- every ``REPRO_*`` name read anywhere in
   ``src/`` or ``benchmarks/`` must be documented in
   ``docs/environment.md``, and every variable documented there must still
   exist in the code (no ghost documentation).

2. **Dead relative links** -- every relative markdown link in ``docs/*.md``
   and ``README.md`` must point at a file that exists (``#anchors`` are
   stripped; absolute URLs are ignored).

3. **Stale source paths** -- every backticked path under ``src/``,
   ``tests/``, ``examples/`` or ``scripts/`` in ``docs/*.md`` and
   ``README.md`` must exist.
   ``benchmarks/`` paths are left alone: ``benchmarks/results/`` is
   git-ignored output that need not exist in a checkout.

4. **Unused imports** -- every module-level import in the Python files
   under ``src/``, ``tests/``, ``examples/``, ``scripts/`` and
   ``benchmarks/`` must be used in its module (a stdlib ``ast`` scan).
   ``__init__.py`` files, ``__future__`` imports and names listed in the
   module's ``__all__`` are exempt: those imports are the re-exports.

Exit status 0 when clean; 1 with one line per violation otherwise.  No
dependencies beyond the standard library, so it runs anywhere CI does:

    python scripts/docs_lint.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ENV_DOC = REPO / "docs" / "environment.md"

#: where env-var reads live; benchmarks own REPRO_JOBS
SOURCE_DIRS = ("src", "benchmarks")

ENV_RE = re.compile(r"REPRO_[A-Z]+(?:_[A-Z]+)*")

#: inline markdown links: [text](target) -- images share the syntax
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: inline code spans naming a repo path, e.g. `src/repro/store/`
PATH_RE = re.compile(r"`((?:src|tests|examples|scripts)/[^`\s]*)`")

#: Python trees whose module-level imports must all be used
IMPORT_DIRS = ("src", "tests", "examples", "scripts", "benchmarks")


def source_env_vars() -> dict:
    """``{var: first use site}`` across the scanned source trees."""
    found = {}
    for directory in SOURCE_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            for match in ENV_RE.finditer(path.read_text(errors="replace")):
                found.setdefault(match.group(), path.relative_to(REPO))
    return found


def documented_env_vars() -> set:
    if not ENV_DOC.exists():
        return set()
    return set(ENV_RE.findall(ENV_DOC.read_text()))


def check_env_vars() -> list:
    errors = []
    used = source_env_vars()
    documented = documented_env_vars()
    if not ENV_DOC.exists():
        return [f"missing {ENV_DOC.relative_to(REPO)}"]
    for var in sorted(set(used) - documented):
        errors.append(
            f"{var} (used in {used[var]}) is not documented in "
            f"{ENV_DOC.relative_to(REPO)}"
        )
    for var in sorted(documented - set(used)):
        errors.append(
            f"{var} is documented in {ENV_DOC.relative_to(REPO)} but no longer "
            f"read anywhere under {'/'.join(SOURCE_DIRS)}"
        )
    return errors


def markdown_files() -> list:
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md")) if (REPO / "docs").is_dir() else []
    return [path for path in files if path.exists()]


def check_links() -> list:
    errors = []
    for path in markdown_files():
        for match in LINK_RE.finditer(path.read_text()):
            target = match.group(1).split("#", 1)[0]
            if not target or "://" in target or target.startswith("mailto:"):
                continue
            resolved = (path.parent / target).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(REPO)}: dead link -> {match.group(1)}"
                )
    return errors


def missing_paths(text: str) -> list:
    """Backticked repo paths in ``text`` that do not exist."""
    return [path for path in PATH_RE.findall(text) if not (REPO / path).exists()]


def check_paths() -> list:
    return [
        f"{path.relative_to(REPO)}: stale path -> {missing}"
        for path in markdown_files()
        for missing in missing_paths(path.read_text())
    ]


def _module_imports(body: list):
    """Import statements of a module body, inside top-level ``if``/``try`` too."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse, getattr(node, "finalbody", [])):
                yield from _module_imports(block)
            for handler in getattr(node, "handlers", []):
                yield from _module_imports(handler.body)


def unused_imports(source: str) -> list:
    """``(line, name)`` of every module-level import ``source`` never uses."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(
                const.value
                for const in ast.walk(node.value)
                if isinstance(const, ast.Constant) and isinstance(const.value, str)
            )
    unused = []
    for node in _module_imports(tree.body):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append((node.lineno, name))
    return unused


def check_imports() -> list:
    return [
        f"{path.relative_to(REPO)}:{line}: unused import {name}"
        for directory in IMPORT_DIRS
        for path in sorted((REPO / directory).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]


def main() -> int:
    errors = check_env_vars() + check_links() + check_paths() + check_imports()
    for error in errors:
        print(f"docs-lint: {error}", file=sys.stderr)
    if errors:
        print(f"docs-lint: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("docs-lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
