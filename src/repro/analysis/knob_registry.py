"""Env-knob registry analyzer (A010–A013).

The contract enforced here is the one :mod:`repro.knobs` establishes:
every ``REPRO_*`` environment variable the codebase reads is declared
exactly once in the registry's ``KNOBS`` table, is read *only* through
the registry accessors, and — the expensive lesson from the cache
PRs — is either salted into the result-cache key or carries a written
exemption reason.

Codes:

* **A010** — a knob is read (via an accessor or a raw ``os.environ`` /
  ``os.getenv`` call) but has no ``KnobSpec`` declaration.
* **A011** — a knob declared ``cache_policy="salted"`` does not reach
  the cache-key construction in the cache module.
* **A012** — a knob is declared but nothing reads it (stale
  declaration; delete it or use it).
* **A013** — a ``REPRO_*`` variable is read directly from the
  environment outside the registry module instead of through the
  accessors (bypasses defaults, value grammar and salting policy).

Only *reads* are flagged: assigning ``os.environ["REPRO_X"] = ...`` to
configure a child process or a test is legitimate and ignored.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.findings import Finding
from repro.analysis.project import (
    Project,
    assigned_names,
    const_str,
    import_table,
    resolve_call,
)

#: Registry accessor function names; a call like ``knobs.raw("REPRO_X")``
#: (or a from-imported bare ``raw(...)``) counts as a read of ``REPRO_X``.
ACCESSOR_NAMES = frozenset({"spec", "raw", "enabled", "get_float"})

#: Resolved callee paths that read an environment variable by name.
_ENV_GET_CALLS = frozenset({"os.environ.get", "os.getenv"})


@dataclass(frozen=True, slots=True)
class KnobDecl:
    """One ``KnobSpec(...)`` declaration parsed out of the registry."""

    name: str
    cache_policy: str
    reason: str
    line: int


@dataclass(frozen=True, slots=True)
class KnobRead:
    """One knob read observed in the source tree."""

    name: str
    path: str
    line: int
    #: ``"accessor"`` or ``"env"`` (direct environment access).
    via: str


def parse_registry(project: Project) -> list[KnobDecl]:
    """The ``KnobSpec`` declarations in the registry module's ``KNOBS``
    table (empty when there is no registry module or no table)."""
    registry = project.registry_file
    if registry is None:
        return []
    tree = project.tree(registry)
    if tree is None:
        return []
    decls: list[KnobDecl] = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        if "KNOBS" not in assigned_names(node):
            continue
        value = node.value
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        for element in value.elts:
            if not (
                isinstance(element, ast.Call)
                and isinstance(element.func, ast.Name)
                and element.func.id == "KnobSpec"
            ):
                continue
            fields = {
                kw.arg: const_str(kw.value)
                for kw in element.keywords
                if kw.arg is not None
            }
            name = fields.get("name")
            if name is None and element.args:
                name = const_str(element.args[0])
            if name is None:
                continue
            decls.append(
                KnobDecl(
                    name=name,
                    cache_policy=fields.get("cache_policy") or "salted",
                    reason=fields.get("reason") or "",
                    line=element.lineno,
                )
            )
    return decls


def _env_read_names(tree: ast.Module, prefix: str) -> list[tuple[str, int]]:
    """``(knob, line)`` for every direct environment *read* of a
    constant name with *prefix* in *tree*."""
    imports = import_table(tree)
    reads: list[tuple[str, int]] = []

    def record(name: str | None, line: int) -> None:
        if name is not None and name.startswith(prefix):
            reads.append((name, line))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            resolved = resolve_call(node, imports)
            if resolved in _ENV_GET_CALLS and node.args:
                record(const_str(node.args[0]), node.lineno)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            base = node.value
            if (
                isinstance(base, ast.Attribute)
                and base.attr == "environ"
                or isinstance(base, ast.Name)
                and imports.get(base.id) == "os.environ"
            ):
                record(const_str(node.slice), node.lineno)
    return reads


def _accessor_read_names(tree: ast.Module, prefix: str) -> list[tuple[str, int]]:
    """``(knob, line)`` for every registry-accessor call with a constant
    knob-name argument in *tree*."""
    reads: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        callee = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else None
        )
        if callee not in ACCESSOR_NAMES:
            continue
        name = const_str(node.args[0])
        if name is not None and name.startswith(prefix):
            reads.append((name, node.lineno))
    return reads


def collect_reads(project: Project) -> list[KnobRead]:
    """Every knob read in the source tree, both kinds, registry module
    included for ``env`` reads only (that is the one place raw access is
    the point)."""
    prefix = project.config.knob_prefix
    registry = project.registry_file
    reads: list[KnobRead] = []
    for path in project.source_files():
        tree = project.tree(path)
        if tree is None:
            continue
        rel = project.relative(path)
        for name, line in _env_read_names(tree, prefix):
            reads.append(KnobRead(name=name, path=rel, line=line, via="env"))
        if path == registry:
            continue
        for name, line in _accessor_read_names(tree, prefix):
            reads.append(
                KnobRead(name=name, path=rel, line=line, via="accessor")
            )
    return reads


def cache_key_knobs(project: Project) -> tuple[set[str], bool]:
    """``(explicit_names, uses_registry)`` for the cache module's key
    construction.

    ``uses_registry`` is True when the module calls the registry's
    ``salted_knobs()`` / ``fingerprint()`` — salting is then derived by
    construction and every salted knob is covered.  ``explicit_names``
    are knob-name string constants assigned to a ``*KNOBS*`` variable
    (the hand-maintained-list shape the fixtures seed).
    """
    cache = project.cache_file
    if cache is None:
        return set(), False
    tree = project.tree(cache)
    if tree is None:
        return set(), False
    prefix = project.config.knob_prefix
    explicit: set[str] = set()
    uses_registry = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            callee = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if callee in ("salted_knobs", "fingerprint"):
                uses_registry = True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            if not any("KNOBS" in n for n in assigned_names(node)):
                continue
            if node.value is None:
                continue
            for sub in ast.walk(node.value):
                name = const_str(sub)
                if name is not None and name.startswith(prefix):
                    explicit.add(name)
    return explicit, uses_registry


def analyze(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    decls = parse_registry(project)
    declared = {d.name: d for d in decls}
    reads = collect_reads(project)
    registry_rel = (
        project.relative(project.registry_file)
        if project.registry_file is not None
        else project.config.registry_basename
    )

    # A010 / A013 — walk the observed reads.
    seen_undeclared: set[tuple[str, str]] = set()
    for read in reads:
        if read.name not in declared:
            key = (read.name, read.path)
            if key not in seen_undeclared:
                seen_undeclared.add(key)
                findings.append(
                    Finding(
                        code="A010",
                        path=read.path,
                        line=read.line,
                        subject=read.name,
                        message=(
                            f"{read.name} is read here but has no KnobSpec "
                            f"declaration in {registry_rel}"
                        ),
                    )
                )
        if read.via == "env" and read.path != registry_rel:
            findings.append(
                Finding(
                    code="A013",
                    path=read.path,
                    line=read.line,
                    subject=read.name,
                    message=(
                        f"{read.name} is read directly from the environment; "
                        "go through the repro.knobs accessors"
                    ),
                )
            )

    # A012 — declared but never read.
    read_names = {r.name for r in reads}
    for decl in decls:
        if decl.name not in read_names:
            findings.append(
                Finding(
                    code="A012",
                    path=registry_rel,
                    line=decl.line,
                    subject=decl.name,
                    message=(
                        f"{decl.name} is declared in the registry but read "
                        "nowhere; delete the declaration or wire it up"
                    ),
                )
            )

    # A011 — salted knobs must reach the cache key.
    explicit, uses_registry = cache_key_knobs(project)
    if not uses_registry:
        cache_rel = (
            project.relative(project.cache_file)
            if project.cache_file is not None
            else project.config.cache_basename
        )
        for decl in decls:
            if decl.cache_policy != "salted":
                continue
            if decl.name in explicit:
                continue
            findings.append(
                Finding(
                    code="A011",
                    path=registry_rel,
                    line=decl.line,
                    subject=decl.name,
                    message=(
                        f"{decl.name} is declared cache-salted but does not "
                        f"reach the cache-key construction in {cache_rel}; "
                        "derive the key from knobs.salted_knobs()/fingerprint()"
                    ),
                )
            )
    return findings
