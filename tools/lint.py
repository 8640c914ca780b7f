"""Stdlib fallback linter for environments without ruff.

``make lint`` prefers ruff (pinned config in ``pyproject.toml``); when
it is not installed, this script provides the error-class subset that
matters for CI gating -- syntax errors, undefined names in common
forms, and obvious AST-level mistakes:

- E9:   files that fail to compile (syntax / indentation errors)
- F63x: comparisons with constant literal results (``is`` on literals)
- F7x:  ``return``/``yield`` outside functions (caught by compile)
- F821-lite: names read in a module scope that are never bound there,
  imported, or builtins (intra-function analysis is left to ruff)
- SIZE: a file under a directory listed in ``MAX_LINES`` that has grown
  past its limit (ruff has no such rule, so ``make lint`` runs this
  script after ruff too)
- CACHE: a module-level mutable container named like a cache under a
  directory listed in ``NO_MODULE_CACHES``
- STREAMSTATE: a dict keyed by stream id (annotated ``Dict[int, ...]``,
  or a dict whose name says ``stream``) set on one of the connection
  classes in ``NO_PER_STREAM_DICTS`` other than its two stream maps
- DEAD: a public ``def``, ``class`` or method under ``NO_DEAD_PUBLIC``
  that no code in ``DEAD_ROOTS`` -- the package, ``tools/``, the
  drivers and ``examples/`` -- refers to outside its own definition.
  A reference must reach the binding the definition makes: a string
  literal equal to it (``getattr``, a table of names) or an attribute
  reaches any of them; a bare name reaches a module-level one, or a
  nested def from inside its enclosing function.  So a method is used
  only as ``x.method`` or by string, never by a local variable that
  shares its name.  Tests, imports, ``__all__``, docstrings and
  comments are not uses; ``DEAD_ALLOWED`` names the exceptions, each
  with its reason (checked whenever that directory is linted)
- WRITE: an attribute of a class under ``NO_WRITE_ONLY`` -- a field its
  body declares, or one its methods store on ``self`` by ``=``, ``+=``
  or an annotated assignment -- that no code in ``DEAD_ROOTS`` reads.
  A read is an attribute in load context or a string literal equal to
  the name (``getattr``, a table of names); tests, docstrings and
  ``__slots__`` are not reads.  Reads match by name, not by class, so
  an attribute that shares its name with one read elsewhere (a
  ``Path.packets_sent`` beside a read ``ConnectionStats.packets_sent``)
  is not seen.  ``WRITE_ALLOWED`` names the exceptions as
  ``Class.attribute``, each with its reason (checked whenever the
  package is linted)
- GC: a use of ``gc.collect`` / ``gc.disable`` / ``gc.freeze`` under a
  directory listed in ``NO_GC_CALLS``
- KNOB: a defaulted field of a ``@dataclass`` named ``*Config``, or a
  defaulted parameter of a public function, method or constructor,
  under ``NO_UNSET_KNOBS`` that no code in ``DEAD_ROOTS`` sets -- by
  keyword or by position in a call to it, by keyword to ``replace()``
  (fields), or through a ``**`` mapping whose keys its module spells in
  ``dict()``, a dict literal or a call taking ``**kwargs``.  A test
  setting it does not count, nor does a keyword whose source text is
  the default's (``f(x=30.0)`` for ``x=30.0``).  A function or class
  read as a value (kept in a table, passed as a callback) is called
  where the linter cannot see, so its parameters all count as set
  (checked whenever the package is linted)
- REACH: a module under ``REACH_PACKAGE`` that no driver in
  ``REACH_ROOTS`` -- the CLI, ``bench/``, ``figures/`` -- imports,
  directly or through other modules (checked whenever the package is
  linted)
- FFI: an import of ``ctypes`` or ``_ctypes`` anywhere but
  ``FFI_MODULES``

Exit status 0 = clean, 1 = findings, matching ruff's convention.
"""

from __future__ import annotations

import ast
import builtins
import sys
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

Finding = Tuple[Path, int, str]


class _Knobs(NamedTuple):
    """The defaulted values one call sets: a ``*Config``'s fields or a
    public function's parameters."""

    owner: str          # what a finding names: ``Class``, ``Class.method``
    callee: str         # the name a call to it is spelled with
    positional: List[str]
    defaulted: List[Tuple[str, int]]
    defaults: Dict[str, str]    # name -> the source of its default
    config: bool = False

REPO_ROOT = Path(__file__).resolve().parent.parent

#: directory (repo-relative) -> most lines any file in it may have.
#: ``repro/quic`` was one 1,576-line class until it was split along
#: its receive / ACK / send / timer seams; this keeps it split.
#: ``repro/experiments`` is a ratchet on ``parallel.py``, the largest
#: file under it: it may shrink, not grow.
MAX_LINES = {"src/repro/quic": 700, "src/repro/experiments": 686}

#: directory (repo-relative) -> the module-level caches it may keep.
#: ``repro/quic`` once hid its ACK cost behind four of them, two shared
#: by every connection in the process; the frame decoder's memo is the
#: one that is left.
NO_MODULE_CACHES = {"src/repro/quic": {"_ACK_DECODE_MEMO"}}
_CACHE_WORDS = ("CACHE", "MEMO")
_MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                  "deque", "bytearray"}

#: directory (repo-relative) -> class -> the int-keyed dict attributes
#: it may set.  A connection once kept five parallel per-stream dicts,
#: so a closed stream could not be forgotten in one place; what is per
#: stream lives on ``SendStream`` / ``ReceiveStream``, and these are the
#: two maps of those plus the dicts keyed by *path* id.
NO_PER_STREAM_DICTS = {"src/repro/quic": {
    "Connection": {"send_streams", "recv_streams", "paths", "net_path_of"},
    "Sender": {"send_streams", "paths", "pending_control"},
    "Receiver": set(),
    "AckHandler": set(),
}}

#: the package whose public names must have a user, and where users
#: may live.  A test is not a user: a name only ``tests/`` reaches is
#: code the program never runs, kept alive by its own checks.
NO_DEAD_PUBLIC = "src/repro"
DEAD_ROOTS = ("src", "tools", "figures", "bench", "examples")

#: the public names under ``NO_DEAD_PUBLIC`` that may stand with no code
#: in ``DEAD_ROOTS`` referring to them, each for its reason.
DEAD_ALLOWED = {
    # the per-session reference the fleet's sinks are tested against
    "run_session_tasks",
    # Mahimahi trace files are how a real capture enters the emulator
    # (PAPER.md, section 2)
    "load_mahimahi_trace", "save_mahimahi_trace",
}

#: the package whose stored attributes must each have a reader in
#: ``DEAD_ROOTS``.  State nothing reads is work on every update and
#: memory for as long as it lives; kept only for a test to assert on, it
#: checks a number the program never uses.
NO_WRITE_ONLY = "src/repro"

#: ``Class.attribute`` stored under ``NO_WRITE_ONLY`` that may have no
#: reader in ``DEAD_ROOTS``, each for its reason.
WRITE_ALLOWED = {
    # ``tests/test_golden.py`` records every ``ConnectionStats`` field
    # with ``vars()``; without it the golden stats records would change
    "ConnectionStats.handshake_completed_at",
}

#: directory (repo-relative) -> the ``gc`` functions none of its files
#: may use.  A finished session's world is a tree that refcounting frees
#: (``SessionRuntime.teardown``); a forced collection -- one ran after
#: every contention run -- only hides a cycle that came back.
NO_GC_CALLS = {"src/repro": {"collect", "disable", "freeze"}}

#: the package whose ``*Config`` fields and defaulted public parameters
#: must each be set by some code in ``DEAD_ROOTS``.  A value no caller
#: sets only ever holds its default: it is a constant that reads like an
#: option, and doubles the configurations a reader has to consider.
#: Write it as a module constant instead.  A value only a test sets is
#: the same constant with a second configuration kept for the test.
NO_UNSET_KNOBS = "src/repro"

#: the package every module of which some driver must import, and the
#: drivers: the CLI (``python -m repro``), the benchmark and the paper's
#: figures.  A module none of them reaches runs only in its own tests.
REACH_PACKAGE = "src/repro"
REACH_ROOTS = ("src/repro/__main__.py", "bench", "figures")

#: the only files (repo-relative) that may import ``ctypes`` or
#: ``_ctypes``.  An overrun buffer in a foreign call corrupts memory
#: instead of raising, and a call through a ``ctypes`` function pointer
#: is invisible to the profilers, so every such call sits in one module
#: that checks sizes before each call and calls through a builtin.
FFI_MODULES = {"src/repro/quic/crypto.py"}


def iter_py_files(roots: List[str]) -> Iterator[Path]:
    for root in roots:
        path = Path(root)
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


class _Scope(ast.NodeVisitor):
    """Collect every name a module binds at any depth."""

    def __init__(self) -> None:
        self.bound = set(dir(builtins))
        self.bound.update({"__file__", "__name__", "__doc__", "__package__",
                           "__builtins__", "__spec__", "__loader__"})

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.bound.add(node.id)
        self.generic_visit(node)

    def _bind_target(self, name: str) -> None:
        self.bound.add(name.split(".")[0])

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._bind_target(alias.asname or alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name != "*":
                self._bind_target(alias.asname or alias.name)
            else:
                self.bound.add("*")  # wildcard: give up on precision

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.bound.add(node.name)
        for arg in ([*node.args.posonlyargs, *node.args.args,
                     *node.args.kwonlyargs]
                    + ([node.args.vararg] if node.args.vararg else [])
                    + ([node.args.kwarg] if node.args.kwarg else [])):
            self.bound.add(arg.arg)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bound.add(node.name)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.name:
            self.bound.add(node.name)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for arg in [*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs, node.args.vararg,
                    node.args.kwarg]:
            if arg is not None:
                self.bound.add(arg.arg)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        for sub in ast.walk(node.target):
            if isinstance(sub, ast.Name):
                self.bound.add(sub.id)
        self.generic_visit(node)


def _module_caches(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(name, line) of module-level names like ``*_CACHE`` / ``*_MEMO``
    bound to a mutable container."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                     ast.DictComp, ast.ListComp,
                                     ast.SetComp)) \
            or (isinstance(value, ast.Call)
                and getattr(value.func, "id",
                            getattr(value.func, "attr", None))
                in _MUTABLE_CALLS)
        for target in targets:
            if mutable and isinstance(target, ast.Name) \
                    and any(w in target.id.upper() for w in _CACHE_WORDS):
                yield target.id, node.lineno


def _per_stream_dicts(tree: ast.Module,
                      classes: dict) -> Iterator[Tuple[str, str, int]]:
    """(class, attribute, line) of ``self.<attribute>`` assignments in
    the listed classes that make an int-keyed (or stream-named) dict the
    class is not allowed."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name not in classes:
            continue
        for node in ast.walk(cls):
            annotation = None
            if isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
                annotation = ast.unparse(node.annotation).replace(" ", "")
            elif isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            else:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                int_keyed = annotation is not None and annotation.lower() \
                    .startswith(("dict[int,", "defaultdict[int,"))
                is_dict = isinstance(value, (ast.Dict, ast.DictComp)) or (
                    isinstance(value, ast.Call)
                    and getattr(value.func, "id", None)
                    in ("dict", "defaultdict", "OrderedDict"))
                if (int_keyed or (is_dict and "stream" in target.attr)) \
                        and target.attr not in classes[cls.name]:
                    yield cls.name, target.attr, node.lineno


def _gc_calls(tree: ast.Module, banned: set) -> Iterator[Tuple[str, int]]:
    """(name, line) of every ``gc.<name>`` read, or ``from gc import
    <name>``, for a name in ``banned``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in banned \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "gc":
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            yield from ((alias.name, node.lineno) for alias in node.names
                        if alias.name in banned)


def _ctypes_imports(tree: ast.Module) -> Iterator[int]:
    """Lines that import ``ctypes``, one of its submodules or
    ``_ctypes``."""
    def is_ctypes(name: Optional[str]) -> bool:
        return name is not None and name.split(".")[0] in ("ctypes",
                                                           "_ctypes")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(is_ctypes(alias.name)
                                                for alias in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and is_ctypes(node.module):
            yield node.lineno
        elif isinstance(node, ast.Call) and _callee(node) in (
                "import_module", "__import__") and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str) \
                and is_ctypes(node.args[0].value):
            yield node.lineno


def check_file(path: Path) -> List[Finding]:
    findings: List[Finding] = []
    source = path.read_text()
    n_lines = source.count("\n")
    for directory, limit in MAX_LINES.items():
        if (REPO_ROOT / directory) in path.resolve().parents \
                and n_lines > limit:
            findings.append((path, n_lines,
                             f"SIZE {n_lines} lines > {limit} allowed "
                             f"in {directory}/"))
    try:
        tree = ast.parse(source, filename=str(path))
        compile(source, str(path), "exec")
    except SyntaxError as exc:
        return [(path, exc.lineno or 0, f"E999 {exc.msg}")]

    for directory, allowed in NO_MODULE_CACHES.items():
        if (REPO_ROOT / directory) in path.resolve().parents:
            findings.extend(
                (path, line, f"CACHE module-level cache '{name}' in "
                             f"{directory}/ (allowed: {sorted(allowed)})")
                for name, line in _module_caches(tree)
                if name not in allowed)

    for directory, classes in NO_PER_STREAM_DICTS.items():
        if (REPO_ROOT / directory) in path.resolve().parents:
            findings.extend(
                (path, line, f"STREAMSTATE {cls}.{attr} is a dict keyed by "
                             f"stream id; per-stream state lives on the "
                             f"stream half (allowed on {cls}: "
                             f"{sorted(classes[cls])})")
                for cls, attr, line in _per_stream_dicts(tree, classes))

    for directory, banned in NO_GC_CALLS.items():
        if (REPO_ROOT / directory) in path.resolve().parents:
            findings.extend(
                (path, line, f"GC gc.{name} in {directory}/: a finished "
                             f"world must free itself by refcount")
                for name, line in _gc_calls(tree, banned))

    if path.resolve() not in {REPO_ROOT / f for f in FFI_MODULES}:
        findings.extend(
            (path, line, f"FFI ctypes / _ctypes imported outside "
                         f"{', '.join(sorted(FFI_MODULES))}")
            for line in _ctypes_imports(tree))

    scope = _Scope()
    scope.visit(tree)
    if "*" not in scope.bound:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id not in scope.bound):
                findings.append((path, node.lineno,
                                 f"F821 undefined name '{node.id}'"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if (isinstance(op, (ast.Is, ast.IsNot))
                        and isinstance(comparator, ast.Constant)
                        and not isinstance(comparator.value,
                                           (bool, type(None)))):
                    findings.append(
                        (path, node.lineno,
                         "F632 use == to compare with a literal"))
    return findings


def _targets(node: ast.AST) -> List[ast.expr]:
    """What an assignment statement binds; nothing for other nodes."""
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _references(tree: ast.Module) -> Iterator[Tuple[str, int, bool]]:
    """(name, line, bare) of every reference in ``tree``: a name (``bare``),
    an attribute read, or a string literal (``getattr(obj, "name")``, a table
    of names) that is neither a docstring nor part of ``__all__`` or
    ``__slots__``.  Imports are not references, and comments are not in
    the tree."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body \
                and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant):
            skip.add(id(node.body[0].value))
        if getattr(node, "value", None) is not None and any(
                isinstance(target, ast.Name)
                and target.id in ("__all__", "__slots__")
                for target in _targets(node)):
            skip.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            yield node.value, node.lineno, False


def _definitions(tree: ast.Module) -> Iterator[Tuple[ast.AST, ast.AST]]:
    """(definition, scope) for every def and class in ``tree``: the
    scope is the module, class or function whose body binds its name."""
    stack: List[Tuple[ast.AST, ast.AST]] = [(tree, tree)]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield child, scope
                stack.append((child, child))
            else:
                stack.append((child, scope))


def check_dead_public() -> List[Finding]:
    """Public names defined under ``NO_DEAD_PUBLIC`` that no code in
    ``DEAD_ROOTS`` refers to outside their own definition, through the
    binding the definition makes (see DEAD in the module docstring)."""
    used: Dict[str, List[Tuple[Path, int, bool]]] = {}
    defined: List[Tuple[Path, ast.AST, ast.AST]] = []
    for path in iter_py_files([str(REPO_ROOT / r) for r in DEAD_ROOTS]):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue  # check_file reports it
        for name, line, bare in _references(tree):
            used.setdefault(name, []).append((path, line, bare))
        if (REPO_ROOT / NO_DEAD_PUBLIC) in path.parents:
            defined.extend(
                (path, node, scope) for node, scope in _definitions(tree)
                if not node.name.startswith("_")
                and node.name not in DEAD_ALLOWED)

    def reaches(path: Path, node: ast.AST, scope: ast.AST,
                where: Path, line: int, bare: bool) -> bool:
        if where == path and node.lineno <= line <= node.end_lineno:
            return False  # its own body
        if not bare or isinstance(scope, ast.Module):
            return True
        # a bare name reaches a nested def only inside its function
        return not isinstance(scope, ast.ClassDef) and where == path \
            and scope.lineno <= line <= scope.end_lineno

    return [(path, node.lineno,
             f"DEAD public name '{node.name}' is referenced by no code in "
             f"{', '.join(DEAD_ROOTS)} outside its definition")
            for path, node, scope in defined
            if not any(reaches(path, node, scope, *use)
                       for use in used.get(node.name, ()))]


def _stores(tree: ast.Module) -> Iterator[Tuple[str, str, int]]:
    """(class, attribute, line) of every field a class in ``tree``
    declares in its body and every attribute its methods store on
    ``self`` by ``=``, ``+=`` or an annotated assignment."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id, node.lineno
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for statement in ast.walk(node):
                for target in _targets(statement):
                    yield from ((cls.name, sub.attr, statement.lineno)
                                for sub in ast.walk(target)
                                if isinstance(sub, ast.Attribute)
                                and isinstance(sub.ctx, ast.Store)
                                and isinstance(sub.value, ast.Name)
                                and sub.value.id == "self")


def check_write_only() -> List[Finding]:
    """Attributes stored under ``NO_WRITE_ONLY`` that no code in
    ``DEAD_ROOTS`` reads (see WRITE in the module docstring)."""
    read = set()
    stored: Dict[Tuple[str, str], Tuple[Path, int]] = {}
    for path in iter_py_files([str(REPO_ROOT / r) for r in DEAD_ROOTS]):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue  # check_file reports it
        read.update(name for name, _line, bare in _references(tree)
                    if not bare)
        if (REPO_ROOT / NO_WRITE_ONLY) in path.parents:
            for cls, attr, line in _stores(tree):
                stored.setdefault((cls, attr), (path, line))
    return sorted((path, line, f"WRITE {cls}.{attr} is stored but read by "
                               f"no code in {', '.join(DEAD_ROOTS)}")
                  for (cls, attr), (path, line) in stored.items()
                  if attr not in read
                  and f"{cls}.{attr}" not in WRITE_ALLOWED)


def _config_fields(tree: ast.Module) -> Iterator[_Knobs]:
    """The fields of every ``@dataclass`` named ``*Config`` in ``tree``."""
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name.endswith("Config")
                and any("dataclass" in ast.unparse(d)
                        for d in cls.decorator_list)):
            continue
        fields: List[str] = []
        defaulted: List[Tuple[str, int]] = []
        defaults: Dict[str, str] = {}
        for node in cls.body:
            if not (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)) \
                    or "ClassVar" in ast.unparse(node.annotation) \
                    or "init=False" in ast.unparse(node.value or ast.Pass()):
                continue
            fields.append(node.target.id)
            if node.value is not None:
                defaulted.append((node.target.id, node.lineno))
                defaults[node.target.id] = ast.unparse(node.value)
        yield _Knobs(cls.name, cls.name, fields, defaulted, defaults,
                     config=True)


def _parameters(func: ast.FunctionDef, owner: str, callee: str,
                skip_first: bool) -> _Knobs:
    """The defaulted parameters of ``func``, called as ``callee``."""
    args = func.args
    positional = [*args.posonlyargs, *args.args]
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    first = 1 if skip_first else 0
    pairs = [(arg, default)
             for arg, default in [*zip(positional, defaults)][first:]
             + [*zip(args.kwonlyargs, args.kw_defaults)]
             if default is not None]
    return _Knobs(owner, callee, [arg.arg for arg in positional[first:]],
                  [(arg.arg, arg.lineno) for arg, _default in pairs],
                  {arg.arg: ast.unparse(default) for arg, default in pairs})


def _function_knobs(tree: ast.Module,
                    inherits: Dict[str, List[str]]) -> Iterator[_Knobs]:
    """The defaulted parameters of every public function, method and
    constructor at the top of ``tree``.  A constructor is called by its
    class's name and by the name of every subclass without one."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield _parameters(node, node.name, node.name, False)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) or (
                    method.name.startswith("_") and method.name != "__init__"):
                continue
            decorators = {ast.unparse(d) for d in method.decorator_list}
            if decorators & {"property", "overload", "typing.overload"}:
                continue
            skip_first = "staticmethod" not in decorators
            if method.name != "__init__":
                yield _parameters(method, f"{node.name}.{method.name}",
                                  method.name, skip_first)
                continue
            callers = [node.name]
            for name in callers:
                callers.extend(sub for sub in inherits.get(name, ())
                               if sub not in callers)
            for callee in callers:
                yield _parameters(method, node.name, callee, True)


def _callee(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _callees(tree: ast.Module) -> Iterator[Tuple[ast.Call, str]]:
    """(call, name it calls) for every call in ``tree``; inside a class,
    ``cls(...)`` calls the class and ``super().__init__(...)`` its
    bases, by name."""
    resolved = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for call in ast.walk(cls):
            if not isinstance(call, ast.Call):
                continue
            if _callee(call) == "cls":
                resolved[id(call)] = [cls.name]
            elif _callee(call) == "__init__" \
                    and isinstance(call.func.value, ast.Call) \
                    and _callee(call.func.value) == "super":
                resolved[id(call)] = [ast.unparse(base).split(".")[-1]
                                      for base in cls.bases]
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            for name in resolved.get(id(call), [_callee(call)]):
                yield call, name


#: calls whose arguments name a function or class without calling it
_NOT_CALLING = {"isinstance", "issubclass", "cast", "getattr", "setattr",
                "hasattr", "delattr", "vars"}


def _escapes(tree: ast.Module) -> Iterator[str]:
    """Names read in ``tree`` as a value rather than called: a function
    kept in a table, passed as a callback or bound to a variable is
    called with arguments the linter cannot see.  Annotations,
    subscripts, type tests, bases, ``except`` clauses and attribute
    access on a class do not count."""
    parents = {}
    types = set()  # ids of the nodes in annotations and subscripts
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
        spelled = (node.annotation if isinstance(node, (ast.arg,
                                                        ast.AnnAssign))
                   else node.returns if isinstance(node, ast.FunctionDef)
                   else node.slice if isinstance(node, ast.Subscript)
                   else None)
        if spelled is not None:
            types.update(map(id, ast.walk(spelled)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            continue
        parent = parents[node]
        if isinstance(parent, ast.Tuple):
            parent = parents[parent]
        if id(node) in types or isinstance(
                parent, (ast.Attribute, ast.Subscript, ast.ClassDef,
                         ast.ExceptHandler, ast.Raise, ast.Compare)):
            continue
        if isinstance(parent, ast.Call) and (
                parent.func is node or _callee(parent) in _NOT_CALLING):
            continue
        yield name


def check_unset_knobs() -> List[Finding]:
    """Defaulted ``*Config`` fields and defaulted parameters of public
    functions and constructors under ``NO_UNSET_KNOBS`` that no call in
    the repo's Python sets."""
    trees = []
    for path in iter_py_files([str(REPO_ROOT / r) for r in DEAD_ROOTS]):
        try:
            trees.append((path, ast.parse(path.read_text(),
                                          filename=str(path))))
        except SyntaxError:
            continue  # check_file reports it
    package = [(path, tree) for path, tree in trees
               if (REPO_ROOT / NO_UNSET_KNOBS) in path.parents]
    inherits: Dict[str, List[str]] = {}
    for _path, tree in package:
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and not any(
                    isinstance(m, ast.FunctionDef) and m.name == "__init__"
                    for m in cls.body):
                for base in cls.bases:
                    inherits.setdefault(ast.unparse(base).split(".")[-1],
                                        []).append(cls.name)
    declared = [(path, knobs) for path, tree in package
                for knobs in [*_config_fields(tree),
                              *_function_knobs(tree, inherits)]]
    by_callee: Dict[str, List[_Knobs]] = {}
    for _path, knobs in declared:
        by_callee.setdefault(knobs.callee, []).append(knobs)
    configs = [knobs for _path, knobs in declared if knobs.config]
    # a keyword to ``dict()`` or to a function's ``**kwargs``, or a key
    # of a dict literal, reaches whatever its module calls with a ``**``
    # mapping
    forwards = {"dict": set()}
    for _path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.args.kwarg is not None:
                forwards.setdefault(node.name, set()).update(
                    arg.arg for arg in [*node.args.posonlyargs,
                                        *node.args.args,
                                        *node.args.kwonlyargs])
    set_on = set()
    for _path, tree in trees:
        mapped: List[_Knobs] = []
        keys = {key.value for node in ast.walk(tree)
                if isinstance(node, ast.Dict) for key in node.keys
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)}
        for call, name in _callees(tree):
            for knobs in by_callee.get(name, ()):
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        set_on.update((knobs.owner, p)
                                      for p in knobs.positional[i:])
                        break
                    if i < len(knobs.positional):
                        set_on.add((knobs.owner, knobs.positional[i]))
                # a keyword spelling the default sets nothing
                set_on.update((knobs.owner, kw.arg) for kw in call.keywords
                              if kw.arg is None or ast.unparse(kw.value)
                              != knobs.defaults.get(kw.arg))
                if any(kw.arg is None for kw in call.keywords):
                    mapped.append(knobs)
            if name == "replace":
                set_on.update((knobs.owner, kw.arg) for knobs in configs
                              for kw in call.keywords)
            elif name in forwards:
                keys.update(kw.arg for kw in call.keywords
                            if kw.arg not in forwards[name])
        set_on.update((knobs.owner, key) for knobs in mapped for key in keys)
        for name in _escapes(tree):
            set_on.update((knobs.owner, p) for knobs in by_callee.get(name, ())
                          for p, _line in knobs.defaulted)
    findings = {(path, line, f"KNOB {knobs.owner}.{field} is set nowhere in "
                             f"{', '.join(DEAD_ROOTS)}; one value in "
                             f"use is a constant")
                for path, knobs in declared
                for field, line in knobs.defaulted
                if (knobs.owner, field) not in set_on}
    return sorted(findings)


def _module_names(root: Path) -> Dict[str, Path]:
    """Dotted module name -> file, for every module under ``root``."""
    modules = {}
    for path in iter_py_files([str(root)]):
        parts = path.relative_to(root.parent).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__"
                         else parts)] = path
    return modules


def _imported(tree: ast.Module, module: str,
              is_package: bool) -> Iterator[str]:
    """Every dotted name ``tree`` imports, with the packages above it; a
    ``from`` import also names each imported name as a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = module.split(".")[:None if is_package else -1]
                package = package[:len(package) - node.level + 1]
                base = ".".join([*package, *([base] if base else [])])
            names = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Call) and _callee(node) in (
                "import_module", "__import__") and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            names = [node.args[0].value]
        else:
            continue
        for name in names:
            parts = name.split(".")
            yield from (".".join(parts[:i]) for i in range(1, len(parts) + 1))


def check_reach() -> List[Finding]:
    """Modules under ``REACH_PACKAGE`` that no driver in ``REACH_ROOTS``
    imports, directly or through other modules."""
    modules = _module_names(REPO_ROOT / REACH_PACKAGE)
    names = {path: name for name, path in modules.items()}
    queue = list(iter_py_files([str(REPO_ROOT / r) for r in REACH_ROOTS]))
    reached = {names[path] for path in queue if path in names}
    while queue:
        path = queue.pop()
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue  # check_file reports it
        for imported in _imported(tree, names.get(path, path.stem),
                                  path.name == "__init__.py"):
            if imported in modules and imported not in reached:
                reached.add(imported)
                queue.append(modules[imported])
    return [(path, 1, f"REACH module '{name}' is imported by no driver "
                      f"({', '.join(REACH_ROOTS)}), directly or through "
                      f"other modules")
            for name, path in sorted(modules.items()) if name not in reached]


def main(argv: List[str]) -> int:
    roots = argv or ["src", "tests", "tools", "figures"]
    findings: List[Finding] = []
    n_files = 0
    lints_package = False
    for path in iter_py_files(roots):
        n_files += 1
        findings.extend(check_file(path))
        lints_package |= (REPO_ROOT / NO_DEAD_PUBLIC) in path.resolve().parents
    if lints_package:
        findings.extend(check_dead_public())
        findings.extend(check_write_only())
        findings.extend(check_unset_knobs())
        findings.extend(check_reach())
    for path, line, message in findings:
        print(f"{path}:{line}: {message}")
    if findings:
        print(f"{len(findings)} finding(s) in {n_files} files")
        return 1
    print(f"lint clean: {n_files} files (stdlib fallback; install ruff "
          "for the full rule set)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
