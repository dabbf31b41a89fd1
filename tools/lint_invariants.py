#!/usr/bin/env python
"""AST lint for repository invariants the type checker cannot express.

Two rules, both load-bearing for result-cache correctness:

1. **Frozen cache-key dataclasses.**  Every dataclass defined in a module on
   the cache-key path (workload shapes, codegen options, sweep plans, design
   configs) must be declared ``@dataclasses.dataclass(frozen=True)``.  These
   objects are hashed into result-cache keys and program memos; a mutable
   one could be altered after keying, silently detaching cached results from
   what they describe.  ``ALLOW_MUTABLE`` lists the reviewed exceptions
   (e.g. ``GemmKernel``, which is constructed then handed out whole and
   never used as a key).

2. **No wall-clock or randomness on deterministic paths.**  Modules that
   compute cache keys or lower workloads must not import ``time``,
   ``random``, ``secrets``, or ``uuid``: two runs over the same plan must
   produce byte-identical programs and keys.  (The CLI's progress output
   legitimately uses ``time`` — it is outside the scoped set.)

Two more rules apply to the *whole* ``src/repro/`` tree:

3. **No mutable default arguments.**  A ``def f(x, acc=[])`` default is
   created once and shared across calls; on memoizing paths (session memos,
   program caches) that aliasing corrupts results silently.  Defaults may
   not be list/dict/set literals anywhere under ``src/repro/``.

4. **No bare ``except:`` on runtime/analysis paths.**  ``repro.runtime``
   swallows per-job failures into reports and ``repro.analysis`` turns
   defects into diagnostics — a bare ``except:`` there also catches
   ``KeyboardInterrupt``/``SystemExit`` and buries oracle failures.  Catch
   a named exception (``except Exception`` at minimum) instead.

Run from the repository root::

    python tools/lint_invariants.py

Exit code 0 when clean; 1 with one ``file:line: message`` per violation.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import List, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Modules whose dataclasses feed result-cache keys / program memos, and
#: which therefore must also stay deterministic — plus the reference
#: engine recurrence, the reference fast model and the bounds oracle that
#: every cached cycle count is checked against.
SCOPED_MODULES: Tuple[str, ...] = (
    "repro/workloads/gemm.py",
    "repro/workloads/tiling.py",
    "repro/workloads/codegen.py",
    "repro/workloads/array_lowering.py",
    "repro/workloads/ops.py",
    "repro/workloads/lowering.py",
    "repro/workloads/suites.py",
    "repro/workloads/layers.py",
    "repro/workloads/training.py",
    "repro/isa/program.py",
    "repro/cpu/config.py",
    "repro/cpu/decode.py",
    "repro/cpu/fast.py",
    "repro/cpu/fastvec.py",
    "repro/cpu/steady.py",
    "repro/engine/config.py",
    "repro/engine/designs.py",
    "repro/engine/scheduler.py",
    "repro/analysis/bounds.py",
    "repro/runtime/plan.py",
    "repro/runtime/cache.py",
)

#: (module, class) pairs reviewed as legitimately mutable: not cache keys.
ALLOW_MUTABLE: frozenset = frozenset({
    ("repro/workloads/codegen.py", "GemmKernel"),
})

FORBIDDEN_IMPORTS: frozenset = frozenset({"time", "random", "secrets", "uuid"})

#: Module prefixes where a bare ``except:`` would bury oracle failures.
BARE_EXCEPT_PREFIXES: Tuple[str, ...] = ("repro/runtime/", "repro/analysis/")


def _dataclass_frozen(decorator: ast.expr) -> bool:
    """Whether a decorator node is ``dataclass(..., frozen=True)``."""
    if not isinstance(decorator, ast.Call):
        return False  # bare @dataclass / @dataclasses.dataclass: not frozen
    for kw in decorator.keywords:
        if kw.arg == "frozen":
            return isinstance(kw.value, ast.Constant) and kw.value.value is True
    return False


def _is_dataclass_decorator(decorator: ast.expr) -> bool:
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass"
    return isinstance(node, ast.Name) and node.id == "dataclass"


def check_file(path: pathlib.Path, module: str) -> List[str]:
    """Return ``file:line: message`` strings for every violation in one file."""
    problems: List[str] = []
    try:
        shown = path.relative_to(REPO)
    except ValueError:
        shown = path
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            decorators = [d for d in node.decorator_list if _is_dataclass_decorator(d)]
            if decorators and (module, node.name) not in ALLOW_MUTABLE:
                if not any(_dataclass_frozen(d) for d in decorators):
                    problems.append(
                        f"{shown}:{node.lineno}: dataclass "
                        f"{node.name!r} on the cache-key path must be "
                        "declared frozen=True (or allow-listed in "
                        "tools/lint_invariants.py)"
                    )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in FORBIDDEN_IMPORTS:
                    problems.append(
                        f"{shown}:{node.lineno}: import of "
                        f"{alias.name!r} in a deterministic cache-key/lowering "
                        "module"
                    )
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if node.level == 0 and root in FORBIDDEN_IMPORTS:
                problems.append(
                    f"{shown}:{node.lineno}: import from "
                    f"{node.module!r} in a deterministic cache-key/lowering "
                    "module"
                )
    return problems


def _mutable_default(node: ast.expr) -> bool:
    """Whether a default-value node is a shared-across-calls mutable literal."""
    return isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp))


def check_tree_rules(path: pathlib.Path, module: str) -> List[str]:
    """The repo-wide rules: mutable defaults (everywhere under ``src/repro``)
    and bare ``except:`` (on the :data:`BARE_EXCEPT_PREFIXES` paths)."""
    problems: List[str] = []
    try:
        shown = path.relative_to(REPO)
    except ValueError:
        shown = path
    check_excepts = module.startswith(BARE_EXCEPT_PREFIXES)
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _mutable_default(default):
                    name = getattr(node, "name", "<lambda>")
                    problems.append(
                        f"{shown}:{default.lineno}: mutable default argument "
                        f"in {name!r} is shared across calls; default to "
                        "None (or a frozen value) and build inside the body"
                    )
        elif check_excepts and isinstance(node, ast.ExceptHandler):
            if node.type is None:
                problems.append(
                    f"{shown}:{node.lineno}: bare 'except:' on a "
                    "runtime/analysis path also catches KeyboardInterrupt "
                    "and buries oracle failures; name the exception "
                    "(at minimum 'except Exception')"
                )
    return problems


def main(argv: List[str]) -> int:
    problems: List[str] = []
    missing: List[str] = []
    for module in SCOPED_MODULES:
        path = SRC / module
        if not path.exists():
            missing.append(module)
            continue
        problems.extend(check_file(path, module))
    tree_files = sorted(SRC.glob("repro/**/*.py"))
    for path in tree_files:
        problems.extend(check_tree_rules(path, path.relative_to(SRC).as_posix()))
    for module in missing:
        problems.append(f"{module}: scoped module missing (update the list?)")
    for line in problems:
        print(line)
    if not problems:
        print(
            f"lint_invariants: {len(SCOPED_MODULES)} scoped modules and "
            f"{len(tree_files)} tree files clean"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
