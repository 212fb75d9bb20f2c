"""Every module uses each name it imports, every module-level private name
of the package is referenced outside its own definition, and importing the
CLI and running the convergence config leave ``scipy.stats``,
``scipy.integrate`` and ``scipy.special`` unloaded.

The package's ``__init__.py`` is exempt from the import scan: its imports
are the public re-exports.
"""
import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import airmeta

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "airmeta").glob("*.py"))
MODULES = sorted(
    [p for p in (ROOT / "src" / "airmeta").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that no expression
    reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds ``a``
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nimport x.y\nnp.f(c, x)\n"
    assert unused_imports(source) == ["os", "d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def reads(node) -> Counter:
    """How often code under ``node`` reads each name, as a name or as an
    attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                   or isinstance(n, ast.Attribute))


def unreferenced_private_names(sources: dict) -> list[str]:
    """The private names (``_x``, not ``__x__``) that a statement at the top
    level of one of ``sources`` (module name -> source) defines, as
    ``module.name``, that no code of any of them reads outside that
    statement."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum(map(reads, trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            inside = reads(stmt)
            found += [f"{module}.{name}" for name in names if name.startswith("_")
                      and not name.endswith("__") and everywhere[name] == inside[name]]
    return found


def test_scan_flags_an_unreferenced_private_name():
    sources = {"a": "_A = 1\n_B = 2\n__all__ = []\n"
                    "def _f(n):\n    return _f(n - 1) + _A\n"
                    "class _C:\n    pass\n",
               "b": "from a import _C\nimport a\nprint(_C, a._B)\n"}
    assert unreferenced_private_names(sources) == ["a._f"]


def test_every_private_name_of_the_package_is_referenced():
    assert unreferenced_private_names({p.stem: p.read_text() for p in PACKAGE}) == []


def test_importing_the_cli_loads_no_scipy_stats(tmp_path):
    """``import airmeta.cli`` and a run of the convergence config load none
    of ``scipy.stats``, ``scipy.integrate`` or ``scipy.special``: the bound
    constants read their chi-squared moment from a table for every dim up to
    256, and ``scipy.stats`` would add most of the import's time."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import airmeta.cli; "
            "code = airmeta.cli.main(['run', '--config', sys.argv[2], '--out-dir', sys.argv[3]]); "
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'integrate'], "
            "['scipy', 'special'])))")
    src = str(Path(airmeta.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code, src,
                          str(ROOT / "configs" / "convergence.json"), str(tmp_path / "conv")],
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "0 []"
