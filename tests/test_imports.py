"""Every module uses each name it imports, every module-level private name
of the package is referenced outside its own definition, and a CLI call
imports only what its command runs.

In fresh interpreters: importing the CLI loads no scipy, no process pool
module (``multiprocessing``, ``concurrent.futures``) and not the verify
suite; a run of the convergence config loads no scipy and records
``environment.scipy`` as null; a run past the chi-squared table loads scipy
and records its version; and a sweep's pool, imported when it forks,
writes the bytes of the serial sweep.

The package's ``__init__.py`` is exempt from the import scan: its imports
are the public re-exports.
"""
import ast
import json
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


def fresh(code: str, *args) -> str:
    """The last line that ``code`` prints, run in a fresh interpreter that
    imports this package's sources, with ``args`` in ``sys.argv[1:]``."""
    src = str(Path(airmeta.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
                           + code, *map(str, args)],
                          capture_output=True, text=True, check=True).stdout.splitlines()[-1]


def loaded(*prefixes) -> str:
    """Code for the sorted names of the loaded modules that begin with one
    of ``prefixes``."""
    return f"sorted(m for m in sys.modules if m.startswith({prefixes!r}))"


def test_a_cli_call_imports_only_what_its_command_runs(tmp_path):
    """``import airmeta.cli`` loads no scipy, no process pool and not the
    verify suite, and a run of the convergence config then loads no scipy
    and writes ``environment.scipy`` as null: at dim <= 256 no byte it
    writes depends on scipy."""
    out = fresh("import airmeta.cli; "
                f"imported = {loaded('scipy', 'multiprocessing', 'concurrent', 'airmeta.verify')}; "
                "code = airmeta.cli.main(['run', '--config', sys.argv[1], '--out-dir', sys.argv[2]]); "
                f"print(imported, code, {loaded('scipy')})",
                ROOT / "configs" / "convergence.json", tmp_path / "conv")
    assert out == "[] 0 []"
    manifest = json.loads((tmp_path / "conv" / "manifest.json").read_text())
    assert manifest["environment"]["scipy"] is None


def test_a_run_past_the_chi2_table_records_scipy(tmp_path):
    """Past dim 256 the bound constants run scipy's quadrature, so the
    manifest names the scipy version the summary's bytes depend on."""
    import scipy

    cfg = json.loads((ROOT / "configs" / "convergence.json").read_text())
    (tmp_path / "dim300.json").write_text(json.dumps(cfg | {"dim": 300, "rounds": 2}))
    out = fresh("import airmeta.cli; "
                "print(airmeta.cli.main(['run', '--config', sys.argv[1], '--out-dir', sys.argv[2]]))",
                tmp_path / "dim300.json", tmp_path / "dim300")
    assert out == "0"
    manifest = json.loads((tmp_path / "dim300" / "manifest.json").read_text())
    assert manifest["environment"]["scipy"] == scipy.__version__


def test_a_sweep_imports_its_pool_when_it_forks_one(tmp_path):
    """``sweep --threads 2`` imports the pool modules inside ``run_trials``
    and writes the same ``aggregate.csv`` and ``point.json`` bytes as
    ``--threads 1``, which imports no pool."""
    spec = json.loads((ROOT / "configs" / "sweep_snr.json").read_text())
    spec |= {"values": [0.0, 20.0], "seeds": 2, "base": spec["base"] | {"rounds": 10}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    code = ("import airmeta.cli; "
            "code = airmeta.cli.main(['sweep', '--spec', sys.argv[1], '--out-dir', sys.argv[2], "
            "'--threads', sys.argv[3]]); "
            f"print(code, {loaded('multiprocessing', 'concurrent')} != [])")
    for threads, pool in ((1, False), (2, True)):
        assert fresh(code, tmp_path / "spec.json", tmp_path / f"t{threads}", threads) \
            == f"0 {pool}"
    serial, pooled = ({str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*")
                       if p.is_file()} for out in (tmp_path / "t1", tmp_path / "t2"))
    assert sorted(serial) == ["aggregate.csv", "snr_db_0/point.json", "snr_db_20/point.json"]
    assert serial == pooled
