"""The names perfbench imports and hooks into must exist in the package.

The tracer (perfbench/tracing.py) wraps public functions by name, the walk
entry points the estimators module calls, and BlockUniforms.step.  A rename
in the package would leave a traced run that silently reads 0 on a layer,
and a removed name that the benchmark imports would fail its whole run, so
the names are checked here without importing the benchmark.
"""

import ast
from pathlib import Path

import rwrelab
import rwrelab.estimators
import rwrelab.rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _api_layers() -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "API_LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no API_LAYERS")


def test_traced_api_names_are_package_attributes():
    names = _api_layers()
    assert "velocity_jump_probe" in names and "renewal_product_moment" in names
    missing = [name for name in names if not callable(getattr(rwrelab, name, None))]
    assert missing == []


def test_traced_walk_and_rng_hooks_exist():
    # the tracer rebinds these module-level names of rwrelab.estimators
    for name in ("ensemble_discrete", "ensemble_continuous"):
        assert callable(vars(rwrelab.estimators).get(name))
    assert callable(getattr(rwrelab.rng.BlockUniforms, "step", None))


def test_perfbench_imports_are_package_attributes():
    names = [(path.name, alias.name)
             for path in sorted(PERFBENCH.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "rwrelab"
             and node.level == 0
             for alias in node.names]
    assert ("workloads.py", "velocity_rcm_discrete") in names
    assert [n for n in names if not hasattr(rwrelab, n[1])] == []
