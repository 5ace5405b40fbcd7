"""The names perfbench imports and hooks into must exist in the package.

The tracer (perfbench/tracing.py) wraps public functions by name, the walk
entry points the estimators module calls, and BlockUniforms.step.  A rename
in the package would leave a traced run that silently reads 0 on a layer,
and a removed name or method that the benchmark reads (an import, a dotted
``rwrelab.`` name, a method of a materialized environment) would fail its
whole run, so the names are checked here without importing the benchmark.
"""

import ast
from pathlib import Path

import rwrelab
import rwrelab.estimators
import rwrelab.rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _perfbench_nodes():
    """Every AST node of perfbench's Python files."""
    for path in sorted(PERFBENCH.glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text()))


def _dotted(node) -> tuple:
    """The names of an attribute chain such as a.b.c, or () if the chain
    does not start at a name."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return (node.id, *reversed(names)) if isinstance(node, ast.Name) else ()


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


def test_perfbench_dotted_package_names_resolve():
    chains = {chain for node in _perfbench_nodes()
              if isinstance(node, ast.Attribute)
              for chain in [_dotted(node)] if chain[:1] == ("rwrelab",)}
    assert ("rwrelab", "materialize") in chains
    assert ("rwrelab", "rng", "BlockUniforms", "step") in chains
    missing = []
    for chain in sorted(chains):
        obj = rwrelab
        for name in chain[1:]:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(".".join(chain))
    assert missing == []


def test_perfbench_env_methods_exist_on_a_materialized_env():
    called = {node.func.attr for node in _perfbench_nodes()
              if isinstance(node, ast.Call) and _dotted(node.func)[:1] == ("env",)
              and len(_dotted(node.func)) == 2}
    assert "rho" in called
    env = rwrelab.materialize(rwrelab.IIDConductance(rwrelab.ScalarDist.constant(1.0)),
                              0, (-2, 2))
    assert isinstance(env, rwrelab.DiscreteEnv)
    assert [name for name in sorted(called) if not callable(getattr(env, name, None))] == []
