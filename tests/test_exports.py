"""The package's public surface: ``zdglab.__all__`` and ``from zdglab import *``,
that nothing else in ``src/zdglab`` is defined without a caller there, and
that every name the benchmark tracer wraps still exists."""

import ast
import importlib.util
import pathlib

import zdglab
from zdglab import CatalogueEntry, all_ideals, build_zn, gamma, gamma_ideal, generate_ideal, verifier


def test_every_exported_name_resolves():
    assert len(zdglab.__all__) == len(set(zdglab.__all__))
    assert [name for name in zdglab.__all__ if not hasattr(zdglab, name)] == []
    namespace = {}
    exec("from zdglab import *", namespace)
    assert set(zdglab.__all__) <= set(namespace)


def test_every_top_level_definition_has_a_caller_or_is_exported():
    # a name counts as used when some code in src/ outside its own
    # definition reads it, as a name or an attribute; imports do not count
    src = pathlib.Path(zdglab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    reads: dict[str, set[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                reads.setdefault(getattr(node, "id", None) or node.attr, set()).add(id(node))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in zdglab.__all__
        and reads.get(node.name, set()) <= {id(inner) for inner in ast.walk(node)}
    ]
    assert "rings.py" in trees
    assert unused == []


def test_every_import_is_read():
    # an imported name counts as read when some code in its module loads it;
    # __future__ imports and the names __init__ re-exports are exempt
    paths = sorted(pathlib.Path(zdglab.__file__).parent.glob("*.py"))
    assert "verifier.py" in {path.name for path in paths}
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            read |= set(zdglab.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.name}:{name}" for name in names if name not in read]
    assert unread == []


def test_every_tracer_target_resolves():
    # perfbench/tracer.py records a missing target as a null metric instead
    # of failing, so a renamed function would silently drop its layer
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    unresolved = []
    for span, module, attr in tracer.TARGETS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            unresolved.append((span, module, attr))
    assert unresolved == []
    assert tracer.CHECK_NAMES == verifier.CHECK_NAMES


def test_every_tracer_result_counter_reads_a_real_result():
    # a counter that raises AttributeError, KeyError or TypeError on a
    # changed result type is recorded as missing and its metrics read null
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    ring = build_zn(4)
    results = {
        "rings.build": ring,
        "ideals.all_ideals": all_ideals(ring),
        "graphs.gamma_ideal": gamma_ideal(ring, generate_ideal(ring, [2])),
        "graphs.gamma": gamma(ring),
        "verifier.evaluate_entry": verifier.evaluate_entry(CatalogueEntry("Zn:4")),
    }
    assert set(results) == set(tracer.RESULT_COUNTERS)
    recorder = tracer.Tracer()
    for span, result in results.items():
        assert recorder.wrap(lambda: result, span)() is result
    assert recorder.missing == set()
    listed = {metric for _, metrics in tracer.RESULT_COUNTERS.values() for metric in metrics}
    assert listed == set(recorder.counters)
    assert recorder.counters["graphs.built"] == 2 and recorder.counters["ideals.enumerated"] == 3
