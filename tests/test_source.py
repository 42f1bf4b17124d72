import ast
import importlib.util
import inspect
from pathlib import Path

import polysing

SRC = Path(polysing.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_no_assert_statements_in_package():
    """Invariant checks raise InternalCheck; `assert` would vanish under python -O."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _referenced_names(node) -> set:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name, node.asname}
    return set()


def test_double_description_is_referenced_only_in_polyhedra():
    """Every normal cone and half-space description goes through polyhedra."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "polyhedra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if "_dd_halfspaces" in _referenced_names(node):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found


def test_solve_exact_is_referenced_only_in_ratlin_and_polytope_vertices():
    """The divisor-class system and the rational scan solve over Smith forms;
    the Fraction solver serves the vertex enumeration (and stays exported by
    the package)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("ratlin.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree) if path.name == "polyhedra.py" else ():
            if isinstance(node, ast.ImportFrom) or (
                isinstance(node, ast.FunctionDef) and node.name == "polytope_vertices"
            ):
                allowed |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if "solve_exact" in _referenced_names(node) and id(node) not in allowed:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found


def test_minkowski_sum_is_referenced_only_in_polyhedra_and_deg_polyhedron():
    """Properness, extremal rays and the isolatedness facets read Minkowski
    sums off sums of support values; the sum itself stays a public reference
    (the benchmark's tracer wraps it by name) behind `pdiv.deg_polyhedron`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("polyhedra.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree) if path.name == "pdiv.py" else ():
            if isinstance(node, ast.ImportFrom) or (
                isinstance(node, ast.FunctionDef) and node.name == "deg_polyhedron"
            ):
                allowed |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if "minkowski_sum" in _referenced_names(node) and id(node) not in allowed:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found


def test_unimodular_inverse_and_saturation_are_referenced_only_in_ratlin():
    """Lattice bases adapted to a sublattice are read off one Smith form,
    through its right_inverse; the two helpers stay public oracles."""
    names = {"invert_unimodular", "saturated_basis"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "ratlin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if names & _referenced_names(node):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, found


def test_vertex_rows_are_made_only_in_sigma_polyhedron():
    """A sigma-polyhedron stores integer rows over one denominator:
    `sigma_polyhedron` is the one place that reads a vertex coordinate's
    numerator, and singcheck and ufdgen take each multiplicity from a row
    through `lattice_multiple`, not from `mu` of a Fraction vertex."""
    found = []
    for name in ("polyhedra", "pdiv", "divclass", "singcheck", "ufdgen"):
        path = SRC / f"{name}.py"
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        for node in ast.walk(tree) if name == "polyhedra" else ():
            if isinstance(node, ast.FunctionDef) and node.name == "sigma_polyhedron":
                allowed |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "numerator" and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
            elif name in ("singcheck", "ufdgen") and "mu" in _referenced_names(node):
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}: mu")
    assert not found, found


def _unbounded_caches(tree):
    """`functools.cache` and `lru_cache(maxsize=None)` nodes of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                yield node
        elif isinstance(node, ast.Call) and "lru_cache" in _referenced_names(node.func):
            size = node.args[0] if node.args else None
            size = next((k.value for k in node.keywords if k.arg == "maxsize"), size)
            if isinstance(size, ast.Constant) and size.value is None:
                yield node


def test_no_unbounded_caches_in_package():
    """Analysis results live on the divisor or datum they describe; a global
    cache without bound would keep every divisor of a batch run alive."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in _unbounded_caches(ast.parse(path.read_text(), str(path))):
            found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_trace_layers_resolve():
    """Every function the benchmark's tracer wraps exists in its module."""
    tracing = _bench_tracing()
    missing = []
    for layer, names in tracing.LAYERS.items():
        module = importlib.import_module(f"polysing.{layer}")
        missing += [f"{layer}.{n}" for n in names if not callable(getattr(module, n, None))]
    assert not missing, missing


def test_bench_trace_generators_are_generator_functions():
    """The tracer charges each resumption of these functions as a span of its
    own, which is only right for generator functions."""
    wrong = []
    for qualname in sorted(_bench_tracing().GENERATORS):
        layer, name = qualname.split(".")
        fn = getattr(importlib.import_module(f"polysing.{layer}"), name, None)
        if not inspect.isgeneratorfunction(fn):
            wrong.append(qualname)
    assert not wrong, wrong
