"""No production code that only tests call: every function, method and
class defined in ``src/repro`` is referenced from ``src/``, ``benchmarks/``,
``nrpbench/`` or ``jobs/``, by a name, an attribute or a string (the
benchmark tracer patches methods by their names). An import alone, such as
a package ``__init__`` re-export, is not a reference. And no DataFrame
layer comes back: no module, tests included, imports
``pyspark.sql.functions`` or ``duckdb``. And only ``graphs/edgelist.py``
reads a graph's CSR arrays or makes an edge list canonical."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks", "nrpbench", "jobs")

#: Defined in src/repro and referenced only from tests, each for a reason.
#: Every entry must still be unreferenced, so the list shrinks with the code.
ALLOWED = {
    # reference oracles that tests check the fast code against
    "naive_backward_terms",  # Eq. (7) per-node terms, O(n^2 k'^2)
    "naive_forward_terms",  # Eq. (23) per-node terms, O(n^2 k'^2)
    "ppr_truncated",  # Eq. (3) truncated PPR matrix
}


def _definitions(tree: ast.Module) -> list[str]:
    """Qualified names of the module's functions, classes and methods;
    dunder methods are left out, since Python calls them."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    out.append(prefix + child.name)
                inner = (prefix + child.name + "."
                         if isinstance(child, ast.ClassDef) else prefix)
                visit(child, inner)
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _references(tree: ast.Module) -> set[str]:
    """Every name the module reads or spells as an identifier string."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs.add(node.value)
    return refs


def test_every_definition_has_a_non_test_reference():
    refs: set[str] = set()
    defined = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            refs |= _references(tree)
            if top == "src":
                rel = path.relative_to(ROOT)
                defined += [(str(rel), q) for q in _definitions(tree)]
    assert defined, "no definitions found under src/"
    unreferenced = {
        (rel, q) for rel, q in defined if q.rsplit(".", 1)[-1] not in refs
    }
    unused = sorted(f"{rel}: {q}" for rel, q in unreferenced
                    if q not in ALLOWED)
    assert not unused, "only tests reference:\n" + "\n".join(unused)
    stale = ALLOWED - {q for _, q in unreferenced}
    assert not stale, f"allowed but referenced or gone: {sorted(stale)}"


def _imported_modules(tree: ast.Module) -> set[str]:
    """Dotted names of the modules the module imports, including each
    ``from package import name`` as ``package.name``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.add(node.module)
            out |= {f"{node.module}.{a.name}" for a in node.names}
    return out


def test_dataframe_layer_stays_fenced():
    # Spark runs only SparkGraph's broadcast jobs; no module builds
    # DataFrame columns or queries, so none needs these imports
    fenced = ("duckdb", "pyspark.sql.functions")
    importers = []
    for path in sorted(p for top in SCANNED + ("tests",)
                       for p in (ROOT / top).rglob("*.py")):
        mods = _imported_modules(ast.parse(path.read_text(), str(path)))
        rel = path.relative_to(ROOT).as_posix()
        importers += [(rel, m) for m in sorted(mods)
                      if any(m == f or m.startswith(f + ".") for f in fenced)]
    assert importers == []


def _modules_calling(names: set[str]) -> set[str]:
    """The modules of ``src/repro`` that call a function or a method named
    in ``names``."""
    src = ROOT / "src" / "repro"
    callers = set()
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else (
                    f.id if isinstance(f, ast.Name) else None)
                if name in names:
                    callers.add(path.relative_to(src).as_posix())
    return callers


def test_csr_readers_stay_fenced():
    # the JDS plans and random_walks read csr()/csr_t(); with no reader
    # elsewhere, what a graph caches is decided in one module
    assert _modules_calling({"csr", "csr_t"}) == {"graphs/edgelist.py"}


def test_canonical_edges_stays_fenced():
    # LocalGraph.from_edges and grow_edges make edge lists canonical; every
    # other module grows its edge lists through grow_edges, so there is one
    # edge format and one loop that keeps it
    assert _modules_calling({"canonical_edges"}) == {"graphs/edgelist.py"}
