"""Static checks over the package source.

np.einsum with three or more operands and no optimize= contracts them
in one naive loop nest, O(N^4) for N x N matrices; such calls once took
95% of the oscillator integral's time. Every eigendecomposition goes
through linalg.eigh_batch, so the Hermiticity check, the width check
and the phase fixing are applied once, in one place. Process pools are
started only by the chunk engine, chern._map_chunks, so each top-level
call starts at most one. The lattice oracle forms its links only in
its chunk job, so pure_chern_fhs never holds a grid of frames or
links. chern never references the finite-difference curvature
(uhlmann_curvature_grid, _fd_shift_stack, _curvature_from_stack): its
integrals and sweep diagnostics use the closed-form curvature, and the
stencil stays an independent cross-check outside it. models imports no
package module but errors and linalg, since geometry and chern import
models. The checks parse src/ with ast so they see every call
regardless of formatting.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def unoptimised_einsums(tree: ast.AST):
    """Line numbers of einsum calls with >= 3 operands and no optimize."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "einsum" or any(isinstance(a, ast.Starred) for a in node.args):
            continue
        operands = len(node.args) - 1  # the first argument is the subscripts
        if operands >= 3 and not any(k.arg == "optimize" for k in node.keywords):
            found.append(node.lineno)
    return found


def test_detector_flags_only_unoptimised_three_operand_calls():
    code = "\n".join([
        'np.einsum("ij,jk,kl->il", a, b, c)',
        'np.einsum("ij,jk,kl->il", a, b, c, optimize=True)',
        'np.einsum("ij,jk->ik", a, b)',
        'einsum("i,i,i->", a, b, c)',
    ])
    assert unoptimised_einsums(ast.parse(code)) == [1, 4]


def test_no_unoptimised_multi_operand_einsum_in_src():
    files = sorted(SRC.rglob("*.py"))
    assert files
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in files
        for line in unoptimised_einsums(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offenders, f"einsum with >= 3 operands and no optimize=: {offenders}"


def eigh_call_sites(tree: ast.AST):
    """(enclosing function name or None, line) of every call to an
    eigh: x.linalg.eigh(...) or a bare eigh(...)."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Attribute) and f.attr == "eigh"
                    and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg") or (
                    isinstance(f, ast.Name) and f.id == "eigh"):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_detector_finds_eigh_calls_and_their_functions():
    code = "\n".join([
        "np.linalg.eigh(a)",
        "def eigh_batch(ms):",
        "    return np.linalg.eigh(ms)",
        "def other(m):",
        "    np.linalg.eigvalsh(m)",
        "    return numpy.linalg.eigh(m)",
        "def more(m):",
        "    return eigh(m)",
    ])
    assert eigh_call_sites(ast.parse(code)) == [
        (None, 1), ("eigh_batch", 3), ("other", 6), ("more", 8)]


def test_eigh_is_called_only_inside_eigh_batch():
    sites = [
        (str(path.relative_to(SRC)), func)
        for path in sorted(SRC.rglob("*.py"))
        for func, _ in eigh_call_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert sites == [("uhlmann_chern/linalg.py", "eigh_batch")]


def pool_construction_sites(tree: ast.AST):
    """(enclosing function name or None, line) of every
    ProcessPoolExecutor(...) construction, bare or as an attribute."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "ProcessPoolExecutor":
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_detector_finds_pool_constructions_and_their_functions():
    code = "\n".join([
        "ProcessPoolExecutor(2)",
        "def _map_chunks(jobs):",
        "    with ProcessPoolExecutor(max_workers=2) as pool:",
        "        return pool",
        "def other():",
        "    ThreadPoolExecutor(2)",
        "    return concurrent.futures.ProcessPoolExecutor()",
        "x = ProcessPoolExecutor",
    ])
    assert pool_construction_sites(ast.parse(code)) == [
        (None, 1), ("_map_chunks", 3), ("other", 7)]


def test_process_pools_are_started_only_by_the_chunk_engine():
    sites = [
        (str(path.relative_to(SRC)), func)
        for path in sorted(SRC.rglob("*.py"))
        for func, _ in pool_construction_sites(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert sites == [("uhlmann_chern/chern.py", "_map_chunks")]


def named_calls(tree: ast.AST, names):
    """(enclosing function name or None, called name, line) of every
    call to one of names, bare (f(...)) or as an attribute (np.f(...))."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in names:
                found.append((func, name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_detector_finds_named_calls_and_their_functions():
    code = "\n".join([
        "np.roll(a, 1)",
        "def pure_chern_fhs(model):",
        "    ux = _link_phases(a, b)",
        "    return numpy.roll(ux, -1, axis=0)",
        "def _fhs_job(model):",
        "    rolled = np.rollaxis(a, 1)",
        "    return chern._link_phases(a, rolled)",
        "x = _link_phases",
    ])
    assert named_calls(ast.parse(code), {"_link_phases", "roll"}) == [
        (None, "roll", 1), ("pure_chern_fhs", "_link_phases", 3),
        ("pure_chern_fhs", "roll", 4), ("_fhs_job", "_link_phases", 7)]


def test_fhs_links_are_formed_only_in_the_chunk_job():
    path = SRC / "uhlmann_chern" / "chern.py"
    sites = named_calls(ast.parse(path.read_text(), filename=str(path)), {"_link_phases", "roll"})
    assert not [site for site in sites if site[0] == "pure_chern_fhs"]
    assert {func for func, name, _ in sites if name == "_link_phases"} == {"_fhs_job"}


STENCIL_NAMES = {"uhlmann_curvature_grid", "_fd_shift_stack", "_curvature_from_stack"}


def name_references(tree: ast.AST, names):
    """(enclosing function name or None, name, line) of every reference
    to one of names: a bare name, an attribute or an imported name."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in names:
            found.append((func, name, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_detector_finds_name_references_and_their_functions():
    code = "\n".join([
        "from .geometry import uhlmann_curvature_grid, thermal_trace_grid",
        "def temperature_sweep(model):",
        "    f, rho = uhlmann_curvature_grid(model, pts, beta)",
        "    return geometry._fd_shift_stack",
        "def other(model):",
        "    uhlmann_curvature_grid_like = 1",
        "    return [_curvature_from_stack]",
    ])
    assert name_references(ast.parse(code), STENCIL_NAMES) == [
        (None, "uhlmann_curvature_grid", 1), ("temperature_sweep", "uhlmann_curvature_grid", 3),
        ("temperature_sweep", "_fd_shift_stack", 4), ("other", "_curvature_from_stack", 7)]


def test_chern_never_references_the_stencil():
    path = SRC / "uhlmann_chern" / "chern.py"
    assert name_references(ast.parse(path.read_text(), filename=str(path)), STENCIL_NAMES) == []


def package_imports(tree: ast.AST, package: str = "uhlmann_chern"):
    """Sorted names of the package modules a module imports, relative
    (from .x import y, from . import x) or absolute (import package.x,
    from package.x import y)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module != package and not module.startswith(package + "."):
                    continue
                module = module[len(package) + 1:]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith(package + "."))
    return sorted(found)


def test_detector_finds_package_imports():
    code = "\n".join([
        "import numpy as np",
        "from .errors import NonFiniteInput",
        "from .linalg.sub import x",
        "from . import geometry",
        "import uhlmann_chern.chern",
        "def f():",
        "    from uhlmann_chern.cli import main",
        "from uhlmann_chern import models",
        "from uhlmann_chern_extra import y",
    ])
    assert package_imports(ast.parse(code)) == [
        "chern", "cli", "errors", "geometry", "linalg", "models"]


def test_models_imports_only_errors_and_linalg():
    path = SRC / "uhlmann_chern" / "models.py"
    imported = package_imports(ast.parse(path.read_text(), filename=str(path)))
    assert set(imported) <= {"errors", "linalg"}, imported
