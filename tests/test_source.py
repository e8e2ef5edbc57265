"""Static checks over the package source.

np.einsum with three or more operands and no optimize= contracts them in
one naive loop nest, O(N^4) for N x N matrices; such calls once took 95%
of the oscillator integral's time. Every eigendecomposition goes through
linalg.eigh_batch, so the Hermiticity check, the width check and the
phase fixing are applied once, in one place. Process pools are started
only by the chunk engine, chern._map_chunks, so each top-level call
starts at most one, and no module imports subprocess, so that pool is
the package's only source of child processes. The lattice oracle forms
its links only in its chunk job, so pure_chern_fhs never holds a grid of
frames or links. chern never references the finite-difference curvature
(uhlmann_curvature_grid, _fd_shift_stack, _curvature_from_stack): its
integrals and sweep diagnostics use the closed-form curvature, and the
stencil stays an independent cross-check outside it. The stencil
differences connection_grid, the one connection kernel, and only it and
thermal_trace_grid call spectral_data_grid. models imports no package
module but errors and linalg, since geometry and chern import models.
The Haldane chunk kernels stay batch-major: _trace_pairs,
_eps_contraction and _link_phases pass no optimize= to np.einsum (on
stacks of small matrices the path search and the per-matrix products it
picks cost more than one plain two-operand contraction), and
Haldane.r_vector_batch, r_gradient_batch and their models._bond_phases
and _bond_sum make no .sum(axis=...) over the three bonds. The
finite-temperature curvature kernels, curvature_frame_grid and
uhlmann_curvature_from_frame, use no @ and no matmul: their matrix
products go only through geometry._commutators, one block product per
block of points instead of one small stacked product per direction pair. GAP_FLOOR is
read only inside geometry._require_isolated, the one gap rule of the
pure-state curvatures and the lattice oracle, so no second copy of the
rule can drift from it. In the same way BLOCK_ENTRIES is read only
inside geometry._blocks, the one block rule: the first-order spectral
blocks (geometry._spectral_blocks, whose ranges the walkers
geometry.thermal_trace_grid, chern._map_job, the ground walk, and the
hook's ground-block walk geometry._ground_frame take),
_commutators and _trace_pairs take their blocks from it. The CLI runs no
walk itself: cli.py defines no chunk job and calls none of the walk's
steps (verify's check of the mixing coefficients weighs random spectra,
outside any walk), so map and the zero-temperature first-order integral
share the one ground walk. Every
range list comes from geometry._ranges: _blocks, the chunk engine's
fixed chunks (chern._map_chunks) and the lattice oracle's row blocks
(chern.pure_chern_fhs). A GapClosed for a ground degeneracy that varies is
raised only by geometry._ground_size, within a batch, and by
chern._map_chunks, across chunks, so no caller of the engine keeps its own
copy of the cross-chunk rule. CoherentOscillator.eigenframe_batch calls
_to_fock once and has no loop: one sandwich Q serves both directions'
X = D^dagger dD (Q^dagger - Q and i (Q^dagger + Q)), where a loop over
directions once made two. Inside FourBandGamma only r_jet_batch calls sin or
cos, so r and its four gradients come from one trig pass, and the
determinant route's chern._closed_form_partials stacks no matrix and calls
no np.linalg.det: the model's r_determinant_batch forms the determinant in
closed form, on R/|R|, and hands back |R| with it, so the route forms no
norm (no hypot). The CLI decides each of its rules once: cli.main has one
return 2, the one handler that maps config errors from reading, parsing,
the schema and the commands, and verify reads its degeneracy tolerance in
cmd_verify, so no _check_* calls _degeneracy_tol.
Tangent matrices have one path: the eigenbasis gradients are formed only
in geometry._frame_data, and the gap mask and division only in
geometry._spectral_data, which every grid kernel and per-point view
runs, and in geometry._ground_rows, which divides the ground-excited block
alone for the ground-block jobs. Those jobs (ground_block_curvature_grid,
chern._second_order_job and their geometry._ground_frame) call neither
_run_rows nor np.delete, and models._FRAME, the four-band eigenvector table,
is read only in models._gamma_eigenpairs, the one routine that forms v, so the
ground-block hook FourBandGamma.ground_block_batch forms none. src/ raises no bare ValueError: an argument error is an
InvalidArgument (a ValueError too), so callers can catch every
deliberate error as a UhlmannChernError. src/ stays within pinned counts
of total lines and of code lines (non-blank lines outside docstrings and
comment-only lines), so a change that grows it must raise the pins and
say why. The checks parse src/ with ast so they see every call
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


def imported_modules(tree: ast.AST):
    """Sorted top-level names of the absolute imports of a module (import
    x.y, from x.y import z), wherever they sit; relative imports are skipped."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found)


def test_detector_finds_absolute_imports_anywhere():
    code = "\n".join([
        "import numpy as np, os.path",
        "from .errors import GapClosed",
        "from concurrent.futures import ProcessPoolExecutor",
        "def version():",
        "    import subprocess",
        "    from . import chern",
    ])
    assert imported_modules(ast.parse(code)) == ["concurrent", "numpy", "os", "subprocess"]


def test_no_module_imports_subprocess():
    offenders = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
                 if "subprocess" in imported_modules(ast.parse(path.read_text(),
                                                              filename=str(path)))]
    assert not offenders, offenders


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
    # No np.roll copies: the oracle's links and plaquettes are slices.
    assert not [site for site in sites if site[1] == "roll"]
    assert {func for func, name, _ in sites if name == "_link_phases"} == {"_fhs_job"}


TANGENT_STEPS = {"_eigenbasis_gradients", "_gap_mask", "_divide_gaps"}


def test_tangents_have_one_path():
    sites = set()
    for path in sorted((SRC / "uhlmann_chern").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites |= {(path.name, func, name) for func, name, _ in named_calls(tree, TANGENT_STEPS)}
    assert sites == {("geometry.py", "_frame_data", "_eigenbasis_gradients"),
                     ("geometry.py", "_spectral_data", "_gap_mask"),
                     ("geometry.py", "_spectral_data", "_divide_gaps"),
                     ("geometry.py", "_ground_rows", "_gap_mask"),
                     ("geometry.py", "_ground_rows", "_divide_gaps")}


GROUND_JOBS = {"ground_block_curvature_grid", "_second_order_job", "_ground_frame"}


def test_the_ground_jobs_cut_no_rows_from_a_whole_stack():
    sites, jobs = [], set()
    for path in sorted((SRC / "uhlmann_chern").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites += [(func, name) for func, name, _ in named_calls(tree, {"_run_rows", "delete"})]
        jobs |= {func for func, _, _ in named_calls(tree, {"_ground_rows"})}
    assert not [site for site in sites if site[0] in GROUND_JOBS], sites
    assert GROUND_JOBS <= jobs  # the rule still names live code


def test_the_eigenvector_table_is_read_only_where_v_is_formed():
    path = SRC / "uhlmann_chern" / "models.py"
    reads = {func for func, _ in name_reads(ast.parse(path.read_text(), filename=str(path)),
                                            "_FRAME")}
    assert reads - {None} == {"_gamma_eigenpairs"}, reads  # None: the module freezes it


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
        "    f = uhlmann_curvature_grid(model, pts, beta)",
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


def test_the_stencil_differences_the_one_connection_kernel():
    sites = set()
    for path in sorted((SRC / "uhlmann_chern").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites |= {(func, name) for func, name, _ in
                  named_calls(tree, {"spectral_data_grid", "connection_grid"})}
    assert {func for func, name in sites if name == "spectral_data_grid"} == {
        "thermal_trace_grid", "connection_grid"}
    assert ("uhlmann_curvature_grid", "connection_grid") in sites


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


def calls_by_function(tree: ast.AST):
    """(qualified enclosing function, call node) of every call inside a
    function; methods read Class.method and nested functions outer.inner."""
    found = []

    def visit(node, scope, in_func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
            in_func = in_func or not isinstance(node, ast.ClassDef)
        elif isinstance(node, ast.Call) and in_func:
            found.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_func)

    visit(tree, "", False)
    return found


def batch_major_violations(tree: ast.AST, einsum_funcs, sum_funcs):
    """(function, line, what) of every np.einsum call with an optimize
    keyword inside einsum_funcs and every x.sum(axis=...) or
    np.sum(x, axis=...) call inside sum_funcs; a function covers the
    functions nested in it."""

    def within(scope, names):
        return any(scope == n or scope.startswith(n + ".") for n in names)

    found = []
    for scope, node in calls_by_function(tree):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        keywords = {k.arg for k in node.keywords}
        if name == "einsum" and "optimize" in keywords and within(scope, einsum_funcs):
            found.append((scope, node.lineno, "einsum optimize="))
        if (name == "sum" and isinstance(f, ast.Attribute) and "axis" in keywords
                and within(scope, sum_funcs)):
            found.append((scope, node.lineno, "sum(axis=)"))
    return found


def test_detector_flags_optimised_einsums_and_axis_sums_by_function():
    code = "\n".join([
        "def _trace_pairs(a, b):",
        '    return np.einsum("ij,ji->", a, b, optimize=True)',
        "def _eps_contraction(f):",
        "    def t2(a, b):",
        '        return einsum("ij,ji->", a, b, optimize=False)',
        '    return np.einsum("ij,ji->", f, f)',
        "class Haldane:",
        "    def r_vector_batch(self, x):",
        "        return np.cos(x).sum(axis=1) + x.sum() + np.sum(x, axis=0)",
        "    def gap_batch(self, x):",
        "        return x.sum(axis=-1)",
        "class FourBandGamma:",
        "    def r_vector_batch(self, x):",
        "        return x.sum(axis=1)",
        "def _link_phases_extra(a):",
        '    return np.einsum("i,i", a, a, optimize=True)',
    ])
    tree = ast.parse(code)
    assert batch_major_violations(tree, {"_trace_pairs", "_eps_contraction", "_link_phases"},
                                  {"Haldane.r_vector_batch", "Haldane.r_gradient_batch"}) == [
        ("_trace_pairs", 2, "einsum optimize="), ("_eps_contraction.t2", 5, "einsum optimize="),
        ("Haldane.r_vector_batch", 9, "sum(axis=)"), ("Haldane.r_vector_batch", 9, "sum(axis=)")]


EINSUM_KERNELS = {"_trace_pairs", "_eps_contraction", "_link_phases"}
BOND_SUM_KERNELS = {"Haldane.r_vector_batch", "Haldane.r_gradient_batch", "_bond_phases",
                    "_bond_sum"}


def test_haldane_chunk_kernels_stay_batch_major():
    found, scopes = [], set()
    for path in sorted((SRC / "uhlmann_chern").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes.update(scope for scope, _ in calls_by_function(tree))
        found += [(path.name, *v) for v in batch_major_violations(tree, EINSUM_KERNELS,
                                                                  BOND_SUM_KERNELS)]
    assert not found, found
    assert EINSUM_KERNELS | BOND_SUM_KERNELS <= scopes  # the rule still names live code


def matrix_products(tree: ast.AST, funcs):
    """(function, line) of every @, @= and matmul(...) call inside the
    named functions, nested functions included."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name not in funcs:
            continue
        for sub in ast.walk(node):
            f = getattr(sub, "func", None)
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if (isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.MatMult)
                    or isinstance(sub, ast.Call) and name == "matmul"):
                found.append((node.name, sub.lineno))
    return sorted(found)


CURVATURE_KERNELS = {"curvature_frame_grid", "uhlmann_curvature_from_frame"}


def test_detector_finds_matrix_products_by_function():
    code = "\n".join([
        "def curvature_frame_grid(t):",
        "    p = t[0] @ t[1]",
        "    def inner(a):",
        "        a @= a",
        "        return np.matmul(a, a)",
        "    return p - p.conj().swapaxes(-1, -2)",
        "def _commutators(a):",
        "    return a @ a",
        "def uhlmann_curvature_from_frame(k):",
        "    return matmul(k, k) * 2",
    ])
    assert matrix_products(ast.parse(code), CURVATURE_KERNELS) == [
        ("curvature_frame_grid", 2), ("curvature_frame_grid", 4), ("curvature_frame_grid", 5),
        ("uhlmann_curvature_from_frame", 10)]


def test_curvature_kernels_take_their_products_from_the_block_commutators():
    path = SRC / "uhlmann_chern" / "geometry.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert matrix_products(tree, CURVATURE_KERNELS) == []
    users = {func for func, name, _ in named_calls(tree, {"_commutators"})}
    assert CURVATURE_KERNELS <= users  # the rule still names live code


def name_reads(tree: ast.AST, name: str):
    """(enclosing function name or None, line) of every read of name: a
    loaded bare name or attribute, or an imported name. Assigning to it
    is not a read."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        ident = (node.id if isinstance(node, ast.Name)
                 else node.attr if isinstance(node, ast.Attribute)
                 else node.name if isinstance(node, ast.alias) else None)
        if ident == name and not isinstance(getattr(node, "ctx", None), ast.Store):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_detector_finds_reads_of_a_name_but_not_its_definition():
    code = "\n".join([
        "GAP_FLOOR = 1e-8",
        "from .geometry import GAP_FLOOR, other",
        "def _require_isolated(w):",
        "    return w <= GAP_FLOOR",
        "def ground(w, gap_floor=GAP_FLOOR):",
        "    return geometry.GAP_FLOOR + GAP_FLOOR_LIKE",
    ])
    assert name_reads(ast.parse(code), "GAP_FLOOR") == [
        (None, 2), ("_require_isolated", 4), ("ground", 5), ("ground", 6)]


def test_gap_floor_is_read_only_by_the_gap_rule():
    reads = []
    for path in sorted((SRC / "uhlmann_chern").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [(path.name, func) for func, _ in name_reads(tree, "GAP_FLOOR")]
    assert reads and set(reads) == {("geometry.py", "_require_isolated")}, reads


def test_block_entries_are_read_only_by_the_block_rule():
    reads, calls = [], set()
    for path in sorted((SRC / "uhlmann_chern").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads += [(path.name, func) for func, _ in name_reads(tree, "BLOCK_ENTRIES")]
        calls |= {(name, path.name, func) for func, name, _ in
                  named_calls(tree, {"_spectral_blocks", "_blocks", "_ranges"})}

    def callers(name):
        return {(path, func) for called, path, func in calls if called == name}

    assert reads and set(reads) == {("geometry.py", "_blocks")}, reads
    assert callers("_spectral_blocks") == {("geometry.py", "thermal_trace_grid"),
                                           ("chern.py", "_map_job"),
                                           ("geometry.py", "_ground_frame")}
    assert callers("_blocks") == {("geometry.py", "_spectral_blocks"),
                                  ("geometry.py", "_commutators"), ("geometry.py", "_trace_pairs")}
    assert callers("_ranges") == {("geometry.py", "_blocks"), ("chern.py", "_map_chunks"),
                                  ("chern.py", "pure_chern_fhs")}


WALK_STEPS = {"_spectral_blocks", "_spectral_data", "_trace_pairs", "_ground_size", "_run_rows",
              "_cluster_curvature", "weights_batch"}


def test_the_cli_defines_no_chunk_job_and_calls_no_walk_step():
    path = SRC / "uhlmann_chern" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = {(func, name) for func, name, _ in named_calls(tree, WALK_STEPS)}
    # verify's mixing-coefficient check weighs random spectra, not a grid
    assert sites == {("_check_coefficient_bounds", "weights_batch")}, sites
    assert not [node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name.endswith("_job")]


def test_the_fourband_trig_is_the_jet_and_its_determinant_forms_no_matrix():
    def called(node):
        return node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)

    path = SRC / "uhlmann_chern" / "models.py"
    calls = calls_by_function(ast.parse(path.read_text(), filename=str(path)))
    trig = {scope for scope, node in calls
            if scope.startswith("FourBandGamma.") and called(node) in {"sin", "cos"}}
    assert trig == {"FourBandGamma.r_jet_batch"}, trig
    path = SRC / "uhlmann_chern" / "chern.py"
    sites = named_calls(ast.parse(path.read_text(), filename=str(path)), {"det", "stack"})
    assert not [site for site in sites if site[0] == "_closed_form_partials"], sites
    assert [name for func, name, _ in sites if func == "_link_phases"] == ["det"]  # still parsed


def test_the_route_takes_its_norm_with_the_determinant():
    path = SRC / "uhlmann_chern" / "chern.py"
    sites = name_references(ast.parse(path.read_text(), filename=str(path)), {"hypot"})
    assert not [site for site in sites if site[0] == "_closed_form_partials"], sites


def returns_of(tree: ast.AST, qualname: str, value):
    """Line numbers of the return statements of constant value in the
    top-level function qualname, nested functions included."""
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == qualname)
    return sorted(node.lineno for node in ast.walk(func) if isinstance(node, ast.Return)
                  and isinstance(node.value, ast.Constant) and node.value.value == value)


def test_detector_finds_returns_of_a_constant():
    code = "\n".join([
        "def main(argv):",
        "    if argv:",
        "        return 2",
        "    try:",
        "        return run()",
        "    except Error:",
        "        return 2",
        "    return 3",
        "def other():",
        "    return 2",
    ])
    assert returns_of(ast.parse(code), "main", 2) == [3, 7]


def test_the_cli_has_one_config_error_exit_and_reads_verify_tolerance_once():
    path = SRC / "uhlmann_chern" / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert len(returns_of(tree, "main", 2)) == 1
    reads = {func for func, _ in name_reads(tree, "_degeneracy_tol")}
    assert "cmd_verify" in reads and not [f for f in reads if f.startswith("_check_")], reads
    assert "_fd_step_fraction" not in {node.name for node in ast.walk(tree)
                                       if isinstance(node, ast.FunctionDef)}


def ground_size_raises(tree: ast.AST):
    """(enclosing function name or None, line) of every raise of GapClosed,
    bare or as an attribute, whose message names the ground degeneracy."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        elif isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            f = node.exc.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            text = "".join(c.value for arg in node.exc.args for c in ast.walk(arg)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str))
            if name == "GapClosed" and "ground degeneracy" in text:
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_detector_finds_ground_degeneracy_raises_and_their_functions():
    code = "\n".join([
        'raise GapClosed("ground degeneracy varies")',
        "def _integrate(sizes):",
        '    raise errors.GapClosed(f"ground degeneracy varies: {sizes}")',
        "def other(g):",
        '    raise GapClosed(f"band group {g} is not contiguous")',
        '    raise NonFiniteInput("ground degeneracy varies")',
        "    raise GapClosed",
    ])
    assert ground_size_raises(ast.parse(code)) == [(None, 1), ("_integrate", 3)]


def test_the_ground_size_is_checked_within_a_batch_and_across_chunks_only():
    sites = [(path.name, func) for path in sorted((SRC / "uhlmann_chern").glob("*.py"))
             for func, _ in ground_size_raises(ast.parse(path.read_text(), filename=str(path)))]
    assert sorted(sites) == [("chern.py", "_map_chunks"), ("geometry.py", "_ground_size")]


def calls_and_loops(tree: ast.AST, qualname: str):
    """The names called inside the function qualname (Class.method), with
    repeats, and the lines of its for and while loops and comprehensions;
    nested functions included. None if no such function exists."""

    def find(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                if name == qualname and not isinstance(child, ast.ClassDef):
                    return child
                if (found := find(child, name)) is not None:
                    return found
        return None

    func = find(tree, "")
    if func is None:
        return None
    calls, loops = [], []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            calls.append(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
                               ast.DictComp, ast.GeneratorExp)):
            loops.append(node.lineno)
    return sorted(calls), sorted(loops)


def test_detector_finds_calls_and_loops_of_one_method():
    code = "\n".join([
        "class Model:",
        "    def frame(self, u):",
        "        q = self._to_fock(u, p)",
        "        for mu in range(2):",
        "            x = self._to_fock(u, q)",
        "        return [f(x) for x in q]",
        "    def other(self):",
        "        while True:",
        "            _to_fock(1)",
        "def frame(u):",
        "    return _to_fock(u)",
    ])
    tree = ast.parse(code)
    assert calls_and_loops(tree, "Model.frame") == (
        ["_to_fock", "_to_fock", "f", "range"], [4, 6])
    assert calls_and_loops(tree, "frame") == (["_to_fock"], [])
    assert calls_and_loops(tree, "Model.missing") is None


def test_the_oscillator_frame_makes_one_sandwich_without_a_loop():
    path = SRC / "uhlmann_chern" / "models.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    calls, loops = calls_and_loops(tree, "CoherentOscillator.eigenframe_batch")
    assert calls.count("_to_fock") == 1 and loops == [], (calls, loops)

def bare_value_errors(tree: ast.AST):
    """Line numbers of every raise of ValueError itself, called or not,
    bare or as an attribute; a re-raise or a subclass is not one."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "ValueError":
                found.append(node.lineno)
    return sorted(found)


def test_detector_finds_raises_of_bare_value_errors():
    code = "\n".join([
        'raise ValueError("x")',
        'raise InvalidArgument("x")',
        "def f():",
        "    raise builtins.ValueError",
        '    raise NegativeBeta("x") from None',
        "try:",
        "    pass",
        "except ValueError:",
        "    raise",
        'x = ValueError("not raised")',
        'raise ValueError("y") from exc',
    ])
    assert bare_value_errors(ast.parse(code)) == [1, 4, 11]


def test_src_raises_no_bare_value_error():
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        for line in bare_value_errors(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offenders, f"raise InvalidArgument instead of ValueError: {offenders}"


# The line counts src/uhlmann_chern/*.py may not exceed: total lines, and code
# lines. A change that must grow src/ raises them in the same diff and says why
# in CHANGES.md.
MAX_TOTAL_LINES = 3048
MAX_CODE_LINES = 1708


def line_counts(text: str) -> tuple[int, int]:
    """Total lines, and code lines: the non-blank lines that are neither part of
    a module, class or function docstring nor comment-only (CHANGES.md's count)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = text.splitlines()
    code = [n for n, line in enumerate(lines, 1)
            if line.strip() and not line.strip().startswith("#") and n not in docstrings]
    return len(lines), len(code)


def test_line_counter_skips_blanks_comments_and_docstrings():
    code = "\n".join([
        '"""Module',
        'docstring."""',
        "import math  # a trailing comment counts",
        "",
        "# a comment-only line",
        "def f():",
        '    """One line."""',
        '    x = """not a docstring"""',
        "    return x",
        "class C:",
        "    '''Class docstring.'''",
        "    y = 1",
    ])
    assert line_counts(code) == (12, 6)


def test_src_stays_within_its_line_counts():
    counts = [line_counts(path.read_text()) for path in sorted(SRC.glob("uhlmann_chern/*.py"))]
    total, code = map(sum, zip(*counts))
    assert total <= MAX_TOTAL_LINES and code <= MAX_CODE_LINES, (total, code)
