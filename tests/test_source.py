"""Static checks over the package source.

np.einsum with three or more operands and no optimize= contracts them
in one naive loop nest, O(N^4) for N x N matrices; such calls once took
95% of the oscillator integral's time. Every eigendecomposition goes
through linalg.eigh_batch, so the Hermiticity check, the width check
and the phase fixing are applied once, in one place. The checks parse
src/ with ast so they see every call regardless of formatting.
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
