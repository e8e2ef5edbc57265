"""Static checks over the package source.

np.einsum with three or more operands and no optimize= contracts them
in one naive loop nest, O(N^4) for N x N matrices; such calls once took
95% of the oscillator integral's time. The check parses src/ with ast
so it sees every call regardless of formatting.
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
