"""The transform layer, pinned: every call of a numpy FFT transform in the
package, by (module, function), is one of the kernels the `grid` docstring
lists. A new hand-written scaled FFT fails this test until it is justified
there and added here."""

import ast
from pathlib import Path

import numpy as np

import gkdvlab

PACKAGE = Path(gkdvlab.__file__).parent
TRANSFORMS = {n for n in np.fft.__all__ if "freq" not in n and "shift" not in n}

ALLOWED = {
    # the one transform layer
    ("grid", "Grid.forward"),
    ("grid", "Grid.inverse"),
    ("grid", "Grid.real_forward"),
    ("grid", "Grid.real_inverse"),
    ("grid", "Grid.multiply"),
    # the padded product and the Picard distance
    ("solver", "_fine_samples"),
    ("solver", "_nonlinearity"),
    ("solver", "_WindowPlan.distance"),
    # the distance's lag weight
    ("norms", "_lag_folded_weight"),
}


def _dotted(node: ast.AST) -> str:
    """'np.fft.rfft' for a chain of attributes on a name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


class _Scan(ast.NodeVisitor):
    def __init__(self, module: str) -> None:
        self.module = module
        self.scope: list[str] = []
        self.calls: set[tuple[str, str]] = set()
        self.imports: list[str] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted(node.func)
        head, _, last = name.rpartition(".")
        if head.endswith("fft") and last in TRANSFORMS:
            self.calls.add((self.module, ".".join(self.scope) or "<module>"))
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        self.imports += [a.name for a in node.names if "fft" in a.name]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # `from numpy.fft import rfft` or `from numpy import fft` would hide
        # a transform from the attribute scan
        names = [node.module or ""] + [a.name for a in node.names]
        self.imports += [n for n in names if "fft" in n]


def _scan() -> _Scan:
    total = _Scan("")
    for path in sorted(PACKAGE.glob("*.py")):
        scan = _Scan(path.stem)
        scan.visit(ast.parse(path.read_text(), filename=str(path)))
        total.calls |= scan.calls
        total.imports += [f"{path.stem}: {name}" for name in scan.imports]
    return total


def test_numpy_fft_calls_are_the_listed_kernels():
    scan = _scan()
    assert scan.imports == []
    assert scan.calls == ALLOWED


def test_scan_sees_a_hand_written_transform():
    scan = _Scan("probe")
    scan.visit(ast.parse(
        "class A:\n"
        "    def f(self, x):\n"
        "        return np.fft.ifft(x, axis=0) * np.fft.fftfreq(4)\n"
        "def g(x):\n"
        "    return numpy.fft.rfft2(x)\n"
    ))
    assert scan.calls == {("probe", "A.f"), ("probe", "g")}
