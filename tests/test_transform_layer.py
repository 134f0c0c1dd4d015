"""The transform layer, pinned: every call of a numpy FFT transform in the
package, by (module, function), is one of the kernels the `grid` docstring
lists. A new hand-written scaled FFT fails this test until it is justified
there and added here.

The seeding, pinned the same way: numpy's SeedSequence and default_rng are
called by the single-key `streams.child_seed` and `streams.rng_for` only,
and those (and the single draw `wiener.sample_coefficients`) only by the
single-key callers listed here. An ensemble that fell back to seeding each
draw on its own would fail this test."""

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


# numpy's per-key seeding, and who may call it
SEEDING = {"SeedSequence", "default_rng"}
SEEDING_ALLOWED = {("streams", "child_seed"), ("streams", "rng_for")}
# the single-key derivations and the single draw, and who may call them
PER_KEY = {"child_seed", "rng_for", "sample_coefficients", "coefficients"}
PER_KEY_ALLOWED = {
    ("probes", "random_field"),
    ("probes", "random_spacetime"),
    ("wiener", "sample_coefficients"),
    ("wiener", "Sampler.coefficients"),
    ("wiener", "Sampler.__call__"),
}


def _is_fft(name: str) -> bool:
    head, _, last = name.rpartition(".")
    return head.endswith("fft") and last in TRANSFORMS


class _Scan(ast.NodeVisitor):
    def __init__(self, module: str, match=_is_fft) -> None:
        self.module = module
        self.match = match
        self.scope: list[str] = []
        self.calls: set[tuple[str, str]] = set()
        self.imports: list[str] = []

    def _enter(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node: ast.Call) -> None:
        if self.match(_dotted(node.func)):
            self.calls.add((self.module, ".".join(self.scope) or "<module>"))
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        self.imports += [a.name for a in node.names if "fft" in a.name]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # `from numpy.fft import rfft` or `from numpy import fft` would hide
        # a transform from the attribute scan
        names = [node.module or ""] + [a.name for a in node.names]
        self.imports += [n for n in names if "fft" in n]


def _scan(match=_is_fft) -> _Scan:
    total = _Scan("", match)
    for path in sorted(PACKAGE.glob("*.py")):
        scan = _Scan(path.stem, match)
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


def _last_in(names):
    return lambda dotted: dotted.rpartition(".")[2] in names


def test_numpy_seeding_calls_are_the_single_key_streams():
    assert _scan(_last_in(SEEDING)).calls == SEEDING_ALLOWED


def test_single_key_seeding_called_by_single_key_callers_only():
    assert _scan(_last_in(PER_KEY)).calls == PER_KEY_ALLOWED


def test_scan_sees_per_draw_seeding():
    scan = _Scan("probe", _last_in(SEEDING | PER_KEY))
    scan.visit(ast.parse(
        "def f(sample, seeds):\n"
        "    return [sample.coefficients(s) for s in seeds]\n"
        "def g(s):\n"
        "    return np.random.default_rng(np.random.SeedSequence(s)), child_seed(s, 1)\n"
    ))
    assert scan.calls == {("probe", "f"), ("probe", "g")}
