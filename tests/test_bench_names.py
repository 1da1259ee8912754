"""The benchmark's view of the package: every name perfbench reads must exist.

perfbench/ drives the package through `dfteig.X` and `cli.X`, and its tests
patch some of those names.  Walking its sources as syntax trees (not as
text, so strings such as "cli.other_s" do not count) and resolving each
name here catches a removal that would break the benchmark.
"""

import ast
from pathlib import Path

import pytest

import dfteig
from dfteig import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
ROOTS = {"dfteig": dfteig, "cli": cli}


def _dotted(node):
    """(root, [attr, ...]) of an attribute chain rooted at one of ROOTS, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in ROOTS and attrs:
        return node.id, attrs[::-1]
    return None


def _is_patch(node):
    """Is node a call monkeypatch.setattr(<root>, "<name>", ...)?"""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setattr"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "monkeypatch"
        and len(node.args) >= 2
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id in ROOTS
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
    )


def _bench_names():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            chain = _dotted(node)
            if chain:
                names.add((chain[0], tuple(chain[1])))
            elif _is_patch(node):  # monkeypatch.setattr(dfteig, "name", ...)
                names.add((node.args[0].id, (node.args[1].value,)))
    return sorted(names)


BENCH_NAMES = _bench_names()


def test_perfbench_reads_the_package():
    roots = {root for root, _ in BENCH_NAMES}
    assert roots == set(ROOTS) and len(BENCH_NAMES) >= 10, BENCH_NAMES


@pytest.mark.parametrize(
    "root, attrs", BENCH_NAMES, ids=[".".join((r, *a)) for r, a in BENCH_NAMES]
)
def test_perfbench_name_resolves(root, attrs):
    obj = ROOTS[root]
    for attr in attrs:
        assert hasattr(obj, attr), f"perfbench reads {root}.{'.'.join(attrs)}"
        obj = getattr(obj, attr)
