"""Static checks of the package source, with the stdlib ``ast`` module.

A module other than ``__init__`` may import only names it uses, so a name
left behind when its last user goes (say ``Gaussian2D`` in a module that
no longer builds one) fails here; every ``geotrack.__all__`` entry must
resolve on the package; the test oracles in ``conftest`` take none of the
filter's arithmetic from ``geotrack.kalman`` or ``geotrack.core``; and the
grid-fit oracles take nothing from ``geotrack.calibration`` but its two
value types.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "geotrack"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with its line; ``import a.b`` binds a."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_imports_only_names_it_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_package_all_resolves():
    package = importlib.import_module("geotrack")
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing, f"geotrack.__all__ names what the package does not define: {missing}"


# kalman's filter arithmetic, and the NLL and 2x2 inverse it takes from
# core, which the oracles in conftest must not share: an error in them would
# then cancel out of every comparison with them.
FILTER_ARITHMETIC = {
    "_fuse", "_fuse_adjoint", "_init", "_nll", "_inv2", "_gain",
    "_adjoint_block", "_scan_back",
}
CORE_ARITHMETIC = {"_nll", "_inv2"}


def test_oracles_share_no_filter_arithmetic():
    path = Path(__file__).resolve().parent / "conftest.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    shared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "geotrack.kalman":
            shared |= {alias.name for alias in node.names} & FILTER_ARITHMETIC
        elif isinstance(node, ast.ImportFrom) and node.module == "geotrack.core":
            shared |= {alias.name for alias in node.names} & CORE_ARITHMETIC
        elif isinstance(node, ast.ImportFrom) and node.module == "geotrack":
            shared |= {alias.name for alias in node.names} & {"kalman"}
        elif isinstance(node, ast.Import):
            shared |= {alias.name for alias in node.names} & {"geotrack.kalman"}
    assert not shared, f"conftest.py takes filter arithmetic from geotrack: {sorted(shared)}"


# The grid-fit oracles in conftest, and what they may take from
# geotrack.calibration: its value types, none of the fit's arithmetic.
FIT_ORACLES = ("cell_fit", "direct_cell_fit")
CALIBRATION_TYPES = {"CalibrationParams", "CalibrationGrid"}


def dotted(node: ast.expr):
    """"a.b.c" for a chain of attribute reads on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def taken_from(module: str, roots) -> set[str]:
    """The names that the conftest functions roots, and every conftest
    function they call, directly or not, take from geotrack.<module>."""
    path = Path(__file__).resolve().parent / "conftest.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    # Names bound from geotrack.<module>, and names bound to the module.
    imported, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == f"geotrack.{module}":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "geotrack":
            bound |= {alias.asname or alias.name for alias in node.names if alias.name == module}
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name for alias in node.names if alias.name == f"geotrack.{module}"}
    todo, seen, taken = list(roots), set(), set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name) and node.id in functions and node.id not in seen:
                todo.append(node.id)
            elif isinstance(node, ast.Name) and node.id in imported:
                taken.add(node.id)
            elif isinstance(node, ast.Attribute) and dotted(node.value) in bound:
                taken.add(node.attr)
    return taken


def test_fit_oracles_take_only_calibration_types():
    extra = taken_from("calibration", FIT_ORACLES) - CALIBRATION_TYPES
    assert not extra, f"conftest's fit oracles take from geotrack.calibration: {sorted(extra)}"


# What the file oracles in conftest (the detections and truth readers and the
# writers) may take from geotrack.dataio: its JSON spelling, the truth header
# and its error conventions, none of its readers or writers.
DATAIO_CONVENTIONS = {"dumps", "TRUTH_HEADER", "_time", "_located", "_MALFORMED"}


def test_io_oracles_take_only_dataio_conventions():
    path = Path(__file__).resolve().parent / "conftest.py"
    names = [node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)]
    readers = ["read_detection_frames", "read_truth_rows"]
    oracles = [*readers, *(name for name in names if name.startswith("oracle_write_"))]
    assert len(oracles) >= 6, oracles
    extra = taken_from("dataio", oracles) - DATAIO_CONVENTIONS
    assert not extra, f"conftest's IO oracles take from geotrack.dataio: {sorted(extra)}"


# The fork protocol is forking.split_work's alone: no other module forks,
# reaps or ends a child, or makes the temporary file a child writes into,
# so a new split site cannot restate the protocol; and the split sites take
# from forking its public names only.
FORK_CALLS = {"os.fork", "os.wait4", "os._exit"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "forking.py"], ids=lambda p: p.stem)
def test_only_forking_forks(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and dotted(node) in FORK_CALLS:
            found.append((dotted(node), node.lineno))
        elif isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names if alias.name.split(".")[0] == "tempfile"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "tempfile"):
            found += [(f"{node.module}.{alias.name}", node.lineno) for alias in node.names
                      if node.module == "tempfile" or f"os.{alias.name}" in FORK_CALLS]
    assert not found, f"{path.name} forks, reaps or makes a temporary file outside forking.py: {found}"


@pytest.mark.parametrize("name", ["dataio", "kalman"])
def test_split_sites_take_no_private_name_from_forking(name):
    path = PACKAGE / f"{name}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("forking", "geotrack.forking"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_") and dotted(node.value) == "forking":
            private.append(node.attr)
    assert not private, f"{name}.py takes private names from forking: {private}"
