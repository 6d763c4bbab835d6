"""The public names of each module: every name in ``__all__`` exists, and
each is read somewhere in the package's own source, so no public code is
kept alive by its tests alone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import lattice_epr

SRC = Path(lattice_epr.__file__).parent

# public names that only the tests read, each kept on purpose
TEST_ONLY = {
    "diatom.dense_spectrum": "brute-force N^2 x N^2 oracle that the block spectra are checked against",
    "lattice.lattice_matrix_element": "<w0|H_lat|w1> on the grid, the reference for the band-fit hopping",
    "lattice.effective_mass_from_band": "band-curvature mass, the reference for the hopping-based mass",
    "dipole.v_dd_nearest": "near-zone closed form that the dipole kernel is checked against",
    "analysis.folded_sum_momentum_width": "numeric sum-momentum width of a state, an input of the numeric EPR figures",
    "analysis.sum_momentum_marginal": "p1 + p2 marginal of a momentum grid, an input of the numeric EPR figures",
    "diatom.effective_mass_two_atom": "closed-form diatom mass, an input of the numeric EPR figures",
}

MODULES = ["lattice_epr"] + [
    f"lattice_epr.{info.name}" for info in pkgutil.iter_modules([str(SRC)])
]


def _names_read():
    """Every name the source loads as a variable or reads as an attribute.

    Import statements, ``def``/``class`` names and the string entries of
    ``__all__`` are not reads.
    """
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def _public():
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            yield module, attr


def test_every_public_name_exists():
    assert [(m.__name__, attr) for m, attr in _public() if not hasattr(m, attr)] == []


def test_every_public_name_is_read_by_the_package():
    read = _names_read()
    unread = {
        f"{module.__name__.removeprefix('lattice_epr.')}.{attr}"
        for module, attr in _public()
        if attr not in read
    }
    assert unread == set(TEST_ONLY)
