"""The package's code is reached from its command line: walking the names
that ``cli.main`` reads, and what those read in turn, reaches every
module-level function, class and assigned name and every class member,
except the ones that only the tests use, each kept on purpose.  Every name
in ``__all__`` exists, and every import is read or exported."""

import ast
import importlib
import pkgutil
from collections import defaultdict
from pathlib import Path

import pytest

import lattice_epr

SRC = Path(lattice_epr.__file__).parent

# code that only the tests reach, each kept on purpose; a class entry
# covers its fields
TEST_ONLY = {
    "diatom.dense_spectrum": "brute-force N^2 x N^2 oracle that the block spectra are checked against",
    "diatom.TwoAtomHamiltonian.dense": "the N^2 x N^2 matrix behind dense_spectrum",
    "lattice.lattice_matrix_element": "<w0|H_lat|w1> on the grid, the reference for the band-fit hopping",
    "lattice.effective_mass_from_band": "band-curvature mass, the reference for the hopping-based mass",
    "dipole.v_dd_nearest": "near-zone closed form that the dipole kernel is checked against",
    "analysis.folded_sum_momentum_width": "numeric sum-momentum width of a state, an input of the numeric EPR figures",
    "analysis.sum_momentum_marginal": "p1 + p2 marginal of a momentum grid, an input of the numeric EPR figures",
    "diatom.effective_mass_two_atom": "closed-form diatom mass, an input of the numeric EPR figures",
    # the HWHM width of a peak and the comb spacing: acceptance tests 4 and
    # 6 read them, and so will the EPR table and its diffraction criteria
    "analysis.peak_metrics": "peak HWHM and comb spacing (acceptance tests 4 and 6; ROADMAP items 2 and 4)",
    "analysis.PeakMetrics": "result of peak_metrics (acceptance tests 4 and 6; ROADMAP items 2 and 4)",
    "analysis._half_crossing": "half-maximum crossing of peak_metrics (ROADMAP items 2 and 4)",
    "analysis.GAUSS_HWHM": "HWHM of a unit Gaussian, peak_metrics' sigma (ROADMAP items 2 and 4)",
    "errors.NoPeakError": "raised by peak_metrics (ROADMAP items 2 and 4)",
    "lattice.HoppingResult.tight_binding_rms": "computed, not yet written: ROADMAP item 10",
    "lattice.HoppingEstimate.within_validity": "computed, not yet written: ROADMAP item 10",
    "lattice.WannierState.residual_imag": "computed, not yet written: ROADMAP item 10",
}

MODULES = ["lattice_epr"] + [
    f"lattice_epr.{info.name}" for info in pkgutil.iter_modules([str(SRC)])
]


def _sources():
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def _unreached(sources):
    """The nodes of the modules in ``sources`` ({module: source text}) that
    no walk from ``cli.main`` reaches, as "module.name" and
    "module.Class.member".

    Nodes are module-level functions, classes and assigned names (not
    ``__all__``), and each class's methods, properties and annotated
    fields; a dunder method is part of its class.  A reached node reaches,
    by name, the module-level nodes of every name and attribute it loads,
    and the class members of every attribute it loads; names are not
    resolved through imports.  A reached class reads its decorators, bases,
    dunder methods and field defaults, and a reached assignment its value.
    A member of an unreached class is not listed: its class covers it.
    """
    reads = {}                     # node -> the trees it reads when reached
    by_name = defaultdict(list)    # module-level name -> its nodes
    by_attr = defaultdict(list)    # class member name -> its nodes
    owner = {}
    for module, text in sources.items():
        for stmt in ast.parse(text).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and target.id != "__all__":
                        node = f"{module}.{target.id}"
                        reads[node] = [stmt.value] if stmt.value else []
                        by_name[target.id].append(node)
            elif isinstance(stmt, ast.FunctionDef):
                reads[f"{module}.{stmt.name}"] = [stmt]
                by_name[stmt.name].append(f"{module}.{stmt.name}")
            elif isinstance(stmt, ast.ClassDef):
                cls = f"{module}.{stmt.name}"
                reads[cls] = [*stmt.decorator_list, *stmt.bases, *stmt.keywords]
                by_name[stmt.name].append(cls)
                for item in stmt.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        if item.value:
                            reads[cls].append(item.value)
                        name, trees = item.target.id, []
                    elif isinstance(item, ast.FunctionDef):
                        if item.name.startswith("__") and item.name.endswith("__"):
                            reads[cls].append(item)
                            continue
                        name, trees = item.name, [item]
                    else:
                        continue
                    node = f"{cls}.{name}"
                    owner[node] = cls
                    reads[node] = trees
                    by_attr[name].append(node)

    reached, todo = set(), ["cli.main"]
    while todo:
        node = todo.pop()
        if node in reached:
            continue
        reached.add(node)
        for tree in reads[node]:
            for sub in ast.walk(tree):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    todo += by_name[sub.id]
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    todo += by_name[sub.attr] + by_attr[sub.attr]
    unreached = reads.keys() - reached
    return {node for node in unreached if owner.get(node) not in unreached}


def _unused_imports(path):
    """The names that ``path`` imports but neither reads nor lists in its
    ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    exported = set()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return imported - read - exported


def _public():
    for name in MODULES:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            yield module, attr


def test_every_public_name_exists():
    assert [(m.__name__, attr) for m, attr in _public() if not hasattr(m, attr)] == []


def test_the_cli_reaches_all_but_the_test_only_code():
    assert _unreached(_sources()) == set(TEST_ONLY)


@pytest.mark.parametrize(
    "module, old, new, dropped",
    [
        # the momentum marginal table no longer written
        ("cli", "analysis.marginal(mom)", "mom", "analysis.marginal"),
        # a dataclass field no longer read
        ("pipeline", "m.band.gap_min", "0.0", "diatom.DiatomBand.gap_min"),
    ],
    ids=["marginal", "gap_min"],
)
def test_the_walk_reports_code_that_loses_its_last_reader(module, old, new, dropped):
    sources = _sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    assert _unreached(sources) == set(TEST_ONLY) | {dropped}


def test_every_import_is_read_or_exported():
    unused = {
        f"{path.stem}.{name}" for path in SRC.glob("*.py") for name in _unused_imports(path)
    }
    assert unused == set()
