"""The package's code is reached from its command line: walking the names
that ``cli.main`` reads, and what those read in turn, reaches every
module-level function, class and assigned name and every class member,
except the ones that only the tests use, each kept on purpose.  The member
names that several classes share, which the walk cannot tell apart, are
the reviewed ones.  Every name in ``__all__`` exists, and every import is
read or exported."""

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

# public member names that more than one class defines: a load x.<name>
# through any name but self reaches all of them, so the walk cannot tell
# whether one of them lost its last reader.  Keep this set small.
SHARED_MEMBERS = {
    "at": "amplitude at a displacement, of both orbital models (WannierState, GaussianOrbital)",
    "momentum_at": "Fourier amplitude of both orbital models; only the tests read "
                   "GaussianOrbital's, the CLI passes the Wannier orbital to "
                   "joint_momentum_density",
    "sigma": "rms width of both orbital models and WannierWidth's harmonic width",
    "x": "grid of WannierState and axis of analysis.Slice1D",
    "density": "values of analysis.DistributionGrid and analysis.Slice1D",
    "energies": "bound-branch energies of DiatomBand and band energies of BlochSpectrum",
    "bandwidth": "width of DiatomBand's bound branch and of HoppingResult's lowest band",
    "v_hop": "HoppingResult's hopping and TwoAtomHamiltonian's copy of it",
    "value": "InteractionProfile.value(dj) and the field of HoppingEstimate",
    "dj_max": "last offset of InteractionProfile and Scenario's requested one",
    "n_sites": "ring size of Scenario, TwoAtomHamiltonian and TwoAtomState",
    "sigma_e": "envelope width of Scenario and optimum of analysis.OptimizeResult",
    "lambda_coupling": "AtomSpecies' coupling wavelength and Scenario's resolved one",
    "with_param": "Scenario.with_param and Model.with_param, which calls it",
}

MODULES = ["lattice_epr"] + [
    f"lattice_epr.{info.name}" for info in pkgutil.iter_modules([str(SRC)])
]


def _sources():
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def _graph(sources):
    """The graph of the modules in ``sources`` ({module: source text}):
    (reads, by_name, by_attr, owner, method_of), as commented below.

    Nodes are "module.name" and "module.Class.member": module-level
    functions, classes and assigned names (not ``__all__``), and each
    class's methods, properties and annotated fields; a dunder method is
    part of its class.
    """
    reads = {}                     # node -> the trees it reads when reached
    by_name = defaultdict(list)    # module-level name -> its nodes
    by_attr = defaultdict(list)    # class member name -> its nodes
    owner = {}                     # class member -> its class
    method_of = {}                 # method tree -> its class, for self.<name>
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
                        method_of[item] = cls
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
    return reads, by_name, by_attr, owner, method_of


def _unreached(sources):
    """The nodes of the modules in ``sources`` ({module: source text}) that
    no walk from ``cli.main`` reaches.

    A reached node reaches, by name, the module-level nodes of every name
    and attribute it loads, and the class members of every attribute it
    loads, except that ``self.<name>`` in a method of class C, dunder
    methods included, reaches only C's own member ``<name>`` besides the
    module-level nodes; names are not resolved through imports.  A reached
    class reads its decorators, bases, dunder methods and field defaults,
    and a reached assignment its value.
    A member of an unreached class is not listed: its class covers it.
    """
    reads, by_name, by_attr, owner, method_of = _graph(sources)
    reached, todo = set(), ["cli.main"]
    while todo:
        node = todo.pop()
        if node in reached:
            continue
        reached.add(node)
        for tree in reads[node]:
            cls = method_of.get(tree)
            for sub in ast.walk(tree):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    todo += by_name[sub.id]
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    members = by_attr[sub.attr]
                    if cls and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                        members = [m for m in members if owner[m] == cls]
                    todo += by_name[sub.attr] + members
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


SLICE_FIELDS = "    x: np.ndarray\n    density: np.ndarray\n"


@pytest.mark.parametrize(
    "module, old, new, dropped",
    [
        # the momentum marginal table no longer written
        ("cli", "analysis.marginal(mom)", "mom", "analysis.marginal"),
        # a dataclass field no longer read
        ("pipeline", "m.band.gap_min", "0.0", "diatom.DiatomBand.gap_min"),
        # a property that only another class's self.dx would read
        (
            "analysis",
            SLICE_FIELDS,
            SLICE_FIELDS
            + "\n    @property\n    def dx(self):\n        return float(self.x[1] - self.x[0])\n",
            "analysis.Slice1D.dx",
        ),
    ],
    ids=["marginal", "gap_min", "dx"],
)
def test_the_walk_reports_code_that_loses_its_last_reader(module, old, new, dropped):
    sources = _sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    assert _unreached(sources) == set(TEST_ONLY) | {dropped}


def test_shared_member_names_are_the_reviewed_ones():
    by_attr = _graph(_sources())[2]
    shared = {name for name, nodes in by_attr.items() if len(nodes) > 1 and name[0] != "_"}
    assert shared == set(SHARED_MEMBERS)


def test_every_import_is_read_or_exported():
    unused = {
        f"{path.stem}.{name}" for path in SRC.glob("*.py") for name in _unused_imports(path)
    }
    assert unused == set()
