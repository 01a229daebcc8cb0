"""The package's public surface, and the CI pins of what it depends on."""

import ast
import dataclasses
import inspect
import pkgutil
import re
from pathlib import Path
from types import FunctionType, ModuleType

import numpy as np
import pytest

import pseudospin

ROOT = Path(__file__).resolve().parents[1]

# Every public name of ``pseudospin``, pinned so that adding a second path
# to the same job, or dropping one, edits this list on purpose.
PUBLIC_NAMES = [
    "AlgebraSpec", "CheckResult", "ComplexOrthogonal",
    "Diagnosis", "GROUPS", "Generator", "GrassmannElement",
    "GroupResult", "Isomorphism", "Metric", "PAULI",
    "Realization", "RegimeReport", "TransitionSeries", "TwoSpinParams",
    "build_total", "canonical_constraints",
    "check_relations", "closed_spectrum", "commutation_factor",
    "constraint_reduce", "correspondence_check", "damping_threshold",
    "diagnose", "dirac_bracket", "element_from_json",
    "eta_inner", "evolve", "graded_poisson",
    "left_derivative",
    "matched_eigenvalues", "matrix_to_json",
    "metric_from_isomorphism",
    "multiply", "paper_isomorphism", "plus_involution",
    "pushforward_field", "quantize", "random_orthogonal", "rho_adjoint",
    "rho_residuals", "right_derivative", "run_groups", "star_involution",
    "tensor_realization", "transform_coefficients", "transition_series",
    "vector_from_json", "write_csv",
]


def public_names():
    return sorted(
        name for name, value in vars(pseudospin).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )


def referenced_names(path):
    """Names a module reads, as a bare name or as an attribute.

    Definitions, imports, docstrings, comments and ``__all__`` strings are
    not reads, so they do not count.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_public_names_are_pinned():
    assert public_names() == sorted(PUBLIC_NAMES)


def caller_paths():
    return [
        path for path in sorted((ROOT / "src" / "pseudospin").glob("*.py"))
        if path.name != "__init__.py"
    ] + sorted((ROOT / "demos").glob("*.py"))


def test_every_public_name_has_a_caller():
    reached = set().union(*(referenced_names(path) for path in caller_paths()))
    assert [name for name in public_names() if name not in reached] == []


def test_no_public_callable_takes_a_tolerance():
    # Every bound is a module constant applied where it is used, and a check
    # that returns a residual leaves judging it to its caller; so no public
    # function, class or method takes a tolerance or cap argument.
    exported = [getattr(pseudospin, name) for name in public_names()]
    methods = [
        member for cls in exported if isinstance(cls, type)
        for name, member in vars(cls).items()
        if not name.startswith("_") and isinstance(member, FunctionType)
    ]
    knobs = {"tol", "atol", "rtol", "cap"}
    takers = [
        f.__qualname__ for f in [*exported, *methods]
        if callable(f) and knobs & set(inspect.signature(f).parameters)
    ]
    assert takers == []


# A build of each exported dataclass or NamedTuple that holds an array, whose
# generated (or tuple's) __eq__ and __hash__ would raise on it.
ARRAY_HOLDERS = {
    "ComplexOrthogonal": lambda: pseudospin.random_orthogonal(3, seed=1),
    "Diagnosis": lambda: pseudospin.diagnose(np.eye(2)),
    "Isomorphism": lambda: pseudospin.paper_isomorphism(
        pseudospin.TwoSpinParams(0.5, 0.25, 1.0)
    ),
    "Metric": lambda: pseudospin.Metric(np.eye(2)),
    "Realization": lambda: pseudospin.tensor_realization(pseudospin.AlgebraSpec((3,))),
    "TransitionSeries": lambda: pseudospin.transition_series(
        np.eye(4)[1], np.eye(4)[2], pseudospin.TwoSpinParams(0.5, 0.25, 1.0), np.zeros(1)
    ),
}


def field_types(value):
    """The declared field types of a dataclass or a NamedTuple class, else none."""
    if dataclasses.is_dataclass(value):
        return [f.type for f in dataclasses.fields(value)]
    if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
        return list(value.__annotations__.values())
    return []


def test_every_array_holding_dataclass_is_listed():
    holders = [
        name for name in public_names()
        if any("ndarray" in str(t) for t in field_types(getattr(pseudospin, name)))
    ]
    assert holders == sorted(ARRAY_HOLDERS)


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holding_dataclasses_compare_and_hash_by_identity(name):
    first, second = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(first) is getattr(pseudospin, name)
    assert first == first and (first == second) is False
    assert hash(first) == hash(first) and len({first, second}) == 2


def held_arrays(value):
    """The arrays a result is, or holds in its dataclass or tuple fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from held_arrays(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from held_arrays(item)


def test_stacked_calls_return_no_object_arrays():
    # A stacked call returns one result of stacked arrays, never an array of
    # per-entry objects; and no module builds an object past its checks.
    rng = np.random.default_rng(2)
    algebra = pseudospin.AlgebraSpec((3,))
    xi = list(algebra.coordinates())
    elements = [pseudospin.GrassmannElement.from_generator(algebra, gen) for gen in xi]
    draws = [pseudospin.TwoSpinParams(0.5, 0.25, 1.0 + k) for k in range(3)]
    hamiltonians = pseudospin.build_total(draws)
    closed = np.array([pseudospin.closed_spectrum(p).eigenvalues for p in draws])
    g = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    metrics = pseudospin.Metric(g @ g.conj().mT + np.eye(4))
    lam = pseudospin.random_orthogonal(3, 1, 3)
    results = {
        "quantize": pseudospin.quantize(elements, pseudospin.tensor_realization(algebra)),
        "build_total": hamiltonians,
        "paper_isomorphism": pseudospin.paper_isomorphism(draws),
        "matched_eigenvalues": pseudospin.matched_eigenvalues(hamiltonians, closed),
        "diagnose": pseudospin.diagnose(hamiltonians),
        "random_orthogonal": lam,
        "Metric": metrics,
        "metric_from_isomorphism": pseudospin.metric_from_isomorphism(g + 3.0 * np.eye(4)),
        "pushforward_field": pseudospin.pushforward_field(rng.normal(size=(3, 3)), lam),
        "eta_inner": pseudospin.eta_inner(g[:, 0], g[:, 1], metrics),
        "rho_adjoint": pseudospin.rho_adjoint(g, metrics),
        "rho_residuals": pseudospin.rho_residuals(g, metrics.matrix),
    }
    held = {name: [a.dtype for a in held_arrays(result)] for name, result in results.items()}
    assert [name for name, dtypes in held.items() if not dtypes] == []
    assert [name for name, dtypes in held.items() if np.dtype(object) in dtypes] == []
    readers = [name for name, tree in package_trees().items() if "__new__" in mentioned_names(tree)]
    assert readers == []


def test_every_public_method_has_a_caller():
    # Methods, properties, classmethods and staticmethods of exported classes
    # must be read as an attribute; dataclass and NamedTuple fields are data.
    reads = set()
    for path in caller_paths():
        reads.update(
            node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
    behaviour = (FunctionType, property, classmethod, staticmethod)
    classes = [getattr(pseudospin, name) for name in public_names()]
    unread = [
        f"{cls.__name__}.{name}"
        for cls in classes if isinstance(cls, type)
        for name, member in vars(cls).items()
        if not name.startswith("_") and isinstance(member, behaviour) and name not in reads
    ]
    assert unread == []


def mentioned_names(tree):
    """Every name an AST binds, imports or reads, docstrings excluded."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
    return names


def package_trees():
    """The AST of every module in the package, by file name."""
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "pseudospin").glob("*.py"))
    }


# Every private name one module of the package imports from another, pinned
# so that a new cross-module private import edits this list on purpose.
PRIVATE_IMPORTS = [
    "canon imports grassmann._substitute",
    "cli imports twospin._agreement_bounds",
    "cli imports twospin._euclidean_norms",
    "verify imports twospin._intertwining",
    "verify imports twospin._tolerance_scale",
]


def test_cross_module_private_imports_are_pinned():
    found = [
        f"{name.removesuffix('.py')} imports {node.module.rsplit('.', 1)[-1]}.{alias.name}"
        for name, tree in package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("pseudospin."))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert sorted(found) == PRIVATE_IMPORTS


def test_evolution_needs_no_scipy_and_cond_cap_serves_diagnose_alone():
    trees = package_trees()
    # No module names scipy: the package needs numpy alone.
    assert [n for n, t in trees.items() if "scipy" in mentioned_names(t)] == []
    # Eigenvalues pair by total-S_z sector, with no general assignment solver.
    solver = {"optimize", "linear_sum_assignment"}
    assert [name for name, tree in trees.items() if mentioned_names(tree) & solver] == []
    evolve = next(
        node for node in trees["twospin.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "evolve"
    )
    assert mentioned_names(evolve).isdisjoint({"eig", "cond", "solve", "expm"})
    users = [name for name, tree in trees.items() if "COND_CAP" in mentioned_names(tree)]
    assert users == ["pseudoherm.py"]


def test_one_module_scales_states_into_the_float_range():
    # Power-of-two scaling is decided in one module; the CLI borrows its helper.
    trees = package_trees()
    scalers = [
        name for name, tree in trees.items()
        if mentioned_names(tree) & {"frexp", "ldexp"}
    ]
    assert scalers == ["twospin.py"]
    assert not any(
        isinstance(node, ast.FunctionDef) and node.name == "_norms"
        for node in ast.walk(trees["cli.py"])
    )


def test_only_quantize_knows_the_realization():
    # The two-spin matrices come from the quantized images of the classical
    # model's terms: twospin holds no Pauli table and no Kronecker product.
    assert mentioned_names(package_trees()["twospin.py"]) & {"PAULI", "kron"} == set()
    images = pseudospin.twospin._images()
    assert images.shape == (5, 4, 4) and not images.flags.writeable


def test_transition_series_takes_its_frame_from_paper_isomorphism():
    # The regime, branch and exceptional-point decisions live in _frame_root;
    # transition_series only reads paper_isomorphism's frame.
    (function,) = (
        node for node in ast.walk(package_trees()["twospin.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "transition_series"
    )
    forbidden = {
        "REGIME_TOL", "_tolerance_scale", "_frame_root", "Metric",
    }
    assert mentioned_names(function) & forbidden == set()


def test_ci_installs_every_declared_dependency_pinned():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    runtime, test = (
        [re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in specs]
        for specs in (project["dependencies"], project["optional-dependencies"]["test"])
    )
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    pinned = {name.lower() for name in re.findall(r"([A-Za-z0-9_.-]+)==[0-9][^\s]*", workflow)}
    assert "mpmath" in test
    # scipy is the tests' independent oracle, not a runtime dependency.
    assert "scipy" in test and "scipy" not in runtime
    assert [name for name in runtime + test if name not in pinned] == []


def test_console_script_and_package_list_resolve():
    # CI imports the package from src/ and never installs it, so what an
    # install would read from pyproject.toml is resolved here instead.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    setuptools = pytest.importorskip("setuptools")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert callable(pkgutil.resolve_name(config["project"]["scripts"]["pseudospin"]))
    assert config["tool"]["setuptools"]["packages"]["find"] == {"where": ["src"]}
    assert setuptools.find_packages(str(ROOT / "src")) == ["pseudospin"]


def test_declared_numpy_floor_has_every_array_attribute_the_package_reads():
    # ndarray.mT arrived in numpy 2.0: an install the floor allows must have it.
    readers = [name for name, tree in package_trees().items() if "mT" in mentioned_names(tree)]
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    (floor,) = (
        re.fullmatch(r"numpy\s*>=\s*([0-9.]+)", spec).group(1)
        for spec in project["dependencies"] if spec.startswith("numpy")
    )
    if readers:
        assert tuple(int(part) for part in floor.split(".")) >= (2, 0), readers


def test_ci_job_is_bounded_and_read_only():
    # Read as text, as above: the CI image installs no YAML parser.
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    job = workflow.split("\n  tier1:\n", 1)[1].split("\n    steps:\n", 1)[0]
    assert re.search(r"^    timeout-minutes: 15$", job, re.M)
    assert re.search(r"^    permissions:\n      contents: read$", job, re.M)
