"""Source-level rules that no runtime test can see."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nmshallow"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _package_hits(rule, skip: str = "") -> list[str]:
    """The hits of `rule(path)` over the package sources, but `skip`."""
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != skip)
    assert sources, f"no sources under {PACKAGE}"
    return [hit for path in sources for hit in rule(path)]


def _env_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ENV_NAMES:
            hits.append(f"{path.name}:{node.lineno} {name}")
    return hits


def test_no_environment_variable_reaches_the_package():
    # behaviour, guards included, is set by arguments and configs only
    assert _package_hits(_env_reads) == []


# numpy.fft / scipy.fft names that build frequencies or reorder, not transform
FFT_HELPERS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}
FFT_MODULES = {"numpy.fft", "scipy.fft"}


def _fft_bypasses(path: Path) -> list[str]:
    """FFT uses outside GridSpec, whose to_grid/from_grid perfbench counts."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    if path.name == "fourier_scale.py":
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "GridSpec":
                allowed = {id(n) for n in ast.walk(node)}
    hits = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Attribute) and node.attr not in FFT_HELPERS:
            # np.fft.<name>, numpy.fft.<name>, scipy.fft.<name>
            inner = node.value
            bad = isinstance(inner, ast.Attribute) and inner.attr == "fft"
        elif isinstance(node, ast.Import):
            bad = any(alias.name in FFT_MODULES for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            bad = (node.module in FFT_MODULES and not names <= FFT_HELPERS) or (
                node.module in {"numpy", "scipy"} and "fft" in names
            )
        else:
            continue
        if bad:
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_ffts_go_through_gridspec():
    # a transform that bypasses GridSpec.to_grid/from_grid drops out of the
    # benchmark's fourier_scale.fft_calls count
    assert _package_hits(_fft_bypasses) == []


def _scipy_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_package_does_not_import_scipy():
    # scipy is a test-only dependency (the oracle of the in-package CG); the
    # package needs numpy and click only, which keeps its import fast and small
    assert _package_hits(_scipy_imports) == []


# modules that would let the package run its work on other threads or processes
CONCURRENCY_MODULES = ("concurrent.futures", "threading", "multiprocessing")


def _concurrency_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # `from concurrent import futures` imports concurrent.futures
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(
            name == banned or name.startswith(banned + ".")
            for name in names
            for banned in CONCURRENCY_MODULES
        ):
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_package_runs_in_one_thread():
    # a run's counts (`green_naghdi.counting()`) live in the context of the
    # thread that opened the block: work on another thread or process
    # would go uncounted
    assert _package_hits(_concurrency_imports) == []


def _module_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: assignments, imports,
    functions and classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _module_object_writes(path: Path) -> list[str]:
    """`global` statements, and subscript or attribute assignments (plain
    or augmented) inside a function whose base is a module-level name that
    the function does not rebind locally."""
    tree = ast.parse(path.read_text(), filename=str(path))
    module_names = _module_level_names(tree)
    hits = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)} | {
            n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                hits.append(f"{path.name}:{node.lineno} global")
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue
                base = target
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in module_names - local:
                    hits.append(f"{path.name}:{node.lineno} {base.id}")
    return sorted(set(hits))


def test_no_function_writes_into_a_module_level_object():
    # state that a call leaves behind belongs to its caller or to the run
    # (`green_naghdi.counting()`), not to a module: a module-level object
    # written by a function is shared by every run in the process
    assert _package_hits(_module_object_writes) == []


def _private_caches(path: Path) -> list[str]:
    """Definitions or calls of a `_cached` helper and any `._cache` attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bad = node.name == "_cached"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            bad = name == "_cached"
        elif isinstance(node, ast.Attribute):
            bad = node.attr == "_cache"
        else:
            continue
        if bad:
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_derived_arrays_are_cached_one_way():
    # an array derived from a grid or from the parameters is a
    # functools.cached_property of its owner (GridSpec, PhysicalParams), so
    # there is one place to find it and one way it is built
    assert _package_hits(_private_caches) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """`_`-prefixed functions and classes defined anywhere in a module
    (methods and nested functions included, dunders excluded), by line."""
    return {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names that code uses, as a bare name or an attribute; definitions,
    strings and docstrings do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_helper_has_a_caller():
    # a private helper that no package code uses is dead: tests may keep a
    # replaced form as their reference, the package may not
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no sources under {PACKAGE}"
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources}
    used = set().union(*(_referenced_names(tree) for tree in trees.values()))
    dead = [
        f"{name}:{line} {helper}"
        for name, tree in trees.items()
        for helper, line in _private_definitions(tree).items()
        if helper not in used
    ]
    assert dead == []


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never references; `__init__.py` may
    import a name only to re-export it through `__all__`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= {
            name
            for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "__all__"
            for name in ast.literal_eval(node.value)
        }
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in used:
                    hits.append(f"{path.name}:{node.lineno} {bound}")
    return hits


def test_every_imported_name_is_used():
    # an import that nothing references is dead code the reader still parses
    assert _package_hits(_unused_imports) == []


def _slope_reads(path: Path) -> list[str]:
    """Reads of the attribute `_slope` (PhysicalParams' flat-bottom test)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_slope"
    ]


def test_only_green_naghdi_knows_whether_the_bottom_is_flat():
    # the bathymetry branches of the operators are chosen in green_naghdi
    # alone; other modules call its operators and never branch on the slope
    assert _package_hits(_slope_reads, skip="green_naghdi.py") == []


def test_every_exported_name_resolves():
    # a name that a deletion leaves in an `__all__` fails only at
    # `from ... import *`, which no other test runs
    import importlib

    import nmshallow

    modules = [nmshallow] + [
        importlib.import_module(f"nmshallow.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in {"__init__", "__main__"}
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_validate_and_the_criteria_share_one_body_per_invariant():
    # both reach the operators they measure through `nmshallow.invariants`,
    # so each invariant check has one body
    measured = {"energy_E", "bigT_pairing", "evolve_packed", "manufactured_residual",
                "nash_moser_solve"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    checks = next(n for n in tree.body if getattr(n, "name", None) == "_validation_checks")
    criteria = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    assert _referenced_names(checks) & measured == set()
    assert _referenced_names(criteria) & measured == set()


# optional parameters and defaulted dataclass fields that no call or
# assignment in the package, the scripts or the benchmark sets, each kept
# for the reason given
UNSET_OPTIONS_KEPT = {
    # tests reach the solve's failure contract with max_iter=1 or 50, and
    # the failure text names it
    "invert_bigT.max_iter",
    # perfbench sets it through inspect.signature(invert_bigT).bind
    "invert_bigT.return_info",
    # the exact linearization (substituted=False) is criterion 4's reference
    "build_linearized_coeffs.substituted",
    # None on every package path; dropping the field moves the keys of the
    # schedule.json artifact, which prints "M": null
    "ScheduleParams.M",
}


def _optional_parameters(tree: ast.Module) -> list[tuple[str, str, str, int | None]]:
    """(label, called name, parameter, position or None for keyword-only)
    for each parameter with a default of a module-level function or a
    method; a class's `__init__` is called by the class's name."""

    def params(func, method):
        args = func.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
        if method and not static:
            positional = positional[1:]
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield arg.arg, None

    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out += [(node.name, node.name, name, i) for name, i in params(node, False)]
        elif isinstance(node, ast.ClassDef):
            for func in node.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                init = func.name == "__init__"
                label = node.name if init else f"{node.name}.{func.name}"
                called = node.name if init else func.name
                out += [(label, called, name, i) for name, i in params(func, True)]
    return out


def _defaulted_fields(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, field, position) for each field of a module-level dataclass
    whose default is a plain value, not a `field(...)` call."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef) or not any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            continue
        fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
        for i, f in enumerate(fields):
            made = isinstance(f.value, ast.Call) and getattr(f.value.func, "id", None) == "field"
            if f.value is not None and not made:
                out.append((node.name, f.target.id, i))
    return out


def _attribute_writes(paths) -> set[str]:
    """Every attribute name that an assignment in the given files writes."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
    }


def _calls_by_name(paths) -> dict[str, list[ast.Call]]:
    """Every call in the given files, keyed by the called name (`f(...)`
    and `obj.f(...)` alike)."""
    calls: dict[str, list[ast.Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name:
                    calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_optional_parameter_has_a_caller():
    # an option exists where callers set different values; one that no call
    # in the package, the scripts or the benchmark sets is a constant. A
    # dataclass field with a plain default is an option too: it is set by a
    # constructor call that passes it or by an assignment to the attribute
    root = PACKAGE.parents[1]
    callers = [p for d in ("src", "scripts", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    calls = _calls_by_name(callers)
    written = _attribute_writes(callers)
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    unset = {
        f"{label}.{name}"
        for tree in trees
        for label, called, name, position in _optional_parameters(tree)
        if not any(_sets(call, name, position) for call in calls.get(called, []))
    }
    unset |= {
        f"{cls}.{name}"
        for tree in trees
        for cls, name, position in _defaulted_fields(tree)
        if name not in written
        and not any(_sets(call, name, position) for call in calls.get(cls, []))
    }
    assert sorted(unset - UNSET_OPTIONS_KEPT) == []
    # a kept option that a caller now sets needs no exception any more
    assert sorted(UNSET_OPTIONS_KEPT - unset) == []
