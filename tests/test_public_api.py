"""Public-API hygiene: exports exist, are documented, and are stable."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro", "repro.util", "repro.net", "repro.dns", "repro.topology",
    "repro.anycast", "repro.world", "repro.attacks", "repro.telescope",
    "repro.openintel", "repro.streaming", "repro.chaos", "repro.obs",
    "repro.artifacts", "repro.engine", "repro.datasets", "repro.core",
    "repro.reactive",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        for name in exported:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_documented(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    def test_reactive_exports_the_probe_store(self):
        import repro.reactive
        for name in ("ReactiveStore", "ReactiveProbe",
                     "measurement_store_from_reactive",
                     "reactive_impact_series"):
            assert name in repro.reactive.__all__
            assert getattr(repro.reactive, name).__doc__

    def test_engine_exports(self):
        import repro.engine
        assert sorted(repro.engine.__all__) == sorted([
            "Phase", "PhaseGraph", "PhaseGraphError", "DuplicateNodeError",
            "RunContext", "Executor", "cached_analysis", "analyses_of",
            "analysis_graph"])

    def test_top_level_api(self):
        assert callable(repro.run_study)
        assert callable(repro.build_world)
        assert repro.WorldConfig is not None
        assert repro.__version__

    @pytest.mark.parametrize("package", PACKAGES[1:])
    def test_public_callables_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            if getattr(obj, "__module__", "") == "typing":
                continue  # typing aliases (e.g. Transport) carry no doc
            if not getattr(obj, "__doc__", None):
                undocumented.append(f"{package}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_version_matches_pyproject(self):
        import re
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(r'^version = "([^"]+)"', pyproject.read_text(),
                          re.MULTILINE)
        assert match
        assert repro.__version__ == match.group(1)


#: Public names no caller outside tests reaches, kept on purpose.
UNCALLED_ON_PURPOSE = {
    # The closed form the simulated resolver cache is checked against.
    "analytic_failure_share",
    # The reader for the files ``repro export`` writes.
    "dataset_bundle_load",
}

#: Public class members no caller outside tests reads, each kept for the
#: reason given.
MEMBERS_UNREAD_ON_PURPOSE = {
    "BackscatterSimulator.materialize_packets":
        "reference implementation a test compares the fast path against",
    "BackscatterSimulator.window_jitter":
        "reference implementation a test compares the fast path against",
    "Darknet.expected_hits":
        "reference implementation a test compares the sampler against",
    "Darknet.expected_unique_slash16":
        "reference implementation a test compares the sampler against",
    "Darknet.expected_unique_addresses":
        "reference implementation a test compares the sampler against",
    "FakeClock.advance": "test double",
    "WorldConfig.tiny": "user entry point documented in README/docs",
    "WorldConfig.small": "user entry point documented in README/docs",
    "WorldConfig.paper_scale": "user entry point documented in README/docs",
    "DatasetBundle.feed_records":
        "payload of the exempt ``dataset_bundle_load`` reader",
    "Consumer.missed": "kept to report a fault",
    "Topic.n_trimmed": "kept to report a fault",
    "RejectedRecord.record": "kept to report a fault",
    "Campaign.shed_at": "kept to report a fault",
    "HostingProvider.partners":
        "persisted by reflection into the world golden's dump",
    "InferredAttack.max_slash16":
        "persisted by reflection into the feed artifact's columns",
}

#: Where a caller may live: the package itself, its benchmarks, the
#: study benchmark and the examples.
CALLER_DIRS = ("src", "benchmarks", "studybench", "examples")
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def sources():
    """Every file under ``CALLER_DIRS``, parsed once: path -> (tree,
    lines)."""
    parsed = {}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            text = path.read_text()
            parsed[path] = (ast.parse(text), text.splitlines())
    return parsed


def _is_package(path):
    return ROOT / "src" / "repro" in path.parents


def _declaration_lines(tree):
    """Lines of import statements and ``__all__`` lists: a name listed
    there is declared, not called."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _members(cls):
    """``(name, definition or None)`` for a class's members: methods
    and properties (with their definition), then fields, which have no
    body: annotated fields, ``__slots__`` entries and the attributes
    ``__init__`` sets on ``self``."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
            if node.name == "__init__":
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Attribute) \
                            and isinstance(sub.ctx, ast.Store) \
                            and isinstance(sub.value, ast.Name) \
                            and sub.value.id == "self":
                        yield sub.attr, None
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            yield node.target.id, None
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in node.targets):
            for element in ast.walk(node.value):
                if isinstance(element, ast.Constant):
                    yield element.value, None


def _uncalled(sources):
    """Public names of ``repro`` that nothing outside tests references."""
    # (name, the span of its definition or None for an ``__all__``
    # entry): a reference inside the name's own body does not count.
    public = set()
    for path, (tree, _) in sources.items():
        if not _is_package(path):
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                public.add((node.name,
                            (path, node.lineno, node.end_lineno)))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                public.update((element.value, None)
                              for element in node.value.elts)

    # public name -> every (file, line) outside a declaration it
    # appears on
    names = {name for name, _ in public}
    seen = {}
    for path, (tree, lines) in sources.items():
        declared = _declaration_lines(tree)
        for lineno, line in enumerate(lines, start=1):
            if lineno not in declared:
                for word in names.intersection(re.findall(r"\w+", line)):
                    seen.setdefault(word, []).append((path, lineno))

    def referenced(name, span):
        return any(not (span and path == span[0]
                        and span[1] <= lineno <= span[2])
                   for path, lineno in seen.get(name, ()))

    return {name for name, span in public if not referenced(name, span)}


def _unread(sources):
    """Public class members of ``repro`` that nothing outside tests
    reads. A method is reached by an attribute naming it outside its own
    body; a field only by a read: an attribute load or a string constant
    (``getattr``, a serializer's column table). The scan goes by name,
    so a member shares its fate with every same-named member of another
    class."""
    # attribute -> every (file, line) it appears on; the names some
    # attribute load or string constant reads; the package's classes.
    uses, reads, classes = {}, set(), []
    for path, (tree, _) in sources.items():
        package = _is_package(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
                if isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
            elif isinstance(node, ast.Constant):
                if isinstance(node.value, str):
                    reads.add(node.value)
            elif package and isinstance(node, ast.ClassDef):
                classes.append((path, node))

    unread = set()
    for path, cls in classes:
        for name, body in _members(cls):
            if name.startswith("_"):
                continue
            if body is None:
                reached = name in reads
            else:
                reached = any(
                    not (where == path and body.lineno <= lineno
                         <= body.end_lineno)
                    for where, lineno in uses.get(name, ()))
            if not reached:
                unread.add(f"{cls.name}.{name}")
    return unread


@pytest.fixture(scope="module")
def uncalled(sources):
    return _uncalled(sources)


@pytest.fixture(scope="module")
def unread(sources):
    return _unread(sources)


class TestEveryPublicNameHasACaller:
    """A public name or class member of ``repro`` that only its own unit
    test reaches is dead code: delete both."""

    def test_public_names_are_referenced_outside_tests(self, uncalled):
        left = sorted(uncalled - set(UNCALLED_ON_PURPOSE))
        assert not left, (
            f"public names only tests reach: {left}; delete them "
            f"with their tests, or exempt a reference in "
            f"UNCALLED_ON_PURPOSE with its reason")

    def test_public_members_are_read_outside_tests(self, unread):
        left = sorted(unread - set(MEMBERS_UNREAD_ON_PURPOSE))
        assert not left, (
            f"class members only tests read: {left}; delete "
            f"them with their tests, or exempt one in "
            f"MEMBERS_UNREAD_ON_PURPOSE with its reason")


def _bindings(tree):
    """Name -> every expression bound to it in one file: assignments
    (to a name or an attribute), keyword arguments and parameter
    defaults."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and node.value is not None:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, (ast.Name, ast.Attribute)):
                    name = getattr(target, "id", None) or target.attr
                    out.setdefault(name, []).append(node.value)
        elif isinstance(node, ast.keyword) and node.arg:
            out.setdefault(node.arg, []).append(node.value)
        elif isinstance(node, ast.arguments):
            positional = node.posonlyargs + node.args
            pairs = list(zip(positional[len(positional)
                                        - len(node.defaults):],
                             node.defaults))
            pairs += zip(node.kwonlyargs, node.kw_defaults)
            for arg, default in pairs:
                if default is not None:
                    out.setdefault(arg.arg, []).append(default)
    return out


def _mapping_keys(expr, bindings, followed):
    """The string keys of the dict literals (``{...}`` or
    ``dict(...)``) an unpacked ``**expr`` can hold, following a name or
    attribute to whatever the same file binds to it."""
    if isinstance(expr, ast.Dict):
        for key, value in zip(expr.keys, expr.values):
            if key is None:
                yield from _mapping_keys(value, bindings, followed)
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key.value
    elif isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name) \
            and expr.func.id == "dict":
        for keyword in expr.keywords:
            if keyword.arg:
                yield keyword.arg
            else:
                yield from _mapping_keys(keyword.value, bindings, followed)
    elif isinstance(expr, (ast.Name, ast.Attribute)):
        name = getattr(expr, "id", None) or expr.attr
        if name not in followed:
            followed.add(name)
            for value in bindings.get(name, ()):
                yield from _mapping_keys(value, bindings, followed)


#: Defaulted fields of frozen dataclasses no caller outside tests sets,
#: each kept for the reason given.
FIELDS_UNSET_ON_PURPOSE = {
    "DeploymentProfile.n_asns":
        "persisted by reflection into the world golden's dump",
}


def _is_frozen_dataclass(cls):
    for decorator in cls.decorator_list:
        if isinstance(decorator, ast.Call) and any(
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords):
            func = decorator.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "dataclass":
                return True
    return False


def _fields(cls):
    """``(name, has default)`` for a dataclass's fields, in order;
    ``ClassVar`` annotations are not fields."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name) \
                and "ClassVar" not in ast.dump(node.annotation):
            yield node.target.id, node.value is not None


def _callee(node):
    func = node.func
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _own_class_calls(cls):
    """The ``cls(...)`` calls inside a class's own classmethods."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and any(
                getattr(d, "id", None) == "classmethod"
                for d in node.decorator_list) and node.args.args:
            first = node.args.args[0].arg
            for call in ast.walk(node):
                if isinstance(call, ast.Call) \
                        and isinstance(call.func, ast.Name) \
                        and call.func.id == first:
                    yield call


def _unset(sources):
    """Defaulted fields of frozen dataclasses under ``src/repro`` that
    nobody outside tests sets. Such a field is one value in use: it
    belongs in a constant of the module that reads it. A field is set by a call
    outside tests to its class (or to ``cls`` in the class's own
    classmethods), as a keyword or as the positional argument at the
    field's index; by a keyword of ``dataclasses.replace``; or by a
    string key of a dict literal unpacked into either with ``**``.
    Calls are matched by name, so a ``replace`` of another dataclass,
    or a same-named class elsewhere, counts."""
    classes = {}  # name -> [(field, has default)]
    calls = []  # (callee, call, the file's tree)
    for path, (tree, _) in sources.items():
        if not _is_package(path):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node):
                classes[node.name] = list(_fields(node))
                calls += [(node.name, call, tree)
                          for call in _own_class_calls(node)]

    def set_by(call, names, tree, bindings):
        """The field names one call sets, ``names`` being its class's
        fields in order."""
        positional = [a for a in call.args if not isinstance(a, ast.Starred)]
        out = set(names[:len(positional)])
        for keyword in call.keywords:
            if keyword.arg:
                out.add(keyword.arg)
            else:
                if tree not in bindings:
                    bindings[tree] = _bindings(tree)
                out.update(_mapping_keys(keyword.value, bindings[tree],
                                         set()))
        return out

    # (class name, field); a ``replace`` keyword sets the field of any
    # class, under the class name None.
    set_fields, bindings = set(), {}
    for path, (tree, _) in sources.items():
        calls += [(_callee(node), node, tree) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)]
    for callee, call, tree in calls:
        if callee in classes:
            names = [name for name, _ in classes[callee]]
            set_fields.update((callee, name) for name in
                              set_by(call, names, tree, bindings))
        elif callee == "replace":
            set_fields.update((None, name) for name in
                              set_by(call, [], tree, bindings))

    return {f"{cls}.{field}" for cls, fields in classes.items()
            for field, has_default in fields
            if has_default and (cls, field) not in set_fields
            and (None, field) not in set_fields}


@pytest.fixture(scope="module")
def unset(sources):
    return _unset(sources)


def test_frozen_dataclass_fields_are_set_outside_tests(unset):
    left = sorted(unset - set(FIELDS_UNSET_ON_PURPOSE))
    assert not left, (
        f"{len(left)} frozen dataclass fields no caller outside tests "
        f"sets: {left}; make each a constant of the module that reads "
        f"it, or exempt one in FIELDS_UNSET_ON_PURPOSE with its reason")


@pytest.mark.parametrize("exemptions, flagged", [
    ("UNCALLED_ON_PURPOSE", "uncalled"),
    ("MEMBERS_UNREAD_ON_PURPOSE", "unread"),
    ("FIELDS_UNSET_ON_PURPOSE", "unset"),
    ("PARAMETERS_UNSET_ON_PURPOSE", "unset_parameters"),
])
def test_exemptions_are_not_stale(request, exemptions, flagged):
    """Every exemption names something that exists and that its scan
    flags without the exemption: one whose name was deleted, or that a
    caller now reaches, must go with it."""
    stale = sorted(set(globals()[exemptions])
                   - request.getfixturevalue(flagged))
    assert not stale, (
        f"{exemptions} exempts what its scan no longer flags: {stale}; "
        f"delete those entries")


#: Defaulted parameters no caller outside tests sets, each kept for the
#: reason given.
PARAMETERS_UNSET_ON_PURPOSE = {
    "BackscatterSimulator.materialize_packets(max_packets)":
        "reference path a test compares the fast path against",
    "Consumer.poll(max_records)":
        "test seam: a partial read shows a lagging consumer's offsets",
    "FakeClock.__init__(start)": "test seam: a test double's start time",
    "RunTelemetry.create(clock)":
        "test seam: a fake clock makes span durations exact",
    "RunTelemetry.__init__(clock)":
        "test seam: ``RunTelemetry.create(clock)`` passes it through",
    "ScenarioPack.__init__(params)":
        "set by ``get_pack``, which calls the pack class through a "
        "variable the scan cannot follow",
    "WorldConfig.tiny(seed)":
        "test seam: tests build the tiny preset at several seeds",
    "run_study(n_workers)":
        "the study benchmark passes it in a ``**`` of a returned dict; "
        "it goes with the benchmark's next change",
    "main(argv)": "test seam: tests run the CLI in-process",
}


def _method_callee(cls, method):
    """The name a call to ``method`` goes by: a class call reaches
    ``__init__``."""
    return cls.name if method.name == "__init__" else method.name


def _scanned_defs(tree):
    """``(qualified name, callee name, definition, bound)`` for a
    file's module-level functions and the methods of its module-level
    classes; ``bound`` says a call does not pass the first parameter
    (``self``/``cls``)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in sub.decorator_list)
                yield (f"{node.name}.{sub.name}", _method_callee(node, sub),
                       sub, not static)


def _parameters(definition, bound):
    """``(positional names a call can fill, {name: has default})``."""
    args = definition.args
    positional = args.posonlyargs + args.args
    defaulted = {arg.arg for arg in positional[len(positional)
                                               - len(args.defaults):]}
    defaulted.update(arg.arg for arg, default
                     in zip(args.kwonlyargs, args.kw_defaults)
                     if default is not None)
    names = [arg.arg for arg in positional][1 if bound else 0:]
    every = {arg.arg: arg.arg in defaulted
             for arg in positional + args.kwonlyargs}
    return names, every


def _unset_parameters(sources):
    """Defaulted parameters of functions and methods under
    ``src/repro`` that no call outside tests sets. Such a parameter is
    one value in use: its behaviour is the only one, and the switch is
    dead. A call sets a parameter by keyword, by the positional
    argument at its index (a ``*`` argument fills every index from its
    own on), or by a string key of a dict literal unpacked with ``**``.
    Callees are matched by name, a class call reaching ``__init__``. A
    call that passes the enclosing function's own parameter through
    sets the callee's only if that parameter is required or itself
    set."""
    signatures = {}  # callee name -> [positional names of each def]
    scanned = []  # (qualified name, callee name, {name: has default})
    for path, (tree, _) in sources.items():
        if not _is_package(path):
            continue
        for qualname, callee, definition, bound in _scanned_defs(tree):
            names, every = _parameters(definition, bound)
            signatures.setdefault(callee, []).append(names)
            scanned.append((qualname, callee, every))

    # (callee, parameter) pairs a call sets outright, and those it sets
    # only if an enclosing function's (callee, parameter) is set.
    outright, forwarded, bindings = set(), [], {}

    def record(callee, name, value, enclosing):
        key = (callee, name)
        if isinstance(value, ast.Name):
            for outer, every in reversed(enclosing):
                if value.id in every:
                    if every[value.id]:
                        forwarded.append(((outer, value.id), key))
                        return
                    break
        outright.add(key)

    def visit_call(call, callee, tree, enclosing):
        for names in signatures.get(callee, ()):
            for index, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    for name in names[index:]:
                        outright.add((callee, name))
                    break
                if index < len(names):
                    record(callee, names[index], arg, enclosing)
        for keyword in call.keywords:
            if keyword.arg:
                record(callee, keyword.arg, keyword.value, enclosing)
            else:
                if tree not in bindings:
                    bindings[tree] = _bindings(tree)
                outright.update((callee, name) for name in _mapping_keys(
                    keyword.value, bindings[tree], set()))

    def walk(node, tree, enclosing, owner):
        """Visit every call under ``node``; ``enclosing`` is the stack
        of ``(callee name, {parameter: has default})`` of the defs
        around it, and ``owner`` is ``(the name a classmethod binds its
        class to, the class, its bases)`` inside a method."""
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    callee = _method_callee(node, child)
                    classmethod_ = any(
                        getattr(d, "id", None) == "classmethod"
                        for d in child.decorator_list)
                    first = (child.args.args[0].arg
                             if classmethod_ and child.args.args else None)
                    _, every = _parameters(child, False)
                    bases = [getattr(b, "id", None)
                             or getattr(b, "attr", None) for b in node.bases]
                    for sub in child.decorator_list + child.args.defaults:
                        walk(sub, tree, enclosing, owner)
                    for sub in child.body:
                        walk(sub, tree, enclosing + [(callee, every)],
                             (first, node.name, bases))
                else:
                    walk(child, tree, enclosing, owner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _, every = _parameters(node, False)
            for sub in node.decorator_list + node.args.defaults:
                walk(sub, tree, enclosing, owner)
            for sub in node.body:
                walk(sub, tree, enclosing + [(node.name, every)], owner)
            return
        if isinstance(node, ast.Call):
            callees = [_callee(node)]
            if owner and isinstance(node.func, ast.Name) \
                    and node.func.id == owner[0]:
                callees = [owner[1]]
            elif owner and callees == ["__init__"] \
                    and isinstance(node.func.value, ast.Call) \
                    and _callee(node.func.value) == "super":
                callees = owner[2]
            for callee in callees:
                visit_call(node, callee, tree, enclosing)
        for child in ast.iter_child_nodes(node):
            walk(child, tree, enclosing, owner)

    for path, (tree, _) in sources.items():
        walk(tree, tree, [], None)

    set_ = set(outright)
    changed = True
    while changed:
        changed = False
        for source, target in forwarded:
            if source in set_ and target not in set_:
                set_.add(target)
                changed = True

    return {f"{qualname}({name})" for qualname, callee, every in scanned
            for name, has_default in every.items()
            if has_default and (callee, name) not in set_}


@pytest.fixture(scope="module")
def unset_parameters(sources):
    return _unset_parameters(sources)


def test_defaulted_parameters_are_set_outside_tests(unset_parameters):
    left = sorted(unset_parameters - set(PARAMETERS_UNSET_ON_PURPOSE))
    assert not left, (
        f"{len(left)} defaulted parameters no caller outside tests "
        f"sets: {left}; delete each switch and keep the default's "
        f"behaviour, or exempt one in PARAMETERS_UNSET_ON_PURPOSE with "
        f"its reason")


#: ``(package source, caller source, what the scan flags)``: each row
#: pins one rule of ``_unset_parameters`` on a two-file tree.
PARAMETER_SCAN_CASES = {
    "never-set": ("def f(a, b=1): pass", "f(0)", {"f(b)"}),
    "keyword": ("def f(a, b=1): pass", "f(0, b=2)", set()),
    "positional": ("def f(a, b=1): pass", "f(0, 2)", set()),
    "starred": ("def f(a, b=1): pass", "f(*args)", set()),
    "dict-literal": ("def f(a, b=1): pass", "f(0, **{'b': 2})", set()),
    "forwards-an-unset-default": (
        "def f(a, b=1): pass\ndef g(b=1): f(0, b=b)", "g()",
        {"f(b)", "g(b)"}),
    "forwards-a-set-default": (
        "def f(a, b=1): pass\ndef g(b=1): f(0, b=b)", "g(b=3)", set()),
    "forwards-a-required-parameter": (
        "def f(a, b=1): pass\ndef g(b): f(0, b=b)", "", set()),
    "class-call-skips-self": (
        "class C:\n    def __init__(self, x=1): pass", "C(2)", set()),
    "dict-bound-to-a-name": (
        "def f(a, b=1): pass", "opts = {'b': 2}\nf(0, **opts)", set()),
    "method-call": (
        "class C:\n    def run(self, n=1): pass", "c.run(2)", set()),
}


@pytest.mark.parametrize("case", sorted(PARAMETER_SCAN_CASES))
def test_parameter_scan_rules(case):
    package, caller, flagged = PARAMETER_SCAN_CASES[case]
    trees = {ROOT / "src" / "repro" / "probe.py": package,
             ROOT / "examples" / "probe.py": caller}
    sources = {path: (ast.parse(text), text.splitlines())
               for path, text in trees.items()}
    assert _unset_parameters(sources) == flagged
