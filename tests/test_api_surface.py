"""Every definition under src/ serves the package: each def, class and
method is referenced in src/ outside its own definition, or it sits on
ALLOWED with the reason it is kept.  Every defaulted parameter is passed by
some call in src/, by keyword or by position, or it sits on
ALLOWED_PARAMETERS with the reason it is kept.  Every dataclass field is
read as an attribute somewhere in src/, or it sits on ALLOWED_FIELDS with
the reason it is kept.  No list keeps an entry that src/ uses, passes or
reads, or one that names nothing.  Every searchsorted call sits in a
function on ALLOWED_SEARCHSORTED: symbol draws go through the one kernel,
`rng.draw_symbols`.  Every Philox, Generator or default_rng call sits in
rng.py: uniforms have one producer, `rng.UniformStream`.

A reference is an identifier match: a bare name or an attribute for a
module-level def or class, an attribute for a method.  Imports, the
package re-exports among them, and type annotations are not references:
neither runs the code it names.  Dunder methods are called by the language
and are exempt, except that a call of a class passes the parameters of its
__init__.  Names are matched without types, so a method can pass on
another class's use of the same name; the guard catches what no code names
at all.  A function that src/ also names outside a call (bound to a local,
passed as a value) may be called under another name, so its parameters are
not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "betascenery"

# "module.Qualified.name" -> why it stays although no code in src/ uses it
ALLOWED = {
    "beta_numeration.MapSpec":
        "the paper's diffeomorphism g, to be wired into normality",
    "beta_numeration.pushforward_samples":
        "applies g exactly to model points, to be wired into normality",
    "cli._Parser.error": "argparse calls it on a usage error",
    "beta_numeration.orbit_of_one":
        "public: the orbit of 1 and its cycle; parry_density reads the same "
        "orbit with its floats through _orbit_of_one",
}

# "module.Qualified.function.parameter" -> why its default stays although
# no call in src/ passes it
ALLOWED_PARAMETERS = {
    "scenery.windows.windows_of_tables.bins_half":
        "oracle-sweep knob: the sweep tests render coarse binnings",
    "scenery.windows.windows_of_tables.eps_cut":
        "oracle-sweep knob: the sweep tests reach the mass cutoff",
    "scenery.windows.windows_of_tables.node_budget":
        "oracle-sweep knob: the sweep tests reach the budget valve",
    "beta_numeration.pushforward_samples.hull":
        "checks that g is a diffeomorphism on the hull it is applied to",
    "cli.main.argv":
        "tests and perfbench run the command line in process with argv",
}

# "module.Class.field" -> why a dataclass field stays although no code in
# src/ reads it as an attribute
ALLOWED_FIELDS = {
    "scenery.flow.QSamples.state_indices":
        "the chain state of each draw: with times, it rebuilds the draw",
    "scenery.flow.QSamples.times":
        "the roof time of each draw: with state_indices, it rebuilds it",
    "scenery.flow.SceneryOrbit.times":
        "the flow time of each window: the orbit's time grid",
    "scenery.spectrum.NormalityImplied.witness":
        "the independence certificate behind the verdict",
}

# "module.Qualified.function" -> why it may call searchsorted; any other
# inverse-CDF draw goes through rng.draw_symbols, and this list does not grow
ALLOWED_SEARCHSORTED = {
    "scenery.windows._descend":
        "finds each moved focus among the sorted parents of a descent level",
    "cli.cmd_disintegration":
        "the two samples' empirical CDFs on their merged grid",
    "beta_numeration.normality_from_orbit":
        "the orbit's empirical CDF on the discrepancy grid",
    "beta_numeration.ParryDensity.cdf":
        "the density piece under each point of the Parry CDF",
}


def _definitions():
    """(key, node, class name or None, file) of every def and class,
    nested ones included."""
    out = []

    def walk(node, prefix, module, path, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                out.append((f"{module}.{qual}", child, cls, path))
                walk(child, qual, module, path,
                     child.name if isinstance(child, ast.ClassDef) else None)
            else:
                walk(child, prefix, module, path, cls)

    for path in sorted(SRC.rglob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), "", _module(path),
             path, None)
    return out


def _module(path):
    rel = path.relative_to(SRC).with_suffix("")
    return ".".join(p for p in rel.parts if p != "__init__")


def _trees():
    return [(path, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.rglob("*.py"))]


def _annotations(tree):
    """The ids of the nodes inside the type annotations of a module."""
    out = set()
    for node in ast.walk(tree):
        for a in (getattr(node, "annotation", None),
                  getattr(node, "returns", None)):
            if a is not None:
                out.update(id(n) for n in ast.walk(a))
    return out


def _references():
    """identifier -> [(file, line, is_attribute)] over all of src/, outside
    type annotations."""
    refs = {}
    for path, tree in _trees():
        skip = _annotations(tree)
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno,
                                                       True))
    return refs


def _calls():
    """(name -> [(call, called through an attribute)], the names that also
    appear outside a call's function position) over all of src/."""
    calls, values = {}, set()
    for _, tree in _trees():
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, (ast.Name, ast.Attribute)):
                    name = f.id if isinstance(f, ast.Name) else f.attr
                    calls.setdefault(name, []).append(
                        (node, isinstance(f, ast.Attribute)))
                    called.add(id(f))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in called:
                values.add(node.id)
            elif isinstance(node, ast.Attribute) and id(node) not in called:
                values.add(node.attr)
    return calls, values


def _passes(call, position, name) -> bool:
    """True if `call` passes the parameter `name` at `position` (None for
    a keyword-only one); unpacked arguments pass everything."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or
        any(isinstance(a, ast.Starred) for a in call.args))


def _unused_definitions():
    """Keys of the definitions, dunders aside, that src/ references nowhere
    outside their own body."""
    refs = _references()
    unused = set()
    for key, node, cls, path in _definitions():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any((attr or cls is None)
                   and not (p == path and node.lineno <= line
                            <= node.end_lineno)
                   for p, line, attr in refs.get(name, ())):
            unused.add(key)
    return unused


def test_every_definition_is_used_or_allowed():
    unused = sorted(_unused_definitions() - set(ALLOWED))
    assert not unused, ("defined under src/ but referenced nowhere in it; "
                        "delete them or add them to ALLOWED with a reason: "
                        + ", ".join(unused))


def _defaulted_parameters():
    """(key, names the function is called by, [(position, parameter)]) of
    every def with defaulted parameters; positions count the arguments of
    a call, so a method's self is not one."""
    out = []
    for key, node, cls, _ in _definitions():
        if isinstance(node, ast.ClassDef):
            continue
        if node.name == "__init__":
            names = (cls, "__init__")
        elif node.name.startswith("__") and node.name.endswith("__"):
            continue
        else:
            names = (node.name,)
        a = node.args
        pos = a.posonlyargs + a.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        skip = 1 if cls is not None and not static else 0
        params = [(i - skip, p.arg) for i, p in enumerate(pos)
                  if i >= len(pos) - len(a.defaults)]
        params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                   if d is not None]
        if params:
            out.append((key, names, params))
    return out


def _unpassed_parameters():
    """Keys of the defaulted parameters that no call in src/ passes, of the
    functions that src/ names only in calls."""
    calls, values = _calls()
    unpassed = set()
    for key, names, params in _defaulted_parameters():
        if any(n in values for n in names):
            continue
        for position, param in params:
            if not any(_passes(call, position, param)
                       for n in names for call, _ in calls.get(n, ())):
                unpassed.add(f"{key}.{param}")
    return unpassed


def test_every_default_is_passed_or_allowed():
    unpassed = sorted(_unpassed_parameters() - set(ALLOWED_PARAMETERS))
    assert not unpassed, ("defaulted parameters that no call in src/ "
                          "passes; delete them or add them to "
                          "ALLOWED_PARAMETERS with a reason: "
                          + ", ".join(unpassed))


def test_allowed_names_exist():
    keys = {d[0] for d in _definitions()}
    missing = sorted(set(ALLOWED) - keys)
    assert not missing, f"ALLOWED names no definition: {missing}"
    stale = sorted(set(ALLOWED) - _unused_definitions())
    assert not stale, f"ALLOWED names definitions src/ uses: {stale}"
    params = {f"{key}.{p}" for key, _, ps in _defaulted_parameters()
              for _, p in ps}
    missing = sorted(set(ALLOWED_PARAMETERS) - params)
    assert not missing, f"ALLOWED_PARAMETERS names no parameter: {missing}"
    stale = sorted(set(ALLOWED_PARAMETERS) - _unpassed_parameters())
    assert not stale, ("ALLOWED_PARAMETERS names parameters src/ passes: "
                       f"{stale}")


def _is_dataclass(node) -> bool:
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", None) == "dataclass" or \
                getattr(f, "attr", None) == "dataclass":
            return True
    return False


def _fields():
    """"module.Class.field" of every field a dataclass under src/
    declares, with the field's name."""
    out = {}
    for key, node, _, _ in _definitions():
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and \
                        isinstance(item.target, ast.Name):
                    out[f"{key}.{item.target.id}"] = item.target.id
    return out


def _unread_fields():
    """The dataclass fields that no attribute read in src/ names."""
    read = {node.attr for _, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return {key for key, name in _fields().items() if name not in read}


def test_every_field_is_read_or_allowed():
    unread = sorted(_unread_fields() - set(ALLOWED_FIELDS))
    assert not unread, ("dataclass fields that src/ never reads; delete "
                        "them or add them to ALLOWED_FIELDS with a reason: "
                        + ", ".join(unread))


def test_allowed_fields_exist():
    missing = sorted(set(ALLOWED_FIELDS) - set(_fields()))
    assert not missing, f"ALLOWED_FIELDS names no field: {missing}"
    stale = sorted(set(ALLOWED_FIELDS) - _unread_fields())
    assert not stale, f"ALLOWED_FIELDS names fields src/ reads: {stale}"


def _callers(*names):
    """The innermost def or class around each call of one of `names` under
    src/, as a "module.Qualified.function" key; the module for a call
    outside every def."""
    found = set()

    def walk(node, key):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, f"{key}.{child.name}")
                continue
            f = getattr(child, "func", None)
            name = getattr(f, "attr", None) or getattr(f, "id", None)
            if isinstance(child, ast.Call) and name in names:
                found.add(key)
            walk(child, key)

    for path, tree in _trees():
        walk(tree, _module(path))
    return found


def test_searchsorted_only_where_allowed():
    found = _callers("searchsorted")
    extra = sorted(found - set(ALLOWED_SEARCHSORTED))
    assert not extra, ("searchsorted outside the draw kernel; draw symbols "
                       "with rng.draw_symbols: " + ", ".join(extra))
    stale = sorted(set(ALLOWED_SEARCHSORTED) - found)
    assert not stale, f"ALLOWED_SEARCHSORTED names no caller: {stale}"


def test_uniforms_have_one_producer():
    outside = sorted(k for k in _callers("Philox", "Generator", "default_rng")
                     if k != "rng" and not k.startswith("rng."))
    assert not outside, ("a bit generator built outside rng.py; read "
                         "uniforms from rng.UniformStream: "
                         + ", ".join(outside))
