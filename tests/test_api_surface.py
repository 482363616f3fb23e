"""Every definition under src/ serves the package: each def, class and
method is referenced in src/ outside its own definition, or it sits on
ALLOWED with the reason it is kept.

A reference is an identifier match: a bare name or an attribute for a
module-level def or class, an attribute for a method.  Imports, the
package re-exports among them, are not references.  Dunder methods are
called by the language and are exempt.  Names are matched without types,
so a method can pass on another class's use of the same name; the guard
catches what no code names at all.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "betascenery"

# "module.Qualified.name" -> why it stays although no code in src/ uses it
ALLOWED = {
    "beta_numeration.MapSpec":
        "the paper's diffeomorphism g, to be wired into normality",
    "beta_numeration.pushforward_samples": "applies g to float samples",
    "beta_numeration.ParryDensity.sample":
        "draws the Parry-law points the pushforward test moves by g",
    "algebraics.bigreal.BigReal.exp": "encloses the analytic g = exp",
    "algebraics.algnum.FieldElement.enclosure":
        "tests the Horner interval against an mpmath oracle",
    "cli._Parser.error": "argparse calls it on a usage error",
    "scenery.windows.window_of_state":
        "the one-state window the acceptance tests and perfbench spans name",
    "scenery.windows.WindowMeasure.reflect":
        "tests the reflection identity of oriented windows",
    "scenery.windows.WindowMeasure.l1_distance":
        "tests the zoom/shift identity of windows",
    "model.Model.sample_eta": "tests the model's self-similarity",
    "model.Model.atom_mass_bound": "tests the non-atomic bound",
    "model.Model.gap": "tests the exact gap of the separated pair",
    "scenery.chain.ExtendedChain.orientation_marginal":
        "tests the orientation law of reflected models",
    "beta_numeration.OrbitRecord.reconstruct_exact":
        "tests that digits and remainder rebuild the point exactly",
    "rng.UniformStream.__getitem__":
        "the scalar draw the exact point coder is tested against",
}


def _definitions():
    """(key, name, is_method, file, first line, last line) of every def
    and class, nested ones included."""
    out = []

    def walk(node, prefix, module, path, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                out.append((f"{module}.{qual}", child.name, in_class, path,
                            child.lineno, child.end_lineno))
                walk(child, qual, module, path,
                     isinstance(child, ast.ClassDef))
            else:
                walk(child, prefix, module, path, in_class)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        module = ".".join(p for p in rel.parts if p != "__init__")
        walk(ast.parse(path.read_text(encoding="utf-8")), "", module, path,
             False)
    return out


def _references():
    """identifier -> [(file, line, is_attribute)] over all of src/."""
    refs = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno,
                                                       True))
    return refs


def test_every_definition_is_used_or_allowed():
    refs = _references()
    unused = []
    for key, name, is_method, path, first, last in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        used = any((attr or not is_method)
                   and not (p == path and first <= line <= last)
                   for p, line, attr in refs.get(name, ()))
        if not used and key not in ALLOWED:
            unused.append(key)
    assert not unused, ("defined under src/ but referenced nowhere in it; "
                        "delete them or add them to ALLOWED with a reason: "
                        + ", ".join(unused))


def test_allowed_names_exist():
    keys = {d[0] for d in _definitions()}
    missing = sorted(set(ALLOWED) - keys)
    assert not missing, f"ALLOWED names no definition: {missing}"
