"""Guard against regrowth: every top-level function and class in
``src/qmit``, and every method and property of those classes, is used
somewhere in ``src/qmit`` besides its own definition.

A top-level name counts as used where it appears as a bare name or as an
attribute (``module.name``) outside its own ``def`` or ``class``
statement; imports do not count.  A method or property counts as used
where its name appears as an attribute (``obj.name``) outside its own
``def``; the guard does not know types, so any attribute of that name
counts.  Dunder methods are called by Python itself and are not checked.
Names the package offers to its users and no module of the package calls
sit in :data:`ALLOWED`, each with the reason it stays.

A second guard keeps the learned inverse in :mod:`qmit.noise`: the modules
in :data:`LEARNED_INVERSE_USERS` never name its generators, in an import or
anywhere else; those that need the inverse reach it through
``noise.learned_*``.

A third keeps the eigensolvers in the places :data:`EIGENSOLVER_USERS`
names, so that a change to how the package decomposes matrices (its BLAS
thread count, say) has one place to edit: ``numpy.linalg.eigh`` and
``eigvalsh`` are named, as an attribute or in an import, only there.

A fourth keeps :mod:`qmit.losses` a module of functions of states: of the
package it imports only the modules :data:`LOSSES_IMPORTS` names, so the
layers, the noise and the trainer stay out of it.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmit"

ALLOWED = {
    "data.save_idx_images": "IDX writer: builds corpora of the IDX files dataset_from_idx subsamples",
    "data.save_idx_labels": "IDX writer: builds corpora of the IDX files dataset_from_idx subsamples",
    "noise.save_noise_layers": "writes the noise file that noise_source 'file' loads",
    "train.config_from_json": "reads back the config that a checkpoint stores",
    "train.load_checkpoint": "reads the checkpoint files that qmit train writes",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

LEARNED_INVERSE_USERS = ("pqc", "losses", "train")

LOSSES_IMPORTS = {"errors", "qsim"}

EIGENSOLVER_USERS = {
    "eigh": {"losses._eigh"},
    "eigvalsh": {"losses.petz_renyi_divergence", "qsim.check_density_matrices"},
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions_and_uses():
    """``{qualified: line}`` of the top-level definitions (``module.name``)
    and of the non-dunder methods of top-level classes
    (``module.Class.name``), and the sets of ``(name, user)`` pairs for bare
    names and for attributes, ``user`` the qualified name of the innermost
    such definition enclosing the use (``None`` at module level)."""
    defined, names, attrs = {}, set(), set()

    def collect(node, user):
        for child in ast.walk(node):
            if isinstance(child, ast.Name):
                names.add((child.id, user))
            elif isinstance(child, ast.Attribute):
                attrs.add((child.attr, user))

    for path in sorted(SOURCE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, _DEFINITIONS):
                collect(stmt, None)
                continue
            owner = f"{path.stem}.{stmt.name}"
            defined[owner] = stmt.lineno
            if not isinstance(stmt, ast.ClassDef):
                collect(stmt, owner)
                continue
            for item in stmt.decorator_list + stmt.bases + stmt.keywords:
                collect(item, owner)
            for item in stmt.body:
                if isinstance(item, _DEFINITIONS) and not _is_dunder(item.name):
                    method = f"{owner}.{item.name}"
                    defined[method] = item.lineno
                    collect(item, method)
                else:
                    collect(item, owner)
    return defined, (names, attrs)


def _users(qualified, used):
    """Users of ``qualified``'s name outside its own definition and, for a
    class, outside its methods; a method is used only as an attribute."""
    names, attrs = used
    name = qualified.rsplit(".", 1)[1]
    uses = attrs if qualified.count(".") == 2 else names | attrs
    return sorted(
        str(user)
        for n, user in uses
        if n == name and user != qualified and not str(user).startswith(qualified + ".")
    )


def test_every_definition_is_used_in_the_package():
    defined, used = _definitions_and_uses()
    unused = [
        f"{qualified} (line {line})"
        for qualified, line in sorted(defined.items())
        if qualified not in ALLOWED and not _users(qualified, used)
    ]
    assert not unused, f"defined in src/qmit but used nowhere there: {unused}"


def test_allowed_names_are_defined_and_unused():
    """An entry whose name is gone, or now used in the package, is stale."""
    defined, used = _definitions_and_uses()
    for qualified in ALLOWED:
        assert qualified in defined, f"{qualified} is allowed but not defined"
        users = _users(qualified, used)
        assert not users, f"{qualified} is allowed but used by {users}"


def test_methods_are_checked():
    """The guard sees the methods and properties of classes, not only
    top-level names."""
    defined, _ = _definitions_and_uses()
    assert "qsim.DensityMatrix._derived" in defined
    assert "noise.NoiseModel.weights" in defined
    assert not any(_is_dunder(q.rsplit(".", 1)[1]) for q in defined)


def test_learned_generators_are_named_only_in_noise():
    for stem in LEARNED_INVERSE_USERS:
        tree = ast.parse((SOURCE / f"{stem}.py").read_text(encoding="utf-8"))
        named = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            and "default_generators" in (getattr(node, f, None) for f in ("id", "attr", "name"))
        ]
        assert not named, f"qmit.{stem} names default_generators (lines {named})"


def test_eigensolvers_are_named_only_where_allowed():
    found = {name: set() for name in EIGENSOLVER_USERS}
    for path in sorted(SOURCE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            user = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                name = getattr(node, "attr", None) or getattr(node, "name", None)
                if isinstance(node, (ast.Attribute, ast.alias)) and name in found:
                    found[name].add(user)
    assert found == EIGENSOLVER_USERS


def test_losses_imports_only_errors_and_qsim():
    imported = set()
    for node in ast.walk(ast.parse((SOURCE / "losses.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qmit")):
            base = (node.module or "").removeprefix("qmit").strip(".")
            imported.update([base] if base else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name[5:] for a in node.names if a.name.startswith("qmit."))
    assert imported <= LOSSES_IMPORTS, f"qmit.losses imports {sorted(imported - LOSSES_IMPORTS)}"
