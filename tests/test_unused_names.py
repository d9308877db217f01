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

A fifth keeps the encoder's ``(batch, d)`` state vectors the engine's only
input form: no module but :mod:`qmit.pqc` names ``pqc.pure_states``, so no
stack of encoded density matrices grows back beside them.

A sixth keeps files and the environment at the package's edge: only the
modules in :data:`FILE_USERS` import a module of :data:`FILE_MODULES` or
call an ``open``, so each input is read, and checked, in one place.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmit"

ALLOWED = {
    "data.save_idx_images": "IDX writer: builds corpora of the IDX files dataset_from_idx subsamples",
    "data.save_idx_labels": "IDX writer: builds corpora of the IDX files dataset_from_idx subsamples",
    "train.config_from_json": "reads back the config that a checkpoint stores",
}

# Names the package has removed, each with what replaced it; none may be
# defined again.
REMOVED = {
    "losses._dagger": "stacks are conjugated in place and read through transposed views",
    "losses.fb_blocks": "train._run_chunk runs each block and its adjoint",
    "qsim.hermitian_power": "losses._root_overlap takes roots on spectra",
    "train.load_checkpoint": "qmit.cli reads every file",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

LEARNED_INVERSE_USERS = ("pqc", "losses", "train")

LOSSES_IMPORTS = {"errors", "qsim"}

# qmit.data reads and writes IDX files; qmit.selftest runs the CLI on files.
FILE_USERS = {"cli", "data", "selftest"}
FILE_MODULES = {"os", "json", "io", "pathlib", "shutil", "tempfile"}

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


def test_removed_names_stay_removed():
    defined, _ = _definitions_and_uses()
    back = sorted(set(REMOVED) & set(defined))
    assert not back, f"removed names are defined again: {back}"


def test_methods_are_checked():
    """The guard sees the methods and properties of classes, not only
    top-level names."""
    defined, _ = _definitions_and_uses()
    assert "qsim.DensityMatrix._derived" in defined
    assert "noise.NoiseModel.weights" in defined
    assert not any(_is_dunder(q.rsplit(".", 1)[1]) for q in defined)


def _lines_naming(path, name):
    """Lines of ``path`` that name ``name``: as a bare name, an attribute or
    in an import."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and name in (getattr(node, f, None) for f in ("id", "attr", "name"))
    ]


def test_learned_generators_are_named_only_in_noise():
    for stem in LEARNED_INVERSE_USERS:
        named = _lines_naming(SOURCE / f"{stem}.py", "default_generators")
        assert not named, f"qmit.{stem} names default_generators (lines {named})"


def test_pure_states_are_named_only_in_pqc():
    for path in sorted(SOURCE.glob("*.py")):
        named = [] if path.stem == "pqc" else _lines_naming(path, "pure_states")
        assert not named, f"qmit.{path.stem} names pure_states (lines {named})"


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


def test_only_the_edge_modules_touch_files_and_the_environment():
    found = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            elif isinstance(node, ast.Call):
                called = {getattr(node.func, "id", None), getattr(node.func, "attr", None)}
                modules = ["open"] if "open" in called else []
            else:
                continue
            for name in modules:
                if name == "open" or name.split(".")[0] in FILE_MODULES:
                    found.setdefault(path.stem, set()).add(name)
    strays = {stem: sorted(names) for stem, names in found.items() if stem not in FILE_USERS}
    assert not strays, f"only {sorted(FILE_USERS)} may touch files or the environment: {strays}"
