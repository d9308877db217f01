"""Guard against regrowth: every top-level function and class in
``src/qmit`` is used somewhere in ``src/qmit`` besides its own definition.

A name counts as used where it appears as a bare name or as an attribute
(``module.name``) outside its own ``def`` or ``class`` statement; imports
do not count.  Names the package offers to its users and no module of the
package calls sit in :data:`ALLOWED`, each with the reason it stays.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmit"

ALLOWED = {
    "data.preprocess": "the one-image form of preprocess_all, the reference of its batch test",
    "data.save_idx_images": "IDX writer: builds corpora in the format dataset_from_idx reads",
    "data.save_idx_labels": "IDX writer: builds corpora in the format dataset_from_idx reads",
    "noise.save_noise_layers": "writes the noise file that noise_source 'file' loads",
    "qsim.random_pure_state": "random state constructor beside random_density_matrix",
    "train.config_from_json": "reads back the config that a checkpoint stores",
    "train.load_checkpoint": "reads the checkpoint files that qmit train writes",
}


def _definitions_and_uses():
    """``{module.name: line}`` of top-level definitions, and the set of
    ``(name, user)`` pairs, ``user`` the ``module.name`` of the enclosing
    top-level definition (``None`` at module level)."""
    defined, used = {}, set()
    for path in sorted(SOURCE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            user = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                user = f"{path.stem}.{stmt.name}"
                defined[user] = stmt.lineno
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    used.add((node.id, user))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, user))
    return defined, used


def test_every_definition_is_used_in_the_package():
    defined, used = _definitions_and_uses()
    unused = [
        f"{qualified} (line {line})"
        for qualified, line in sorted(defined.items())
        if qualified not in ALLOWED
        and not any(name == qualified.split(".")[1] and user != qualified for name, user in used)
    ]
    assert not unused, f"defined in src/qmit but used nowhere there: {unused}"


def test_allowed_names_are_defined_and_unused():
    """An entry whose name is gone, or now used in the package, is stale."""
    defined, used = _definitions_and_uses()
    for qualified in ALLOWED:
        assert qualified in defined, f"{qualified} is allowed but not defined"
        name = qualified.split(".")[1]
        users = sorted(str(user) for n, user in used if n == name and user != qualified)
        assert not users, f"{qualified} is allowed but used by {users}"
