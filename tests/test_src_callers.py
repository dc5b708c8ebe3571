"""Every function and method in ``src/hopfring`` has a caller in ``src/``.

The package holds only what the CLI runs; test oracles live in
``tests/oracles.py``.  A top-level function counts as called when a name or
attribute anywhere in ``src/`` outside its own body refers to it, directly
or through an ``import ... as`` alias; a non-dunder method counts as called
when an attribute with its name is read there.  Re-exports in
``__init__.py`` and the strings of ``__all__`` do not count.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hopfring"

# qualified name -> why it stays without a src/ caller
ALLOWLIST = {
    "fdalg.TableAlgebra.gram": "perfbench/layers.py METHODS wraps it by name",
    "fdalg.TableAlgebra.nilpotency_index": "perfbench/layers.py METHODS wraps it by name",
    "hopf.skew_pairing_tau": "kept for the Doi-Takeuchi twist check of the deformed algebras",
    "linalg.Mat.trace": "kept for reading composition factors off traces",
}


def _definitions(module, tree):
    """(qualified name, node, is_method) for each top-level function and
    each non-dunder method of a top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append(("%s.%s" % (module, node.name), node, False))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    out.append(("%s.%s.%s" % (module, node.name, item.name), item, True))
    return out


def _references(module, tree):
    """(module, line, name, is_attribute) for each name or attribute read
    in the module, with ``import ... as`` aliases resolved to the imported
    name; assignments do not count."""
    aliases = {}
    if module != "__init__":
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.asname:
                        aliases[alias.asname] = alias.name
    out = []
    for node in ast.walk(tree):
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            out.append((module, node.lineno, aliases.get(node.id, node.id), False))
        elif isinstance(node, ast.Attribute):
            out.append((module, node.lineno, node.attr, True))
    return out


def uncalled(sources):
    """Qualified names of the definitions in ``sources`` (module -> text)
    that nothing outside their own body refers to."""
    defs = []
    refs = []
    for module, text in sources.items():
        tree = ast.parse(text)
        defs += _definitions(module, tree)
        refs += _references(module, tree)
    out = set()
    for qualname, node, is_method in defs:
        module = qualname.split(".", 1)[0]
        first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
        called = any(
            name == node.name
            and (is_attr or not is_method)
            and not (ref_module == module and first <= line <= node.end_lineno)
            for ref_module, line, name, is_attr in refs
        )
        if not called:
            out.add(qualname)
    return out


def allowlist_problems(found, allowlist):
    """Uncalled definitions missing from the allowlist, and allowlist
    entries that are no longer uncalled (deleted, or given a caller)."""
    problems = ["%s has no caller in src/" % q for q in sorted(found - set(allowlist))]
    problems += [
        "allowlisted %s is gone or has a caller" % q for q in sorted(set(allowlist) - found)
    ]
    return problems


def src_sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_every_src_definition_has_a_src_caller():
    assert allowlist_problems(uncalled(src_sources()), ALLOWLIST) == []


def test_gate_flags_a_definition_nothing_calls():
    sources = {
        "m": (
            "from .n import helper as _helper\n"
            "def used():\n    return _helper()\n"
            "def recursive():\n    return recursive()\n"
            "def orphan():\n    return used()\n"
            "class C:\n"
            "    def __init__(self):\n        self.kept()\n        self.loop = None\n"
            "    def kept(self):\n        pass\n"
            "    def loop(self):\n        return self.loop()\n"
        ),
        "n": "def helper():\n    pass\n",
        "__init__": "from .m import orphan as orphan_alias\n__all__ = ['orphan']\n",
    }
    assert uncalled(sources) == {"m.recursive", "m.orphan", "m.C.loop"}


def test_gate_fails_on_a_stale_allowlist():
    found = uncalled(src_sources())
    stale = dict(ALLOWLIST, **{"hopf.no_such_function": "deleted"})
    assert allowlist_problems(found, stale) == [
        "allowlisted hopf.no_such_function is gone or has a caller"
    ]
    sources = src_sources()
    sources["cli"] += "\nfrom .hopf import skew_pairing_tau\nskew_pairing_tau\n"
    assert allowlist_problems(uncalled(sources), ALLOWLIST) == [
        "allowlisted hopf.skew_pairing_tau is gone or has a caller"
    ]
