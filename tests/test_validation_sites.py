"""Inputs are validated once, at the command boundary: only the functions
listed here call a validator.  The readers and `check` validate documents;
each library entry point a caller can reach without `serialize` checks its
own input once and calls a private core that assumes it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heckehiggs"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
VALIDATORS = {"validate", "require_valid", "require_valid_endo", "validate_twisted_endo"}

ALLOWED = {
    "cli.py": {"cmd_check"},
    "hecke.py": {"require_valid", "h0_of_twist", "splitting_type"},
    "higgs.py": {"HiggsPair.__init__", "check_fiber_condition", "reconstruct"},
    "projline.py": {"require_valid_endo"},
    "serialize.py": {"instance_from_json"},
    "spectral.py": {"curve_of", "forward_correspondence", "backward_correspondence"},
}


def validation_sites(source: str) -> set:
    """The qualified names of the functions of `source` that call a
    validator, by plain or attribute name."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in VALIDATORS:
                    sites.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return sites


@pytest.mark.parametrize("module", MODULES)
def test_only_the_boundary_validates(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert validation_sites(source) == ALLOWED.get(module, set())


def test_guard_catches_a_call_site():
    source = (
        "def f(d):\n    return hecke.validate(d)\n"
        "class C:\n    def m(self):\n        require_valid_endo(self)\n"
        "def g(d):\n    return d\n"
    )
    assert validation_sites(source) == {"f", "C.m"}
