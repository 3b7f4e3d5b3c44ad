"""Every ``sip_lab`` name that perfbench traces or reads still exists.

perfbench looks these names up at run time, so deleting one breaks
``perfbench/run.py --trace 1`` without failing any other test.  The
perfbench files are parsed here, not imported.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from sip_lab import _kernels
from sip_lab.densities import Density

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text())


def _timed():
    """The (module, attribute) pairs of ``_TIMED`` in ``layers.py``."""
    for node in ast.walk(_tree("layers.py")):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_TIMED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no _TIMED")


def _attributes(name, owner):
    """Attributes that the perfbench file ``name`` reads off the name ``owner``."""
    return {node.attr for node in ast.walk(_tree(name))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == owner}


@pytest.mark.parametrize("module,attr", _timed())
def test_traced_callable_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name,owner,obj,expected", [
    ("worker.py", "_kernels", _kernels, {"NUMBA_AVAILABLE", "backend"}),
    ("layers.py", "Density", Density, {"pdf", "log_pdf"}),
], ids=["kernels_metadata", "density_methods"])
def test_read_attributes_resolve(name, owner, obj, expected):
    names = _attributes(name, owner)
    assert expected <= names
    missing = sorted(n for n in names if not hasattr(obj, n))
    assert not missing, f"perfbench/{name} reads {owner}.{missing}, which do not exist"


def test_kde_table_build_is_traced(monkeypatch):
    """perfbench's ``_after_kde`` counts a ``kde_log_pdf`` call's pairs as
    ``result.shape[0] * len(args[1])``, so the 1-D KDE's table build must
    call the module attribute with the centres as second positional argument
    and get back one value per node."""
    from sip_lab import fit_kde

    calls = []
    real = _kernels.kde_log_pdf

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(_kernels, "kde_log_pdf", recording)
    dens = fit_kde(np.random.default_rng(3).standard_normal((400, 1)))
    dens.log_pdf(np.linspace(-2.0, 2.0, 9))
    assert dens.tabulated
    (args, result), = calls
    assert args[1] is dens.data
    assert result.shape == (len(args[0]),) == (dens.table.nodes,)
