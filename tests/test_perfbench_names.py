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

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


def _record(monkeypatch, module, name):
    """Replace ``module.name`` as perfbench does; returns the list of (args, result)."""
    calls = []
    real = getattr(module, name)

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recording)
    return calls


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


def _module_names(tree):
    """The names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_seed_sweep_imports_resolve():
    """``tools/benchmark_seeds.py`` imports names from ``perfbench/run.py``, so
    renaming one there breaks the seed sweep."""
    tool = ast.parse((ROOT / "tools" / "benchmark_seeds.py").read_text())
    imported = {a.name for node in ast.walk(tool)
                if isinstance(node, ast.ImportFrom) and node.module == "run"
                for a in node.names}
    assert {"PROGRAM_SEEDS", "WORKLOADS"} <= imported
    missing = sorted(imported - _module_names(_tree("run.py")))
    assert not missing, f"tools/benchmark_seeds.py imports {missing}, which perfbench/run.py lacks"


def test_kde_table_build_is_traced(monkeypatch):
    """perfbench's ``_after_kde`` counts a ``kde_log_pdf`` call's pairs as
    ``result.shape[0] * len(args[1])``, so each block of the 1-D KDE's table
    build must call the module attribute with the centres it reads, a slice
    of the sorted centres, as second positional argument and get back one
    value per node of the block; the blocks cover the nodes once, in order."""
    from sip_lab import fit_kde

    calls = _record(monkeypatch, _kernels, "kde_log_pdf")
    dens = fit_kde(np.random.default_rng(3).standard_normal((400, 1)))
    dens.log_pdf(np.linspace(-2.0, 2.0, 9))
    assert dens.tabulated
    table = dens.table
    centres = np.sort(dens.data[:, 0])
    for args, result in calls:
        k = len(args[1])
        assert args[1].shape == (k, 1)
        start = np.searchsorted(centres, args[1][0, 0])
        assert np.array_equal(args[1][:, 0], centres[start : start + k])
        assert result.shape == (len(args[0]),)
    nodes = np.concatenate([args[0][:, 0] for args, _ in calls])
    assert np.array_equal(nodes, table.lo + table.step * np.arange(table.nodes))


def _tracer_method(name):
    """The ``Tracer.<name>`` function node of ``layers.py``."""
    for node in ast.walk(_tree("layers.py")):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"perfbench/layers.py defines no Tracer.{name}")


def _reads(method):
    """What ``Tracer.<method>`` reads off the traced call: the string keys it
    subscripts (other than its own ``self.n``/``self.busy`` counters), the
    integer indices it takes of ``result``, and the attributes it reads off
    ``result``."""
    keys, indices, attrs = set(), set(), set()
    for node in ast.walk(_tracer_method(method)):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            owner, key = node.value, node.slice.value
            if isinstance(key, str) and not (isinstance(owner, ast.Attribute)
                                             and isinstance(owner.value, ast.Name)
                                             and owner.value.id == "self"):
                keys.add(key)
            elif isinstance(key, int) and isinstance(owner, ast.Name) and owner.id == "result":
                indices.add(key)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "result"):
            attrs.add(node.attr)
    return keys, indices, attrs


def test_row_diagnostics_hold_what_perfbench_reads(monkeypatch):
    """``_after_rows`` reads counters off the (data, diag) pair ``_solve_rows`` returns."""
    from sip_lab import GaussianParams, intuitive_sample, linear_map, make_gaussian, solvers

    keys, indices, _ = _reads("_after_rows")
    assert {"rows_requested", "failures", "retries"} <= keys and indices == {1}
    calls = _record(monkeypatch, solvers, "_solve_rows")
    gauss = make_gaussian(GaussianParams([0.0], [[1.0]]))
    intuitive_sample(linear_map([[1.0, 1.0]]), gauss, gauss).sample(20, 1)
    (_, result), = calls
    for key in keys:
        assert isinstance(result[1][key], int), key


def test_rejection_results_hold_what_perfbench_reads(monkeypatch):
    """``_after_rejection`` reads ``diagnostics`` off the solution it is given
    and attributes off the batch ``bjw_rejection_sample`` returns.  The
    instance has a KDE pushforward, the route kde-update traces; the exact
    Gaussian update draws with no rejection at all."""
    from sip_lab import (GaussianParams, bjw_density, kde_pushforward, linear_map,
                         make_gaussian, pushforward_density, solvers)

    keys, _, attrs = _reads("_after_rejection")
    assert "proposals" in keys and "data" in attrs
    calls = _record(monkeypatch, solvers, "bjw_rejection_sample")
    fmap = linear_map([[1.0, 1.0]])
    initial = make_gaussian(GaussianParams([0.0, 0.0], np.eye(2)))
    f_y = make_gaussian(GaussianParams([0.25], [[0.25]]))
    bjw_density(initial, fmap, f_y, pushforward_density(initial, fmap)).sample(20, 1)
    assert calls == []
    solution = bjw_density(initial, fmap, f_y, kde_pushforward(initial, fmap, 500, 1))
    solution.sample(20, 1)
    (args, result), = calls
    assert args[0] is solution
    for key in keys:
        assert isinstance(solution.diagnostics[key], int), key
    for attr in attrs:
        assert hasattr(result, attr), attr
    assert result.data.shape == (20, 2)
