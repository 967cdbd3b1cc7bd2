"""The public-API docstring contract (docs satellite).

Two executable guarantees over every subpackage (:mod:`repro.runner`,
:mod:`repro.campaign`, :mod:`repro.trace`, :mod:`repro.mesh`,
:mod:`repro.sched`, :mod:`repro.core`, :mod:`repro.analysis`,
:mod:`repro.network`, :mod:`repro.patterns`, :mod:`repro.viz` and the
experiment drivers, :mod:`repro.experiments`):

* every name exported through ``__all__`` carries a docstring (module
  constants are exempt -- Python attaches no ``__doc__`` to them; their
  ``#:`` comments serve),
* every doctest example in those packages passes, the same run CI
  executes via ``pytest --doctest-modules``.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import repro.analysis
import repro.campaign
import repro.core
import repro.experiments
import repro.mesh
import repro.network
import repro.patterns
import repro.runner
import repro.sched
import repro.trace
import repro.viz

PUBLIC_PACKAGES = (
    repro.runner,
    repro.campaign,
    repro.trace,
    repro.mesh,
    repro.sched,
    repro.core,
    repro.analysis,
    repro.network,
    repro.patterns,
    repro.viz,
    repro.experiments,
)


def _modules():
    out = []
    for package in PUBLIC_PACKAGES:
        out.append(package)
        for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            out.append(importlib.import_module(info.name))
    return out


MODULES = _modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests_pass(module):
    result = doctest.testmod(module, verbose=False, raise_on_error=False)
    assert result.failed == 0, f"{module.__name__}: {result.failed} doctest failures"


@pytest.mark.parametrize(
    "package", PUBLIC_PACKAGES, ids=lambda p: p.__name__
)
def test_every_exported_name_has_a_docstring(package):
    missing = []
    for name in package.__all__:
        obj = getattr(package, name)
        if not callable(obj) and not isinstance(obj, type):
            continue  # data constants carry #: comments instead
        if not (getattr(obj, "__doc__", None) or "").strip():
            missing.append(name)
    assert not missing, f"{package.__name__} exports lack docstrings: {missing}"


def test_public_packages_have_doctest_examples():
    """The docs satellite asks for doctest-style examples 'where
    practical'; keep at least a dozen alive so the habit sticks."""
    finder = doctest.DocTestFinder(exclude_empty=True)
    total = sum(len(t.examples) for m in MODULES for t in finder.find(m))
    assert total >= 12, (
        f"expected >= 12 doctest examples across the public API, found {total}"
    )
