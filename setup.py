"""Setuptools shim.

All metadata lives in pyproject.toml.  Without the ``wheel`` package,
PEP 660 editable installs (``pip install -e .``) fail with ``invalid
command 'bdist_wheel'``; this shim keeps the legacy ``setup.py develop``
path, which builds no wheel: ``pip install --no-use-pep517
--no-build-isolation --no-deps -e .`` (pip 23 still wants ``wheel``
importable before it takes that path), or ``python setup.py develop
--no-deps`` with no pip involved.
"""

from setuptools import setup

setup()
