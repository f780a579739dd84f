"""Packaging for the ``repro`` library (``src/`` layout).

A plain ``setup.py`` with no dependency beyond setuptools, for offline
editable installs: ``pip install --no-build-isolation --no-deps -e .``.
pip's editable build needs the ``wheel`` package on setuptools older
than 70.1; without it, ``python setup.py develop`` installs the same
layout.  numpy is optional at runtime (the columnar sweeps fall back to
stdlib loops without it).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
