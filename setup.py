"""Setuptools entry point.

The package's only build configuration: a plain ``setup.py`` keeps
editable installs (``python setup.py develop``) working on offline
machines whose pip/setuptools combination cannot use PEP 660 (no
``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Defensive Approximation: securing CNNs using approximate computing "
        "(ASPLOS 2021 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro=repro.cli:main"]},
)
