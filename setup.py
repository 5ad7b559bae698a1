"""Package metadata and dependencies — the one place they are declared.

Install with ``pip install ".[test]"`` (runtime dependencies plus the
test extra); hosts without the ``wheel`` package can use
``python setup.py develop`` for an editable install instead.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.scenarios": ["corpus/*"]},
    python_requires=">=3.9",
    install_requires=["numpy", "networkx"],
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
)
