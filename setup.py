"""Setup shim.

There is no ``pyproject.toml`` or ``setup.cfg``: this bare ``setup()`` call
relies on setuptools' automatic discovery, which finds the one package under
the ``src/`` layout, ``src/repro``.  No metadata is declared, so the
distribution name is ``UNKNOWN``.  It exists so the package can be installed
in environments without the ``wheel`` package (offline machines where PEP
517 editable builds are unavailable) via
``pip install -e . --no-use-pep517 --no-build-isolation``.

Installing is optional: the tests, benchmarks and examples run from the repo
root with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
