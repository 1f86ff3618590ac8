"""Setup shim: the project's only packaging file.

``setup()`` takes no arguments, so setuptools' automatic discovery finds the
``src/`` layout's packages.  ``pip install -e .`` installs them editable; an
offline ``pip``/``setuptools`` combination that lacks the ``wheel`` package
of the PEP 660 build path can use ``pip install -e . --no-use-pep517``, which
falls back to ``setup.py develop``.  A checkout runs without installing too,
with ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
