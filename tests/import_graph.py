"""Fail when ``import apsel.cli`` loads a module that start-up should not pay for.

Usage: python tests/import_graph.py

apsel is imported from wherever the interpreter finds it: the checkout's
``src`` under ``PYTHONPATH=src``, else the installed package. A module the
interpreter had loaded before the import (``site`` may preload some) does
not count. Every CLI invocation pays for these imports: ``dataclasses``
pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and ``statistics``
pulls in ``fractions`` and ``decimal``.
"""

import sys

AVOIDED = ("dataclasses", "inspect", "statistics", "fractions", "decimal")

before = set(sys.modules)
import apsel.cli  # noqa: E402

print(apsel.cli.__file__)
loaded = [name for name in AVOIDED if name in sys.modules and name not in before]
if loaded:
    sys.exit(f"import apsel.cli loaded {', '.join(loaded)}")
