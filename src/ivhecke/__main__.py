"""``python -m ivhecke``: the ``ivhecke`` command, runnable from a source checkout
with ``PYTHONPATH=src python -m ivhecke ...``.

The guard keeps doctest collection, which imports this module, from running it.
"""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
