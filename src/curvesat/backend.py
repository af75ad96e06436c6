"""Name of the row reduction kernel.

There is one kernel, the pure-Python one in ``exactla``.  The constant
stays because ``perfbench/run.py`` records it in every result and
``perfbench/compare.py`` refuses to compare runs whose tags differ.
"""

BACKEND = "python"
