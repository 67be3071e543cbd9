"""Re-export of :mod:`repro.contract.cacheability`.

Kept for ``perfbench/probes.py``, which imports ``Cacheability`` from
this path and may only be edited by a benchmark PR.
"""

from repro.contract.cacheability import Cacheability

__all__ = ["Cacheability"]
