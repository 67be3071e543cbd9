"""Re-export of :mod:`repro.contract.verifiers`.

Kept for ``perfbench/layers.py``, which imports ``Verifier`` from this
path (its ``cache.verifiers.run`` span) and may only be edited by a
benchmark PR.
"""

from repro.contract.verifiers import Verifier

__all__ = ["Verifier"]
