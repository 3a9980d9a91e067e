"""Exact rational certificates for weighted shifts.

Moment calculus, hyponormality and k-hyponormality checks, backward
extensions of representing measures, 2-variable grid positivity, and the
classification of symmetrically flat contractive pairs; every verdict is
computed in fractions, never floats.

Import each name from its module; the package root holds only __version__.
"""

__version__ = "0.1.0"
