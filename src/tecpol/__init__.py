"""Polarization dynamics of tetrahedral erasure channels.

Channel algebra, the twisted quaternary kernel and its brute-force oracle,
descendant-tree simulation, spline trap bounds, and power-iteration scaling
exponent certificates.
"""

__version__ = "0.1.0"
