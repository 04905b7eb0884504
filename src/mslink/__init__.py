"""mslink: deterministic simulator of a programmable-metasurface QPSK link.

Transmitter physics (varactor-tuned unit cells -> reflection constellation),
frame synthesis, channel impairments, and a conventional SC-FDE receiver,
plus a Monte-Carlo experiment harness.  Import names from their modules
(`mslink.harness`, `mslink.channel`, ...); the package re-exports none.
"""

__version__ = "0.1.0"
