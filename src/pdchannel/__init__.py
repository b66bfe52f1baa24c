"""Finite-dimensional quantum channel toolkit: representations,
degradability analysis, partial-degradability classification, coherent
information, and exact-rational polar rate accounting."""

# capacity is left to load on first use (``from pdchannel import capacity``):
# it is the one module that needs scipy, which dominates import time
from . import channel, config, degradability, entanglement, polar, qmat, zoo

__all__ = [
    "capacity",
    "channel",
    "config",
    "degradability",
    "entanglement",
    "polar",
    "qmat",
    "zoo",
]

__version__ = "0.1.0"
