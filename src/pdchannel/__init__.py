"""Finite-dimensional quantum channel toolkit: representations,
degradability analysis, partial-degradability classification, coherent
information, and exact-rational polar rate accounting."""

from . import capacity, channel, config, degradability, entanglement, polar, qmat, zoo

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
