"""Finite-dimensional quantum channel toolkit: representations,
degradability analysis, partial-degradability classification, coherent
information, and exact-rational polar rate accounting.

``import pdchannel`` loads no submodule: each name in ``__all__`` is
imported the first time it is read as an attribute, so a command pays only
for the modules it runs."""

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


def __getattr__(name: str):
    if name in __all__:
        # the import statement's own machinery, which -X importtime reports
        __import__(f"{__name__}.{name}")
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
