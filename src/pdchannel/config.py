"""The certificate tolerances, which every report echoes in ``env``, and
the size limit and its check; solver constants live beside their algorithms."""

from __future__ import annotations

import os

from .errors import DomainError, SizeLimit


class Tolerances:
    # read-only class attributes: no dataclasses import at CLI start-up
    __slots__ = ()
    # max |m - m^dagger| entrywise allowed before a matrix counts as non-Hermitian
    herm_tol = 1e-10
    # minimum eigenvalue allowed before a matrix counts as non-PSD
    psd_tol = -1e-9
    # generic residual bound for reconstruction / composition checks
    residual_tol = 1e-8
    # relative cutoff for the pseudo-inverse and for numerical rank
    pinv_cutoff = 1e-10

    def as_dict(self) -> dict:
        return {name: value for name, value in vars(Tolerances).items() if isinstance(value, float)}


TOL = Tolerances()

DEFAULT_MAX_DIM = 4096


def max_dim() -> int:
    """Matrix side cap; overridable via the QPD_MAX_DIM environment variable,
    which must then hold an integer >= 1."""
    raw = os.environ.get("QPD_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw) if raw.strip().isdecimal() else 0
    except ValueError:  # more digits than Python converts to an int
        raise DomainError(f"QPD_MAX_DIM has {len(raw.strip())} digits, too many to read") from None
    if value < 1:
        raise DomainError(f"QPD_MAX_DIM must be an integer >= 1, got {raw!r}")
    return value


def check_side(what: str, *sides: int) -> None:
    """Raise :class:`SizeLimit` if a matrix ``what`` would build, of the largest
    of ``sides``, is above the side cap: the one check before every dense build."""
    side, cap = max(sides), max_dim()
    if side > cap:
        raise SizeLimit(f"{what} needs a matrix of side {side}, above the side cap {cap}")
