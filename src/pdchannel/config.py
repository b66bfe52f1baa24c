"""Centralized numerical tolerances and size limits.

The algebra behind the toolkit is exact; floating point demands explicit
thresholds, so every tolerance lives here and nowhere else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, asdict

from .errors import DomainError


@dataclass(frozen=True)
class Tolerances:
    # max |m - m^dagger| entrywise allowed before a matrix counts as non-Hermitian
    herm_tol: float = 1e-10
    # minimum eigenvalue allowed before a matrix counts as non-PSD
    psd_tol: float = -1e-9
    # generic residual bound for reconstruction / composition checks
    residual_tol: float = 1e-8
    # relative cutoff for the pseudo-inverse and for numerical rank
    pinv_cutoff: float = 1e-10

    def as_dict(self) -> dict:
        return asdict(self)


TOL = Tolerances()

DEFAULT_MAX_DIM = 4096


def max_dim() -> int:
    """Matrix side cap; overridable via the QPD_MAX_DIM environment variable,
    which must then hold an integer >= 1."""
    raw = os.environ.get("QPD_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise DomainError(f"QPD_MAX_DIM must be an integer >= 1, got {raw!r}")
    return int(raw)
