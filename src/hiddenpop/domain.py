"""Membership indicator algebra.

Three elementary binary indicators describe each student:

* ``bp``  — born in Italy (1) or abroad (0)
* ``cit`` — Italian citizenship (1) or foreign (0)
* ``pa``  — both parents Italian nationals at birth (1) or at least one
  foreign-born parent (0); the only indicator the register does not record.

Membership in the migrant-background population (``delta``) and the
five-level background typology (``kind``) are deterministic functions of the
triple.  Two combinations, (0,0,1) and (1,0,1), cannot legally occur under
the Jus Sanguinis citizenship rule and are rejected as corrupted data.
``MEMBERSHIP`` holds the whole rule, with ``pa`` possibly unobserved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ExcludedCombination

# (bp, cit, pa) -> kind, for the six admissible triples.
_KIND_TABLE = {
    (1, 1, 1): 0,
    (1, 1, 0): 1,
    (1, 0, 0): 2,
    (0, 1, 0): 3,
    (0, 0, 0): 4,
    (0, 1, 1): 0,  # born abroad to Italian parents: not in the target population
}


class BackgroundKind(enum.IntEnum):
    NO_BACKGROUND = 0
    SECOND_GEN_ITALIAN = 1
    SECOND_GEN_FOREIGN = 2
    ITALIAN_MIGRANT_EXPERIENCE = 3
    FOREIGN = 4


KIND_LABELS = {
    BackgroundKind.NO_BACKGROUND: "no migrant background",
    BackgroundKind.SECOND_GEN_ITALIAN: "2nd generation Italian",
    BackgroundKind.SECOND_GEN_FOREIGN: "2nd generation foreign",
    BackgroundKind.ITALIAN_MIGRANT_EXPERIENCE: "Italian with migrant experience",
    BackgroundKind.FOREIGN: "Foreign",
}

PA_UNOBSERVED = 2  # the pa index of MEMBERSHIP that stands for an unobserved pa


def _membership_rule() -> np.ndarray:
    # delta is |bp*cit*pa - 1| with (0,1,1) mapped to 0, so it is 0 exactly at kind 0
    table = np.full((2, 2, 3, 2), -1, dtype=np.int8)
    for (bp, cit, pa), kind in _KIND_TABLE.items():
        table[bp, cit, pa] = int(kind != BackgroundKind.NO_BACKGROUND), kind
    # An unobserved pa outside (bp,cit)=(1,1) resolves as pa=0.  This is
    # derived, not assumed: for (bp,cit)=(0,0) and (1,0) the Jus Sanguinis
    # exclusions leave pa=0 as the only admissible completion.  For
    # (bp,cit)=(0,1) the triple (0,1,1) is also admissible (child of Italians
    # born abroad) but such cases are statistically negligible and outside the
    # target population by definition, so the foreign-born Italian citizen is
    # resolved as a migrant-experience case, unless a survey observes pa = 1.
    # Only (1,1) must have pa predicted.
    table[:, :, PA_UNOBSERVED] = table[:, :, 0]
    table[1, 1, PA_UNOBSERVED] = -1
    return table


MEMBERSHIP = _membership_rule()
"""(delta, kind) by [bp, cit, pa] with pa 0, 1 or PA_UNOBSERVED; -1 at an
excluded triple and where pa stays open."""


def pa_open(bp, cit):
    """Where the register's bp and cit leave pa open, so a survey or a model must settle it."""
    return MEMBERSHIP[bp, cit, PA_UNOBSERVED, 1] < 0


@dataclass(frozen=True)
class MigrantBackground:
    """Membership flag plus typology; delta == 0 iff kind == NO_BACKGROUND."""

    delta: int
    kind: BackgroundKind

    def __post_init__(self):
        if (self.delta == 0) != (self.kind == BackgroundKind.NO_BACKGROUND):
            raise ValueError(f"inconsistent delta={self.delta} kind={self.kind}")


def compute_delta_type(bp: int, cit: int, pa: int) -> MigrantBackground:
    """Membership flag |bp*cit*pa - 1| (0 at (0,1,1)) and typology of a triple.

    Raises ValueError for an indicator other than 0 or 1, and
    ExcludedCombination for the two legally impossible triples.
    """
    for name, value in (("bp", bp), ("cit", cit), ("pa", pa)):
        if value not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    delta, kind = MEMBERSHIP[int(bp), int(cit), int(pa)].tolist()
    if kind < 0:
        raise ExcludedCombination(
            f"(bp={bp}, cit={cit}, pa={pa}) cannot occur under Jus Sanguinis; "
            "upstream data is corrupted"
        )
    return MigrantBackground(delta=delta, kind=BackgroundKind(kind))


def admissible_triples():
    """The six valid (bp, cit, pa) triples in table order."""
    return list(_KIND_TABLE)


def excluded_triples():
    return [t for t in product((0, 1), repeat=3) if t not in _KIND_TABLE]
