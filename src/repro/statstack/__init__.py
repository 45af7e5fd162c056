"""StatStack statistical cache modelling (Eklov & Hagersten, ISPASS'10)."""

from repro.statstack.model import StatStackModel
from repro.statstack.mrc import MissRatioCurve, PerPCMissRatios, default_size_grid

__all__ = [
    "StatStackModel",
    "MissRatioCurve",
    "PerPCMissRatios",
    "default_size_grid",
]
