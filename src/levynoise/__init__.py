"""Space-time Levy white noise: simulation and stochastic-calculus checks."""

from .measure import (
    FULL,
    DiscreteAtoms,
    InfiniteMassError,
    InfiniteMomentError,
    LevyMeasure,
    Shell,
    TemperedStable,
    TruncatedStable,
)
from .prm import PointConfiguration, Window, restrict, simulate
from .integrate import (
    CadlagPath,
    build_path,
    compensator,
    int_N,
    int_Nhat,
    int_time,
    l_integral,
    z_of_set,
)
from .mc import McEstimate, map_replicates, run_replicates, verdict

__all__ = [
    "FULL",
    "DiscreteAtoms",
    "InfiniteMassError",
    "InfiniteMomentError",
    "LevyMeasure",
    "Shell",
    "TemperedStable",
    "TruncatedStable",
    "PointConfiguration",
    "Window",
    "restrict",
    "simulate",
    "CadlagPath",
    "build_path",
    "compensator",
    "int_N",
    "int_Nhat",
    "int_time",
    "l_integral",
    "z_of_set",
    "McEstimate",
    "map_replicates",
    "run_replicates",
    "verdict",
]
