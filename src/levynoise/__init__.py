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
from .prm import PointBatch, Window, restrict, simulate
from .integrate import (
    CadlagPath,
    build_path,
    compensator,
    int_N,
    int_Nhat,
    l_integral,
    z_of_set,
)
from .mc import McEstimate, replicate_values, run_replicates, verdict
