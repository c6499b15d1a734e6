"""Exact-arithmetic localization and intersection theory for rank-one
invariants of four-folds: torus fixed points of the Hilbert scheme of points
on affine four-space with their tangent and obstruction weights, a small
Chow ring calculator for products of projective spaces and hypersurfaces in
them, and the punctual Euler-characteristic generating series.

Everything is computed over the rationals with no floating point anywhere.

`import dt4calc` loads the localization path only.  The Chow calculator
(`dt4calc.chow`) and the punctual series (`dt4calc.series`), with the names
this package exports from them, load on first use.
"""

from .errors import (BoundExceeded, Dt4Error, InternalInconsistency,
                     NonGenericParameters, Unsupported)
from .exact import Laurent
from .localize import (FixedPointData, OrientationData, TorusParams,
                       cyclic_completion_report, dt4_degree0_series,
                       half_euler, obstruction_crosscheck, vertex_character,
                       vertex_oracle_check)
from .partitions import (DPartition, MonomialIdeal, enumerate_partitions,
                         partition_counts, partition_numbers, size_bound)
from .taylor import euler_character, ext_characters

__version__ = "0.1.0"

__all__ = [
    "BoundExceeded", "DPartition", "Dt4Error",
    "FixedPointData", "InternalInconsistency", "Laurent",
    "MonomialIdeal", "NonGenericParameters", "OrientationData",
    "TorusParams", "Unsupported",
    "VarietyContext", "convolution_oracle", "cy_hypersurface_context",
    "cyclic_completion_report", "dt4_degree0_series", "enumerate_partitions",
    "euler_character", "ext_characters", "goettsche_series", "half_euler",
    "liqin_case", "obstruction_crosscheck", "partition_counts",
    "partition_numbers", "projective_plane_context", "reduced_dt4_tstar",
    "size_bound", "structure_sheaf_chi_check", "surface_obstruction_identity",
    "vdim_ideal_cy4", "vertex_character", "vertex_oracle_check",
]

# exported name -> the submodule that defines it, imported on first access
_LAZY = {
    **dict.fromkeys(["VarietyContext", "cy_hypersurface_context", "liqin_case",
                     "projective_plane_context", "structure_sheaf_chi_check",
                     "surface_obstruction_identity", "vdim_ideal_cy4"], "chow"),
    **dict.fromkeys(["convolution_oracle", "goettsche_series",
                     "reduced_dt4_tstar"], "series"),
}


def __getattr__(name):
    submodule = _LAZY.get(name, name)
    if submodule not in ("chow", "series"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{submodule}", __name__)
    if name == submodule:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
