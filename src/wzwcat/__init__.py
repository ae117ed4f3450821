"""Modular data of affine fusion categories and their local-module censuses."""

from .rootsys import RootSystem, build_root_system, weight_system, weyl_dimensions
from .alcove import Alcove, make_alcove, quantum_dimensions
from .modular import ModularData, RationalAngle
from .fusion import FusionTensor, fuse_weights
from .currents import CurrentGroup
from .localmods import LocalCategoryData, LocalSimple, local_category
from .verifier import (
    CapacityError,
    ObstructionReport,
    check_factorization_obstruction,
    enumerate_fusion_subcategories,
)
from .wittlab import WittFingerprint, coincidence_test, fingerprint

__all__ = [
    "RootSystem",
    "build_root_system",
    "weyl_dimensions",
    "weight_system",
    "Alcove",
    "make_alcove",
    "quantum_dimensions",
    "ModularData",
    "RationalAngle",
    "FusionTensor",
    "fuse_weights",
    "CurrentGroup",
    "LocalCategoryData",
    "LocalSimple",
    "local_category",
    "CapacityError",
    "ObstructionReport",
    "check_factorization_obstruction",
    "enumerate_fusion_subcategories",
    "WittFingerprint",
    "coincidence_test",
    "fingerprint",
]

__version__ = "0.1.0"
