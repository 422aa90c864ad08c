"""Exact-arithmetic engine for cosymplectic Lie algebras."""

from .errors import (
    AlgFileError,
    ConditionsFail,
    CoslieError,
    DegenerateOmega,
    DegenerateParams,
    DimensionMismatch,
    DuplicateBracket,
    EvenDimension,
    IndexOutOfRange,
    MissingParam,
    MissingVariable,
    NotCosymplectic,
    NotDerivation,
    NotLieAlgebra,
    NotIst,
    ParametricUnsupported,
    SingularPhi,
    UnknownEntry,
)
from .scalars import Poly, RatFn, det_poly, nullspace, poly_eval, ratfn
from .lie_core import (
    LieAlgebra,
    LinearMap,
    ad,
    bracket,
    center,
    check_isomorphism,
    check_jacobi,
    derived_series,
    is_derivation,
    is_solvable,
)
from .exterior import (
    OneForm,
    ThreeForm,
    TwoForm,
    cocycle_spaces,
    d1,
    d2,
    is_1cocycle,
    is_2cocycle,
    volume_coeff,
)
from .cosymplectic import (
    CosymplecticStructure,
    LsaTable,
    SymplecticPair,
    biinvariance,
    cosymplectic_lsa,
    exists_cosymplectic,
    from_symplectic_derivation,
    kernel_symplectic,
    left_symmetry_defect,
    phi_map,
    reeb,
    symplectic_lsa,
    to_symplectic,
    validate,
)
from .extensions import (
    ConstructionResult,
    ExtensionData,
    construct_A,
    construct_B,
    construct_C,
    double_extend,
    ist_check,
    ist_component_check,
)
from . import catalog
from .verify import verify_all

__all__ = [name for name in dir() if not name.startswith("_")]
