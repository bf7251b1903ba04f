"""An adequate, computational encoding of pure type systems into a
rewriting logical framework, together with its inverse.

The names below cover the common workflow: build or parse a sort
specification, ``generate`` its framework theory, ``translate``
source-level terms, check them with the kernel, and ``conservative_invert``
framework terms back.  Everything else lives in the submodules.
"""

from .terms import (
    KIND,
    TYPE,
    App,
    Cons,
    Declaration,
    DkContext,
    DkTerm,
    Lam,
    Meta,
    Pi,
    RewriteRule,
    Theory,
    Var,
)
from .rewrite import BETA, DEFAULT_FUEL, Fuel, nf, reduce_trace, step
from .kernel import check, infer
from .epts import (
    EApp,
    ELam,
    EPi,
    ESort,
    EVar,
    EptsContext,
    FiniteSortSpec,
    InternalizedSortSpec,
    PApp,
    PLam,
    PPi,
    PSort,
    PVar,
    SortSpec,
    elaborate,
    elaborate_context,
    epts_check,
    epts_infer,
    erase_to_pts,
)
from .encode import EncodingTheory, expected_dk_type, generate, translate, translate_ctx
from .decode import adequacy_roundtrip, conservative_invert, invert
from .morphism import TheoryMorphism, apply_morphism, build_phi, verify_morphism
from .errors import Diagnostic, FuelExhausted, InternalSoundnessError, ParseError, PimodError

__version__ = "0.1.0"
