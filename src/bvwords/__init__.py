"""Word-problem and normal-form tools for Thompson's groups F and V,
their hat extensions, and the braided variants."""

from .braid import equal_braid, handle_reduce, is_trivial_braid, is_trivial_braid_by_coordinates
from .bv_lmr import (
    BVMode,
    HeightSet,
    LMRForm,
    Monosyllable,
    apply_relation,
    equal_bv,
    is_trivial_bv,
    m_to_sigma,
    to_first_form,
    to_third_form,
    word_height,
)
from .hatgroups import (
    GroupMode,
    HatFraction,
    canonicalize_hat,
    equal_hat,
    is_trivial_hat,
)
from .limits import Budget, StepLimitExceeded
from .perms import Permutation, from_adjacent_transpositions, from_sigma_word
from .presentations import (
    GroupId,
    RelationInstance,
    Report,
    Scheme,
    expand_finite_defs,
    finite_presentation_instances,
    instantiate_family,
    negative_controls,
    verify,
    verify_all,
)
from .thompson_f import FNormal, equal_f, f_fraction, is_trivial_f, normalize_monoid
from .words import (
    EMPTY,
    AlphabetError,
    Family,
    Gen,
    Word,
    expand_bv_generators,
    free_reduce,
    invert,
    lam,
    pi,
    pibar,
    random_word,
    sig,
    vgen,
    word,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
