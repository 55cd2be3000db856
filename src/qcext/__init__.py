"""Quasiconformal extension toolkit for rational univalent maps."""

from .version import VERSION as __version__

from .mapexpr import ParseError, eval_array, eval_map, parse_map
from .classifiers import ClassParams, ClassVerdict, check_class
from .extensions import (
    ExtendedMap,
    RadialProfile,
    becker_extend,
    ext_brown,
    ext_exterior,
    ext_huang_owa,
    ext_mobius_convex,
    ext_radial_psi,
    ext_thm2,
    ext_thm5,
    seam_gap,
)
from .loewner import (
    ChainCheckReport,
    ChainGrid,
    LoewnerChainSpec,
    build_chain,
    check_dk,
    check_theorem_A,
)
from .beltrami import (
    BeltramiField,
    VerificationVerdict,
    beltrami_field,
    certify_qc,
    wirtinger,
)
from .corpus import BUILTINS, BuiltinExample, builtin_ids, get_builtin
from .render import ppm_bytes
from .report import VerificationReport, run_chain, run_verify

__all__ = [
    "__version__",
    "ParseError",
    "parse_map",
    "eval_map",
    "eval_array",
    "ClassParams",
    "ClassVerdict",
    "check_class",
    "ExtendedMap",
    "RadialProfile",
    "becker_extend",
    "ext_brown",
    "ext_exterior",
    "ext_huang_owa",
    "ext_mobius_convex",
    "ext_radial_psi",
    "ext_thm2",
    "ext_thm5",
    "seam_gap",
    "ChainCheckReport",
    "ChainGrid",
    "LoewnerChainSpec",
    "build_chain",
    "check_dk",
    "check_theorem_A",
    "BeltramiField",
    "VerificationVerdict",
    "beltrami_field",
    "certify_qc",
    "wirtinger",
    "BUILTINS",
    "BuiltinExample",
    "builtin_ids",
    "get_builtin",
    "ppm_bytes",
    "VerificationReport",
    "run_chain",
    "run_verify",
]
