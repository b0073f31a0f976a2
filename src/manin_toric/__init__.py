"""Arithmetic of split toric varieties over Q.

Lattice fans and piecewise linear height functions, characteristic
functions of rational polyhedral cones, Tamagawa and effective-cone
constants, exact point enumeration under canonical heights, Fourier
and Poisson summation checks, a Tauberian extraction engine, and
standard G_m-torsor fibrations over P^1.
"""

from .bounds import DecadeLimitError, SweepReport, verify_integral_bounds
from .cones import (ConeError, PolyhedralCone, QuotientChar, char_evaluate,
                    char_function, dual_cone, make_cone, quotient_char,
                    residue_step)
from .counting import (CountingError, CountReport, ZetaPartial, count_N,
                       count_points, enumerate_bounded, fit_asymptotic,
                       zeta_partial)
from .fibration import (FibrationConstant, FibrationError, FibrationPicard,
                        FibrationZeta, TorsorSpec, arakelov_L_partial,
                        direct_zeta_partial, fibration_picard,
                        fibration_predicted_constant, fibration_zeta_partial,
                        hirzebruch_fan, hirzebruch_match, torsor_class,
                        twisted_fiber_height)
from .fourier import (FourierError, PoissonReport, arch_transform,
                      cf_extract, finite_transform, poisson_check,
                      rademacher_sweep, zeta_line)
from .heights import (AdelicOffset, ValuationProfile, character_pairing,
                      exact_height, global_height, local_height, make_offset,
                      valuation_profile)
from .latticefan import (Fan, FanFormatError, FanValidationError, PLFunction,
                         builtin_fan, fan_from_json, fan_to_json, locate_cone,
                         make_fan, validate_fan)
from .tauberian import (DirichletOracle, PerronLine, PoleData, TauberianError,
                        builtin_oracle, compare, contour_independence,
                        descend_k, perron_phi_k, predict, residue_circle,
                        residue_consistency, residue_shape)
from .toric import (LeadingConstant, PicardData, PicardError, TamagawaResult,
                    alpha_constant, archimedean_volume, archimedean_volume_mc,
                    count_points_mod_p, euler_product_spec, leading_constant,
                    picard_data, tamagawa_number)

__version__ = "0.1.0"

__all__ = [
    "AdelicOffset", "ConeError", "CountReport", "CountingError",
    "DecadeLimitError", "DirichletOracle", "Fan", "FanFormatError",
    "FanValidationError",
    "FibrationConstant", "FibrationError", "FibrationPicard",
    "FibrationZeta", "FourierError", "LeadingConstant",
    "PLFunction", "PerronLine", "PicardData", "PicardError",
    "PoissonReport", "PoleData", "PolyhedralCone", "QuotientChar",
    "SweepReport", "TamagawaResult", "TauberianError", "TorsorSpec",
    "ValuationProfile", "ZetaPartial", "alpha_constant",
    "arakelov_L_partial", "arch_transform", "archimedean_volume",
    "archimedean_volume_mc", "builtin_fan", "builtin_oracle",
    "cf_extract", "char_evaluate", "char_function", "character_pairing",
    "compare", "contour_independence", "count_N",
    "count_points", "count_points_mod_p", "descend_k",
    "direct_zeta_partial", "dual_cone", "enumerate_bounded",
    "euler_product_spec", "exact_height", "fan_from_json", "fan_to_json",
    "fibration_picard",
    "fibration_predicted_constant", "fibration_zeta_partial",
    "finite_transform", "fit_asymptotic", "global_height",
    "hirzebruch_fan", "hirzebruch_match", "leading_constant",
    "local_height", "locate_cone", "make_cone", "make_fan",
    "make_offset", "perron_phi_k", "picard_data",
    "poisson_check", "predict", "quotient_char", "rademacher_sweep",
    "residue_circle", "residue_consistency", "residue_shape",
    "residue_step", "tamagawa_number", "torsor_class",
    "twisted_fiber_height", "validate_fan", "valuation_profile",
    "verify_integral_bounds", "zeta_line", "zeta_partial",
]
