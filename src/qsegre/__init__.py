"""Exact-arithmetic toolkit for Segre products of subset and subspace
lattices: shellable edge labelings, descending-chain polynomials, and
two-alphabet symmetric function identities, all verified without floating
point."""

from .besselseries import BesselCoefficients, bessel_coefficients, verify_reciprocal
from .exactalg import QPolynomial, q_factorial, q_integer
from .permstats import (Permutation, inversions, q_binomial,
                        verify_q_csv_identity, w_polynomial,
                        w_polynomial_recurrence)
from .poset import (ChainReport, EdgeLabeling, GradedPoset, chain_report,
                    check_el_labeling, descending_chain_count, mobius_number,
                    proper_part, rational_betti_numbers, segre_product)
from .subspace import (FiniteField, Subspace, build_bnq, build_segre_bnq,
                       enumerate_subspaces)
from .symfrob import (CharacterTable2, h_alternating_residual,
                      induce_product_character, irreducible_table2,
                      lefschetz_character, partitions_of,
                      principal_specialization, verify_induction_homomorphism,
                      verify_specialization_identity, z_of)

__version__ = "0.1.0"
