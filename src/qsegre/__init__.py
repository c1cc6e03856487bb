"""Exact-arithmetic toolkit for Segre products of subset and subspace
lattices: shellable edge labelings, descending-chain polynomials, and
two-alphabet symmetric function identities, all verified without floating
point."""

__version__ = "0.1.0"
