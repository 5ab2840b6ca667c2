"""Semantic-affine transformation of mid-level decoder features in a toy
point-cloud segmentation pipeline, with a from-scratch autodiff core, a
synthetic benchmark, and finite-difference verification throughout."""

__version__ = "0.1.0"
