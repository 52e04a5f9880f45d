"""Exact polyhedral algebra: the substrate under the program generator.

Public surface:

* :class:`LinExpr` — exact affine expressions.
* :class:`Constraint`, :class:`ConstraintSystem` — parametric polyhedra,
  with a small text grammar (``parse_constraint``).
* :func:`eliminate` / :func:`project` — Fourier–Motzkin elimination with
  duplicate/redundancy pruning (paper Section IV-D).
* :func:`synthesize_loop_nest` — loop-bound generation (Figure 3 loops).
* :func:`enumerate_points` / :func:`count_points` — lattice scanning.
* :func:`ehrhart_univariate` — Ehrhart quasi-polynomials by exact
  interpolation (the Barvinok-library substitute, Section IV-J).
"""

from .linexpr import LinExpr, parse_affine
from .constraints import (
    EQ,
    GE,
    Constraint,
    ConstraintSystem,
    box,
    nonneg_orthant,
    parse_constraint,
)
from .fourier_motzkin import eliminate, project, remove_redundant_lp
from .bounds import Bound, LoopBounds, LoopNest, synthesize_loop_nest
from .lattice import (
    bounding_box,
    count_box_filtered,
    count_points,
    enumerate_box_filtered,
    enumerate_points,
)
from .ehrhart import QuasiPolynomial, ehrhart_univariate, simplex_count
from .ratlinalg import eval_polynomial, fit_polynomial, solve_rational
from .batch import nest_scan_array
from .compile import compile_counter, compile_scanner
from .vertices import is_bounded, vertex_bounding_box, vertices

__all__ = [
    "LinExpr",
    "parse_affine",
    "Constraint",
    "ConstraintSystem",
    "GE",
    "EQ",
    "parse_constraint",
    "box",
    "nonneg_orthant",
    "eliminate",
    "project",
    "remove_redundant_lp",
    "Bound",
    "LoopBounds",
    "LoopNest",
    "synthesize_loop_nest",
    "enumerate_points",
    "count_points",
    "enumerate_box_filtered",
    "count_box_filtered",
    "bounding_box",
    "QuasiPolynomial",
    "ehrhart_univariate",
    "simplex_count",
    "solve_rational",
    "fit_polynomial",
    "eval_polynomial",
    "compile_counter",
    "nest_scan_array",
    "compile_scanner",
    "vertices",
    "is_bounded",
    "vertex_bounding_box",
]
