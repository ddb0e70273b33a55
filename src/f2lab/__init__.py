"""Exact-arithmetic laboratory for multilinear forms and tensors over F2.

Bit-packed linear algebra, GF(2^k) with the trace map, dense tensors
and rank-one decompositions, exact (dyadic-rational) bias and
correlation, tensor-rank lower bounds from bias and from kernel/dual-
code certificates, and a reproducible verification harness over all of
it.

Field elements, vectors, matrices, subspace bases and tensors are
plain packed ints (coordinate j at bit j; a matrix is packed as a
2-tensor, row i at bits [i ncols, (i+1) ncols)).  `BitVec` adds a length
only at the edges: rank-one terms, the F2D1 files and `evaluate`'s block
vectors.
"""

from .bias import (BiasEstimate, DyadicRational, bias_bruteforce, bias_exact,
                   bias_mc, corr_class_max, corr_exact)
from .errors import CapacityError, FormatError, InvariantError
from .f2linalg import (BitVec, Subspace, dual_space, echelonize, kernel, mat_rank,
                       min_weight, span_rank_histogram)
from .gf2k import Gf2kField, make_field
from .numerics import (MaxProblemPoint, f_dk_bound, inequality_checks,
                       mrrw_constant, profile_max_check)
from .prng import Prng
from .rank import (RankBoundCertificate, RankDistribution, code_certificate,
                   corank_bound_margin, decompositions, matmul_bias_exact,
                   mrrw_rank_lb, rank_count, rank_exact, rank_lb_bias)
from .report import VerificationReport
from .tensors import (DenseTensor, Polynomial, RankDecomposition, RankOneTerm,
                      evaluate, explicit_form_tensor, matmul_tensor,
                      random_rank_decomp, random_tensor, read_decomp,
                      read_poly, read_tensor, tensor_from_decomp,
                      trace_tensor, write_decomp, write_tensor)

__version__ = "0.1.0"
