"""The column-stacked complex form of the Liouvillian's references:
vec(rho) = rho.flatten(order='F'), in which A rho B is (B^T kron A) vec(rho)."""

import math

import numpy as np


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return rho.flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """The d x d matrix whose column-stacked form is ``v``."""
    d = math.isqrt(v.size)
    return v.reshape(d, d, order="F")
