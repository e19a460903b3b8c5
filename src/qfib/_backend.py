"""Alias of the term kernels: perfbench patches ``kernels`` here and reports ``BACKEND``."""

from . import _kernels_py as kernels

BACKEND = "python"
