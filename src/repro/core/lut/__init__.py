"""Fuzzy lookup-table methods: M-LUT, L-LUT (float and fixed), D-LUT, DL-LUT."""

from repro.core.lut.base import FuzzyLUT, build_table
from repro.core.lut.dllut import DLLUT, DLLUTInterpolated
from repro.core.lut.dlut import DLUT, DLUTInterpolated
from repro.core.lut.llut import LLUT, LLUTFixed, LLUTInterpolated, LLUTInterpolatedFixed
from repro.core.lut.mlut import MLUT, MLUTInterpolated

__all__ = [
    "FuzzyLUT",
    "build_table",
    "MLUT",
    "MLUTInterpolated",
    "LLUT",
    "LLUTInterpolated",
    "LLUTFixed",
    "LLUTInterpolatedFixed",
    "DLUT",
    "DLUTInterpolated",
    "DLLUT",
    "DLLUTInterpolated",
]
