"""LAPACK and OpenBLAS routines bound through ctypes from the library that
numpy's linalg extension already loaded, so no engine imports scipy for them.
numpy's wheels export them under ILP64 symbols: 64-bit integer arguments,
passed by reference as INT, arrays as BUF pointers."""

import ctypes

import numpy as np

_LIBRARY = ctypes.CDLL(np.linalg._umath_linalg.__file__)
INT, BUF = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p


def bind(symbols, argtypes, restype=None):
    """The first of `symbols` the library resolves, typed, or None if none does."""
    for symbol in symbols:
        routine = getattr(_LIBRARY, symbol, None)
        if routine is not None:
            routine.argtypes, routine.restype = argtypes, restype
            return routine
    return None
