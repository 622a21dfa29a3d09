"""Exact tools for Deutsch paths whose valley levels never decrease.

The package enumerates the paths, counts them through four independent
routes (closed form, generating function, structural generation and
brute force), converts them to and from their marked-tree encoding, and
exposes the exact power series engine the counting rests on.
"""

from . import numbers, paths, series, trees, verify
from .numbers import *
from .paths import *
from .series import *
from .trees import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *paths.__all__,
    *trees.__all__,
    *series.__all__,
    *numbers.__all__,
    *verify.__all__,
]
