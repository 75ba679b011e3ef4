"""Sliding-window Shannon coding for large alphabets.

Adaptive prefix coding where the model is the last `ell` symbols of the
input.  Frequent symbols get Shannon-style codewords from a canonical
codebook, rare ones fall back to fixed-width literals, and the working
state (window, frequency dictionary, codebook, partial sums) stays
sublinear in the alphabet size for windows shorter than the alphabet.

`generate` and `splitmix64` come from `swsc.corpus`, which needs numpy; it
is imported on their first use. So is `swsc.analysis`, with the ten names
it exports here (entropy, the bound, the memory audit and the oracle), as
coding never uses it. `Encoder`, and `encode_stream` on it, uses
the numpy block encoder of `swsc.vector` only when numpy is already loaded,
so coding never loads numpy itself.
"""

import importlib

from .bitio import BitReader, BitWriter
from .codebook import Codebook, codeword_length
from .coder import (
    CoderReport,
    CoderState,
    Decoder,
    Encoder,
    decode_stream,
    encode_stream,
    encode_to_bytes,
    read_header,
    read_symbol_chunks,
    write_header,
    write_symbols,
)
from .dictionary import (
    CodeRecord,
    HashedDictionary,
    TrieDictionary,
    make_dictionary,
    symbol_model_bytes,
)
from .errors import (
    CorruptStreamError,
    InternalInconsistencyError,
    ParameterError,
    SwscError,
)
from .params import DISTRIBUTIONS, CoderParams, derive_params
from .partial_sums import PartialSums

__version__ = "0.1.0"

__all__ = [
    "BitReader",
    "BitWriter",
    "BoundReport",
    "Codebook",
    "CodeRecord",
    "CoderParams",
    "CoderReport",
    "CoderState",
    "CorruptStreamError",
    "DISTRIBUTIONS",
    "Decoder",
    "Encoder",
    "EntropyStats",
    "HashedDictionary",
    "InternalInconsistencyError",
    "MemoryAudit",
    "ParameterError",
    "PartialSums",
    "SwscError",
    "TrieDictionary",
    "check_bound",
    "codeword_length",
    "decode_stream",
    "delta_term",
    "derive_params",
    "encode_stream",
    "encode_to_bytes",
    "entropy",
    "generate",
    "make_dictionary",
    "memory_audit",
    "naive_table_bytes",
    "oracle_state",
    "read_header",
    "read_symbol_chunks",
    "splitmix64",
    "symbol_model_bytes",
    "theorem1_bound",
    "write_header",
    "write_symbols",
]


# name -> the module that defines it, imported when the name is first read
_ON_FIRST_USE = dict.fromkeys(("generate", "splitmix64"), ".corpus")
_ON_FIRST_USE.update(dict.fromkeys((
    "analysis", "BoundReport", "EntropyStats", "MemoryAudit", "check_bound", "delta_term",
    "entropy", "memory_audit", "naive_table_bytes", "oracle_state", "theorem1_bound"),
    ".analysis"))


def __getattr__(name):
    if name in _ON_FIRST_USE:
        module = importlib.import_module(_ON_FIRST_USE[name], __name__)
        return module if name == "analysis" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
