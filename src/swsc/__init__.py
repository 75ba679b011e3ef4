"""Sliding-window Shannon coding for large alphabets.

Adaptive prefix coding where the model is the last `ell` symbols of the
input.  Frequent symbols get Shannon-style codewords from a canonical
codebook, rare ones fall back to fixed-width literals, and the working
state (window, frequency dictionary, codebook, partial sums) stays
sublinear in the alphabet size for windows shorter than the alphabet.

`generate` and `splitmix64` come from `swsc.corpus`, which needs numpy; it
is imported on their first use. `Encoder`, and `encode_stream` on it, uses
the numpy block encoder of `swsc.vector` only when numpy is already loaded,
so coding never loads numpy itself.
"""

from .analysis import (
    BoundReport,
    EntropyStats,
    MemoryAudit,
    check_bound,
    delta_term,
    entropy,
    memory_audit,
    naive_table_bytes,
    oracle_state,
    theorem1_bound,
)
from .bitio import BitReader, BitWriter
from .codebook import Codebook, codeword_length
from .coder import (
    CoderReport,
    CoderState,
    Decoder,
    Encoder,
    decode_chunks,
    decode_stream,
    encode_stream,
    encode_to_bytes,
    read_header,
    read_symbol_array,
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
    "decode_chunks",
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
    "read_symbol_array",
    "read_symbol_chunks",
    "splitmix64",
    "symbol_model_bytes",
    "theorem1_bound",
    "write_header",
    "write_symbols",
]


def __getattr__(name):
    if name in ("generate", "splitmix64"):
        from . import corpus

        return getattr(corpus, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
