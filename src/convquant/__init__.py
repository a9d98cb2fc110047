"""convquant: post-training weight quantization for convolutional models.

Uniform (affine, symmetric) and piecewise-linear quantization at five
grouping granularities, per-tensor granularity auto-selection by
reconstruction error, sub-byte code packing, a self-describing container
format and memory-saving accounting.
"""

__version__ = "0.1.0"

from .errors import QuantError
from .tensor_store import (
    TensorShape,
    WeightTensor,
    element_index,
    export_manifest,
    iter_manifest,
    resolve_exclusions,
)
from .uniform import (
    AFFINE,
    SYMMETRIC_FULL,
    SYMMETRIC_RESTRICTED,
    code_domain,
    round_half_away,
)
from .pwlq import (
    CENTER,
    NEG_TAIL,
    POS_TAIL,
    PWLQ,
)
from .granularity import (
    C_SHAPE_WISE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    GRANULARITIES,
    LAYER_WISE,
    METHODS,
    QuantizedTensor,
    dequantize_tensor,
    make_passthrough,
    quantize_tensor,
)
from .metrics import (
    ErrorReport,
    MemoryModel,
    baseline_bytes,
    figure_of_merit,
    memory_bytes,
    memory_saving_ratio,
    quant_error,
    select_granularity,
)
from .packing import PackedCodes, pack_codes, unpack_codes
from .container import FORMAT_VERSION, open_container, write_container

__all__ = [
    "__version__",
    "QuantError",
    # tensor store
    "TensorShape", "WeightTensor", "element_index", "export_manifest",
    "iter_manifest", "resolve_exclusions",
    # uniform
    "AFFINE", "SYMMETRIC_FULL", "SYMMETRIC_RESTRICTED", "code_domain",
    "round_half_away",
    # pwlq
    "CENTER", "NEG_TAIL", "POS_TAIL", "PWLQ",
    # granularity
    "C_SHAPE_WISE", "CHANNEL_WISE", "F_SHAPE_WISE", "FILTER_WISE",
    "GRANULARITIES", "LAYER_WISE", "METHODS", "QuantizedTensor",
    "dequantize_tensor", "make_passthrough", "quantize_tensor",
    # metrics
    "ErrorReport", "MemoryModel", "baseline_bytes",
    "figure_of_merit", "memory_bytes", "memory_saving_ratio", "quant_error",
    "select_granularity",
    # packing / container
    "PackedCodes", "pack_codes", "unpack_codes",
    "FORMAT_VERSION", "open_container", "write_container",
]
