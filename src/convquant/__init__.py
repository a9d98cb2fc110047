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
from .pwlq import PWLQ
from .granularity import (
    C_SHAPE_WISE,
    CHANNEL_WISE,
    F_SHAPE_WISE,
    FILTER_WISE,
    GRANULARITIES,
    LAYER_WISE,
    METHODS,
    ErrorReport,
    QuantizedTensor,
    dequantize_tensor,
    make_passthrough,
    quantize_tensor,
)
from .metrics import (
    baseline_bytes,
    figure_of_merit,
    memory_bytes,
    select_granularity,
)
from .packing import PackedCodes, unpack_codes
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
    "PWLQ",
    # granularity
    "C_SHAPE_WISE", "CHANNEL_WISE", "F_SHAPE_WISE", "FILTER_WISE",
    "GRANULARITIES", "LAYER_WISE", "METHODS", "ErrorReport", "QuantizedTensor",
    "dequantize_tensor", "make_passthrough", "quantize_tensor",
    # metrics
    "baseline_bytes", "figure_of_merit", "memory_bytes", "select_granularity",
    # packing / container
    "PackedCodes", "unpack_codes",
    "FORMAT_VERSION", "open_container", "write_container",
]
