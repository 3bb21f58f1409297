"""Maximally recoverable locally repairable codes with locality, local
distance and availability: explicit constructions over small finite
fields, exhaustive verification, erasure decoding, field-size bounds and
a seeded failure simulator."""

from .ff import FieldCtx, FieldTower, field_ctx, make_tower
from .matrix import MatrixF, block_diag
from .topology import Topology, make_topology
from .constructions import (
    MrLrcCode, construct, encode, plan_field, read_bundle, split_size,
    write_bundle,
)
from .verify import (
    decode_erasures, lower_bound_field, verify_mr_exhaustive,
    verify_mr_sampled,
)

__all__ = [
    "FieldCtx", "FieldTower", "field_ctx", "make_tower",
    "MatrixF", "block_diag",
    "Topology", "make_topology",
    "MrLrcCode", "construct", "encode", "plan_field", "read_bundle",
    "split_size", "write_bundle",
    "decode_erasures", "lower_bound_field", "verify_mr_exhaustive",
    "verify_mr_sampled",
]

__version__ = "0.1.0"
