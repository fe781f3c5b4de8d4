"""Concrete problem families: affine oracles, QP gradient maps, load flow."""

from ._paths import DriftPath, scalar_signal
from .affine import AffineFamily, build_affine_family
from .loadflow import (
    InjectionSeries,
    MultiAreaSystem,
    PowerNetwork,
    build_loadflow_map,
    build_multiarea_maps,
    default_injections,
    three_area_network,
    to_complex,
    to_real,
    two_bus_network,
)
from .qp import (
    TimeVaryingQP,
    build_broadcast_system,
    build_feedback_gradient_map,
    build_gradient_map,
    random_qp,
    star_partition,
)

__all__ = [
    "AffineFamily",
    "DriftPath",
    "InjectionSeries",
    "MultiAreaSystem",
    "PowerNetwork",
    "TimeVaryingQP",
    "build_affine_family",
    "build_broadcast_system",
    "build_feedback_gradient_map",
    "build_gradient_map",
    "build_loadflow_map",
    "build_multiarea_maps",
    "default_injections",
    "random_qp",
    "scalar_signal",
    "star_partition",
    "three_area_network",
    "to_complex",
    "to_real",
    "two_bus_network",
]
