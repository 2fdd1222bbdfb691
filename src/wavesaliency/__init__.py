"""Guided-wave defect detection through windowed low-rank saliency.

Simulates flexural waves in a thin plate, partitions the recorded wavefield
into time-of-flight-aligned regional windows, and flags regions whose
windowed signal escapes the low-rank model shared by all regions.  Includes
spatial subsampling masks, a Monte Carlo detection-rate sweep, wavenumber
spectrum analysis, and a config-driven command line.

Attributes are loaded lazily so importing the package stays cheap and the
CLI can configure thread pools before numpy comes in.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "WaveSaliencyError": "errors",
    "CubeFormatError": "errors",
    "CubeDataError": "errors",
    "GeometryError": "errors",
    "DivergenceError": "errors",
    "PartitionError": "errors",
    "VelocityEstimateError": "errors",
    "NoSignalError": "errors",
    "WindowingError": "errors",
    "MaskError": "errors",
    "RankError": "errors",
    "ConfigError": "errors",
    # cube I/O
    "GridPoint": "cube",
    "DataCube": "cube",
    "read_cube": "cube",
    "write_cube": "cube",
    "roundtrip_bytes": "cube",
    "read_meta": "cube",
    "write_meta": "cube",
    "meta_path": "cube",
    # simulation
    "MaterialSpec": "sim",
    "ExcitationSpec": "sim",
    "DefectSpec": "sim",
    "MaterialMap": "sim",
    "build_material_map": "sim",
    "defect_cells": "sim",
    "burst_force": "sim",
    "stable_timestep": "sim",
    "simulate": "sim",
    "PlateOperator": "sim",
    "leapfrog": "sim",
    "analytic_phase_velocity": "sim",
    "analytic_group_velocity": "sim",
    "total_energy_series": "sim",
    "DEFAULT_SPACE_ORDER": "sim",
    # windowing
    "Partition": "windowing",
    "ProbePair": "windowing",
    "effective_source": "windowing",
    "first_envelope_peak_time": "windowing",
    "estimate_group_velocity": "windowing",
    "arrival_time": "windowing",
    "RegionalWindowSet": "windowing",
    "extract_windows": "windowing",
    "DEFAULT_WINDOW_LEN": "windowing",
    # saliency
    "SnapshotMatrix": "saliency",
    "assemble_snapshot_matrix": "saliency",
    "knee_rank": "saliency",
    "LowRankSplit": "saliency",
    "truncated_low_rank": "saliency",
    "outlier_energies": "saliency",
    "salient_columns": "saliency",
    "SaliencyMap": "saliency",
    "saliency_map": "saliency",
    "write_saliency_csv": "saliency",
    "saliency_csv_text": "saliency",
    "write_saliency_pgm": "saliency",
    "DEFAULT_ENERGY_RATIO": "saliency",
    "DEFAULT_DECISION_THRESHOLD": "saliency",
    # sampling
    "Mask": "sampling",
    "random_mask": "sampling",
    "double_cross_mask": "sampling",
    "GroundTruth": "sampling",
    "DetectionMetrics": "sampling",
    "detection_metrics": "sampling",
    "origin_block": "sampling",
    "SweepRow": "sampling",
    "monte_carlo_sweep": "sampling",
    "write_sweep_csv": "sampling",
    "sweep_csv_text": "sampling",
    "SHARED": "sampling",
    "PER_REGION": "sampling",
    # spectrum
    "WavenumberSpectrum": "spectrum",
    "dft2_magnitude": "spectrum",
    "occupied_fraction": "spectrum",
    "write_spectrum_csv": "spectrum",
    "spectrum_csv_text": "spectrum",
    "write_spectrum_pgm": "spectrum",
    "DEFAULT_FLOOR_DB": "spectrum",
    # pipeline
    "DetectionConfig": "pipeline",
    "DetectionResult": "pipeline",
    "run_detection": "pipeline",
    "build_window_set": "pipeline",
    # config
    "ScenarioConfig": "config",
    "GridSettings": "config",
    "DetectionSettings": "config",
    "MaskSettings": "config",
    "ProbeSettings": "config",
    "parse_scenario": "config",
    "load_scenario": "config",
    "simulate_scenario": "config",
    "with_overrides": "config",
    "scenario_echo": "config",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
