"""Library entry point: every pipeline, with re-verification and rendering.

Importing this module loads every pipeline module; the command line loads
only the one it runs (see core.pipeline_runner).  PIPELINES maps each name
of core.PIPELINE_NAMES to its run_<name> function, which takes a RunConfig
from load_config and returns a re-verified bundle; render_bundle gives its
canonical JSON, and reverify_bundle re-checks a parsed bundle file.
"""

from __future__ import annotations

# no pipeline imports fuchsian; perfbench/traced.py reads the searches it
# wraps from sys.modules after importing this module
from . import fuchsian
from .core import ConfigError, RunConfig, bundle_exit_code, load_config, render_bundle, reverify_bundle
from .pipelines.dihedral import run_dihedral
from .pipelines.hilbert import run_hilbert
from .pipelines.intersect import run_intersect
from .pipelines.quaternionic import run_quaternionic
from .pipelines.sl2z import run_sl2z
from .pipelines.units import run_units

PIPELINES = {
    "dihedral": run_dihedral,
    "quaternionic": run_quaternionic,
    "sl2z": run_sl2z,
    "hilbert": run_hilbert,
    "units": run_units,
    "intersect": run_intersect,
}

__all__ = [
    "PIPELINES",
    "ConfigError",
    "RunConfig",
    "bundle_exit_code",
    "load_config",
    "render_bundle",
    "reverify_bundle",
    "run_dihedral",
    "run_hilbert",
    "run_intersect",
    "run_quaternionic",
    "run_sl2z",
    "run_units",
]
