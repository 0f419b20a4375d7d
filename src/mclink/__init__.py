"""Link-level Monte Carlo simulator: Alamouti 2x4 MIMO over a multicarrier
CDMA downlink in Rayleigh fading, with zero-forcing detection."""

__version__ = "0.1.0"

from .config import SimConfig, fast_profile, load_config  # noqa: E402
from .engine import compute_gains, emit_results, run_chain, sweep  # noqa: E402
from .results import BerRecord, GainRecord, gain_vs_reference  # noqa: E402

__all__ = [
    "__version__",
    "SimConfig",
    "fast_profile",
    "load_config",
    "run_chain",
    "sweep",
    "compute_gains",
    "emit_results",
    "BerRecord",
    "GainRecord",
    "gain_vs_reference",
]
