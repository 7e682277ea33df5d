"""Authentication-tagged linear network coding lab.

Builds small extension fields, runs the tagged-packet authentication code
over simulated coding networks, mounts the affine forgery and substitution
attacks against it, and counts exactly how many secret keys a coalition of
verifiers can still be facing after pooling what they know.
"""

from .field import Fel, Field, GuardError, is_prime
from .linalg import Matrix, solve
from .scheme import (
    ForgerySpec,
    SourceKey,
    SystemParams,
    TaggedPacket,
    VerifierKey,
    combine,
    keygen,
    moore_matrix,
    poly_eval,
    residual,
    tag,
    verify,
)
from .netsim import (
    CoalitionView,
    CycleError,
    DecodeResult,
    Edge,
    FlowState,
    Intervention,
    InterventionRecord,
    Network,
    accept_map,
    butterfly,
    coalition_view,
    decode,
    diamond,
    fan,
    line,
    simulate,
)
from .attacks import (
    BRUTE_FORCE_GUARD,
    RecoveryMeta,
    RecoveryResult,
    RecoverySystem,
    analyze_recovery,
    brute_force_count,
    build_recovery_system,
    forge,
    gauss_count,
    predicted_count,
    predicted_rank,
    solve_target_coeffs,
)
from .cli import (
    ConfigError,
    Scenario,
    SweepResult,
    keygen_report,
    lemma_sweep,
    load_scenario,
    network_from_dict,
    render_sweep,
    run_scenario,
)

__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: SweepRow is ncauth.cli's, built there on first access
    if name != "SweepRow":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return cli.SweepRow
