"""Secretive coded caching for shared-cache networks, built from placement
delivery arrays: secret-sharing placement, one-time-pad protected XOR
delivery, per-user decoding, exact secrecy verification, and rate/bound
analysis.
"""

from .bounds import (
    OptimalityReport,
    SweepPoint,
    cutset_bound,
    lambda_of_s,
    optimality_ratio,
    sweep,
    sweep_csv,
)
from .field import BinaryField
from .pda import (
    C1Violation,
    C2Violation,
    C3Violation,
    Pda,
    PdaError,
    PdaFormatError,
    PdaParams,
    load_pda,
    mn_pda,
    save_pda,
    validate,
)
from .scheme import (
    Association,
    GArray,
    RateReport,
    SessionState,
    SystemConfig,
    build_g_array,
    decode_all,
    decode_user,
    deliver,
    helper_memory_for,
    one_time_pad_session,
    rate_report,
    run_session,
    worst_case_demands,
)
from .secrecy import (
    LinearObservationModel,
    SecrecyReport,
    SecrecyVerdict,
    check_external_eavesdropper,
    check_zero_information,
    verify_session,
)
from .sharing import (
    cauchy_matrix,
    encode_shares,
    reconstruct_file,
    share_file,
    unshare_file,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryField",
    "cauchy_matrix",
    "encode_shares",
    "reconstruct_file",
    "share_file",
    "unshare_file",
    "Pda",
    "PdaParams",
    "PdaError",
    "PdaFormatError",
    "C1Violation",
    "C2Violation",
    "C3Violation",
    "validate",
    "mn_pda",
    "load_pda",
    "save_pda",
    "SystemConfig",
    "Association",
    "GArray",
    "RateReport",
    "SessionState",
    "build_g_array",
    "helper_memory_for",
    "worst_case_demands",
    "rate_report",
    "run_session",
    "one_time_pad_session",
    "deliver",
    "decode_user",
    "decode_all",
    "LinearObservationModel",
    "SecrecyVerdict",
    "SecrecyReport",
    "check_zero_information",
    "check_external_eavesdropper",
    "verify_session",
    "lambda_of_s",
    "cutset_bound",
    "optimality_ratio",
    "OptimalityReport",
    "SweepPoint",
    "sweep",
    "sweep_csv",
    "__version__",
]
