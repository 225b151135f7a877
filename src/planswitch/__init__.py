"""Two-state plan switching with cancellation fees.

A library and command-line harness for choosing, month by month, between a
fixed-rate plan (state 0, cancellation fee on exit) and a variable-rate plan
(state 1). Ships the offline optimal backward pass, the 3-competitive
deterministic and 2-competitive randomized online rules, their continuous
relaxation, exhaustive and dynamic-programming oracles, adversarial instance
generators, and a trace-driven benchmark.
"""

from .adversary import (
    RatioReport,
    batch_sp_costs,
    deterministic_adversary,
    gchase_player,
    measure_ratio,
    measure_ratio_dsp,
    monte_carlo,
    random_cost_series,
    random_costs,
    random_schedule,
    randomized_lb_instance,
    simulate_randomized_batch,
)
from .bench import (
    RunConfig,
    protocol_cost_series,
    report_json,
    run_report,
    run_verify_suite,
    sweep,
    sweep_csv,
    synth_trace,
    trace_to_csv,
)
from .chase import (
    DeltaTrace,
    FractionalSchedule,
    InternalInvariantError,
    OnlineState,
    cchase,
    clamp_step,
    csp_cost,
    delta_trace,
    delta_traces,
    gchase_dsp,
    gchase_r,
    gchase_r_dsp,
    gchase_r_step,
    gchase_s,
    gchase_step,
    marginal_probabilities,
    ofa_s,
    offline_states,
)
from .oracles import (
    BRUTE_FORCE_MAX_T,
    OracleResult,
    brute_force_dsp,
    brute_force_dsps,
    brute_force_sp,
    brute_force_sps,
    dp_dsp,
    dp_dsps,
    phi_identity_dsp,
    phi_identity_dsps,
    phi_identity_sp,
    phi_identity_sps,
    potential_check,
)
from .tariff import (
    CostSeries,
    InfeasibleScheduleError,
    Schedule,
    Trace,
    TraceParseError,
    ValidationError,
    cost_series,
    dsp_cost,
    dsp_costs,
    p2_cost,
    p2_costs,
    parse_trace,
    sp_cost,
    sp_costs,
    zero_runs,
)

__version__ = "0.1.0"
