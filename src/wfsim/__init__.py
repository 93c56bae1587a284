"""Quantum-sensor arbitrary-waveform estimation simulator."""

from .allocation import (
    Allocation,
    ErrorModel,
    HQL_MODEL,
    SQL_MODEL,
    TABLE_HQL,
    TABLE_SQL,
    calibrated_tone,
    continuous_optimum,
    fit_loglog,
    optimize_exact,
    paper_rule_sql,
    run_scaling_experiment,
    statistical_error_curve,
    validate_paper_tables,
)
from .config import ExperimentConfig, load_config
from .errors import ConfigError, DecoheredSignalError, DomainError, WfsimError
from .estimator import (
    ErrorReport,
    decompose_error,
    deterministic_error_curve,
    phase_to_tesla,
    phase_truth,
    recon_error_sq,
    reconstruct,
)
from .measurement import (
    PhaseEnsemble,
    ReadoutModel,
    acquire,
    acquire_ensemble_hql,
    photon_shot_noise,
    read_ensemble_csv,
    with_seed,
    write_ensemble_csv,
)
from .sensor import (
    GAMMA_E_DEFAULT,
    Protocol,
    ProtocolConfig,
    SensorParams,
    envelope,
    envelope_pdd,
    envelope_ramsey,
    envelope_tdqd,
    phase_approx,
    phase_exact,
    sensitivity,
    sensitivity_curve,
    signal,
)
from .waveform import (
    SampleGrid,
    SmoothnessEstimate,
    WaveformSpec,
    estimate_holder,
    evaluate,
    integrate,
    make_grid,
)

__version__ = "0.1.0"
