//! Evaluation harness reproducing every figure of the paper's
//! evaluation (Sec. VII).
//!
//! One module per experiment, each producing [`report::Figure`] /
//! [`report::Table`] values that render to ASCII charts and CSV files:
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | `table1` | in-text KL skewness values (Sec. VII-A1) | [`experiments::table1`] |
//! | `fig4` | steady-state distributions of models a–d | [`experiments::fig4`] |
//! | `fig5` | basic-eavesdropper accuracy vs time | [`experiments::fig5`] |
//! | `fig6` | CDF of the per-slot log-likelihood gap `c_t` | [`experiments::fig6`] |
//! | `fig7` | advanced-eavesdropper accuracy, robust strategies | [`experiments::fig7`] |
//! | `fig8` | trace cell layout and empirical steady state | [`experiments::fig8`] |
//! | `fig9` | trace: per-user accuracy, top-5 users with one chaff | [`experiments::fig9`] |
//! | `fig10` | trace: advanced eavesdropper with two chaffs | [`experiments::fig10`] |
//! | `theory` | eq. (11)/(12) and Theorem V.4 checks | [`experiments::theory`] |
//! | `multiuser` | extension: coexisting users as natural chaffs (fleet engine, N ≤ 10,000) | [`experiments::multiuser`] |
//! | `fleet_chaff` | extension: chaffed fleets, per-user budget sweep vs eq. (11) | [`experiments::fleet_chaff`] |
//! | `fleet_equilibrium` | extension: adaptive per-user budgets vs static baselines at equal total | [`experiments::fleet_equilibrium`] |
//! | `fleet_stream` | extension: streaming online detection, live accuracy vs eq. (11) at N = 10⁵–10⁶ | [`experiments::fleet_stream`] |
//! | `fleet_daynight` | extension: time-varying day/night mobility, epoch-aware vs stationary detector | [`experiments::fleet_daynight`] |
//! | `trace_fleet` | extension: trace-backed fleets of amplified taxi traces, per-class chains | [`experiments::trace_fleet`] |
//!
//! All experiments are deterministic given their seed; Monte Carlo
//! averaging runs on all cores via [`montecarlo`].
//!
//! The `repro` binary drives everything:
//!
//! ```text
//! repro fig5 --runs 1000 --out results/
//! repro all --quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod montecarlo;
pub mod report;

/// Convenient result alias; evaluation errors are boxed because they may
/// originate in any layer.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;
