//! The unified experiment API (ISSUE 8 satellite): one trait, one
//! registry, one dispatch path.
//!
//! Every reproduced figure/table used to be wired into the `repro`
//! binary through a hand-written `match` arm with its own argument
//! plumbing; adding an experiment meant editing the binary in three
//! places. Now each experiment is an [`Experiment`] implementation
//! registered in [`registry`]: the binary resolves names by lookup
//! ([`find`]), `all` iterates the registry in its canonical order, and
//! an experiment's scale knobs come from one shared [`ExperimentCtx`].

use super::{SyntheticConfig, TraceConfig};
use crate::report::{Figure, Table};

/// Everything an experiment may need at run time: the scale
/// configurations (already adjusted for `--runs` / `--seed` /
/// `--quick`) plus the raw override flags for experiments with their
/// own config types.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Synthetic-model scales (Sec. VII-A).
    pub synth: SyntheticConfig,
    /// Trace-driven scales (Sec. VII-B).
    pub trace: TraceConfig,
    /// Whether `--quick` was requested (reduced sweeps).
    pub quick: bool,
    /// Raw `--seed` override, for experiments with their own config
    /// types.
    pub seed: Option<u64>,
}

impl ExperimentCtx {
    /// A quick-scale context for tests.
    pub fn quick() -> Self {
        ExperimentCtx {
            synth: SyntheticConfig::quick(),
            trace: TraceConfig::quick(),
            quick: true,
            seed: None,
        }
    }
}

/// What one experiment run produced: figures and tables, in emission
/// order.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Figures to render/persist, in order.
    pub figures: Vec<Figure>,
    /// Tables to render/persist, in order.
    pub tables: Vec<Table>,
}

impl ExperimentOutput {
    /// An output holding one table.
    pub fn table(table: Table) -> Self {
        ExperimentOutput {
            figures: Vec::new(),
            tables: vec![table],
        }
    }

    /// An output holding the given figures.
    pub fn figures(figures: Vec<Figure>) -> Self {
        ExperimentOutput {
            figures,
            tables: Vec::new(),
        }
    }
}

/// One reproducible experiment: a stable name and a run entry.
pub trait Experiment {
    /// The name the `repro` binary resolves (e.g. `"fig5"`).
    fn name(&self) -> &'static str;

    /// Runs the experiment at the context's scales.
    ///
    /// # Errors
    ///
    /// Propagates simulation, persistence and reporting errors.
    fn run(&self, ctx: &ExperimentCtx) -> crate::Result<ExperimentOutput>;
}

macro_rules! experiment {
    ($struct_name:ident, $name:literal, $ctx:ident, $body:expr) => {
        struct $struct_name;
        impl Experiment for $struct_name {
            fn name(&self) -> &'static str {
                $name
            }
            fn run(&self, $ctx: &ExperimentCtx) -> crate::Result<ExperimentOutput> {
                $body
            }
        }
    };
}

experiment!(Table1, "table1", ctx, {
    Ok(ExperimentOutput::table(super::table1::run(&ctx.synth)?))
});

experiment!(Fig4, "fig4", ctx, {
    Ok(ExperimentOutput::figures(super::fig4::run_all(&ctx.synth)?))
});

experiment!(Fig5, "fig5", ctx, {
    Ok(ExperimentOutput::figures(super::fig5::run_all(&ctx.synth)?))
});

experiment!(Fig6, "fig6", ctx, {
    Ok(ExperimentOutput::figures(super::fig6::run_all(&ctx.synth)?))
});

experiment!(Fig7, "fig7", ctx, {
    Ok(ExperimentOutput::figures(super::fig7::run_all(&ctx.synth)?))
});

experiment!(Fig8, "fig8", ctx, {
    let (layout, steady) = super::fig8::run(&ctx.trace)?;
    Ok(ExperimentOutput::figures(vec![layout, steady]))
});

experiment!(Fig9, "fig9", ctx, {
    let (panel_a, table) = super::fig9::run(&ctx.trace)?;
    Ok(ExperimentOutput {
        figures: vec![panel_a],
        tables: vec![table],
    })
});

experiment!(Fig10, "fig10", ctx, {
    Ok(ExperimentOutput::table(super::fig10::run(&ctx.trace)?))
});

experiment!(Theory, "theory", ctx, {
    Ok(ExperimentOutput::table(super::theory::run(&ctx.synth)?))
});

experiment!(Multiuser, "multiuser", ctx, {
    let mut figures = Vec::new();
    for kind in chaff_markov::models::ModelKind::ALL {
        figures.push(super::multiuser::run(&ctx.synth, kind)?);
    }
    Ok(ExperimentOutput::figures(figures))
});

experiment!(FleetChaff, "fleet_chaff", ctx, {
    let (populations, budgets): (&[usize], &[usize]) = if ctx.quick {
        (
            &super::fleet_chaff::QUICK_POPULATIONS,
            &super::fleet_chaff::QUICK_BUDGETS,
        )
    } else {
        (
            &super::fleet_chaff::POPULATIONS,
            &super::fleet_chaff::BUDGETS,
        )
    };
    Ok(ExperimentOutput::table(super::fleet_chaff::run_with(
        &ctx.synth,
        populations,
        budgets,
    )?))
});

experiment!(FleetEquilibrium, "fleet_equilibrium", ctx, {
    let populations: &[usize] = if ctx.quick {
        &super::fleet_equilibrium::QUICK_POPULATIONS
    } else {
        &super::fleet_equilibrium::POPULATIONS
    };
    Ok(ExperimentOutput::table(super::fleet_equilibrium::run_with(
        &ctx.synth,
        populations,
    )?))
});

experiment!(FleetStream, "fleet_stream", ctx, {
    let populations: &[usize] = if ctx.quick {
        &super::fleet_stream::QUICK_POPULATIONS
    } else {
        &super::fleet_stream::POPULATIONS
    };
    let (table, curves) = super::fleet_stream::run_with(
        &ctx.synth,
        populations,
        &super::fleet_stream::BUDGETS,
        super::fleet_stream::STREAM_HORIZON,
    )?;
    Ok(ExperimentOutput {
        figures: vec![curves],
        tables: vec![table],
    })
});

experiment!(FleetDaynight, "fleet_daynight", ctx, {
    let mut config = if ctx.quick {
        super::fleet_daynight::DayNightConfig::quick()
    } else {
        super::fleet_daynight::DayNightConfig::default()
    };
    if let Some(seed) = ctx.seed {
        config.seed = seed;
    }
    let budgets: &[usize] = if ctx.quick {
        &super::fleet_daynight::QUICK_BUDGETS
    } else {
        &super::fleet_daynight::BUDGETS
    };
    Ok(ExperimentOutput::table(super::fleet_daynight::run_with(
        &config, budgets,
    )?))
});

experiment!(TraceFleet, "trace_fleet", ctx, {
    let mut config = if ctx.quick {
        super::trace_fleet::TraceFleetConfig::quick()
    } else {
        super::trace_fleet::TraceFleetConfig::default()
    };
    if let Some(seed) = ctx.seed {
        config.seed = seed;
    }
    let budgets: &[usize] = if ctx.quick {
        &super::trace_fleet::QUICK_BUDGETS
    } else {
        &super::trace_fleet::BUDGETS
    };
    Ok(ExperimentOutput::table(super::trace_fleet::run_with(
        &config, budgets,
    )?))
});

/// Every experiment, in the canonical `all` execution order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Table1),
        Box::new(Fig4),
        Box::new(Fig5),
        Box::new(Fig6),
        Box::new(Fig7),
        Box::new(Fig8),
        Box::new(Fig9),
        Box::new(Fig10),
        Box::new(Theory),
        Box::new(Multiuser),
        Box::new(FleetChaff),
        Box::new(FleetEquilibrium),
        Box::new(FleetStream),
        Box::new(FleetDaynight),
        Box::new(TraceFleet),
    ]
}

/// Resolves one experiment by name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// The registered names, in canonical order (for usage strings).
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate experiment names");
        for name in names {
            assert!(find(name).is_some(), "{name} must resolve");
        }
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn registry_covers_the_equilibrium_tentpole() {
        assert!(names().contains(&"fleet_equilibrium"));
    }

    #[test]
    fn registry_covers_the_daynight_tentpole() {
        assert!(names().contains(&"fleet_daynight"));
    }

    /// README's usage line and the `chaff-eval` lib-doc table list
    /// exactly the registered experiments.
    #[test]
    fn docs_list_every_registered_experiment() {
        let names = names();
        let readme = include_str!("../../../../README.md");
        let usage = readme
            .lines()
            .find(|line| line.starts_with("`<table1|"))
            .expect("README has a usage line");
        assert_eq!(usage, format!("`<{}|all>`", names.join("|")));

        let rows: Vec<&str> = include_str!("../lib.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! | `"))
            .filter_map(|row| row.split('`').next())
            .collect();
        assert_eq!(rows, names, "one lib-doc row per registered name, in order");
    }

    #[test]
    fn a_cheap_experiment_runs_through_the_trait_entry() {
        let ctx = ExperimentCtx::quick();
        let out = find("table1").unwrap().run(&ctx).unwrap();
        assert_eq!(out.tables.len(), 1);
        assert!(out.figures.is_empty());
    }
}
