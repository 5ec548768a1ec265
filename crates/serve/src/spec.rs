//! Job specifications and the job state machine.

use crate::error::ServeError;
use crate::json::Json;
use crp_check::CheckLevel;
use crp_core::CrpConfig;

/// What a job optimizes: a named synthetic workload profile or a design
/// supplied as LEF/DEF files on the daemon's filesystem.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// One of the `ispd18_test*` profiles, scaled down by `scale`.
    Profile {
        /// Profile name, e.g. `"ispd18_test1"`.
        name: String,
        /// Cell/net count divisor (see `Profile::scaled`).
        scale: f64,
    },
    /// Paths to a LEF and a DEF file readable by the daemon.
    LefDef {
        /// LEF (technology + macros) path.
        lef: String,
        /// DEF (design) path.
        def: String,
    },
}

/// Scheduling lane: `High` jobs dequeue before `Normal` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Dequeued first.
    High,
    /// The default lane.
    Normal,
}

impl Lane {
    /// The wire name of the lane.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Lane::High => "high",
            Lane::Normal => "normal",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Lane> {
        match s {
            "high" => Some(Lane::High),
            "normal" => Some(Lane::Normal),
            _ => None,
        }
    }
}

/// What pipeline a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobMode {
    /// CR&P refinement of the workload's own placement (the default).
    Crp,
    /// Netlist-only cold start: strip the placement, run the `crp-gp`
    /// electrostatic placer and Abacus legalization, then route and
    /// refine with CR&P. Checkpointable at both the GP-iteration and the
    /// CR&P-iteration level.
    Place,
}

impl JobMode {
    /// The wire name of the mode.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobMode::Crp => "crp",
            JobMode::Place => "place",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<JobMode> {
        match s {
            "crp" => Some(JobMode::Crp),
            "place" => Some(JobMode::Place),
            _ => None,
        }
    }
}

/// Everything a `submit` request carries: the workload, the iteration
/// count, scheduling knobs, and [`CrpConfig`] overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The tenant the job is accounted to: quotas and fair-share
    /// dispatch are per tenant. Defaults to `"default"`.
    pub tenant: String,
    /// What to optimize.
    pub workload: Workload,
    /// CR&P iterations to run (the paper's `k`).
    pub iterations: usize,
    /// Requested worker-thread budget (clamped by the scheduler to the
    /// daemon's total budget; minimum 1).
    pub threads: usize,
    /// Scheduling lane.
    pub priority: Lane,
    /// Iterations between checkpoints (0 disables checkpointing).
    /// In [`JobMode::Place`] the same cadence also checkpoints the GP
    /// phase at its own iteration boundaries.
    pub checkpoint_every: usize,
    /// Which pipeline to run.
    pub mode: JobMode,
    /// Global-placement iterations ([`JobMode::Place`] only).
    pub gp_iterations: usize,
    /// Density-grid bins per axis, 0 = auto ([`JobMode::Place`] only).
    pub gp_bins: usize,
    /// The flow configuration after applying the request's overrides.
    /// `config.threads` is overwritten by the scheduler with the granted
    /// budget at dispatch time.
    pub config: CrpConfig,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            tenant: "default".to_string(),
            workload: Workload::Profile {
                name: "ispd18_test1".to_string(),
                scale: 400.0,
            },
            iterations: 2,
            threads: 1,
            priority: Lane::Normal,
            checkpoint_every: 1,
            mode: JobMode::Crp,
            gp_iterations: 64,
            gp_bins: 0,
            config: CrpConfig::default(),
        }
    }
}

impl JobSpec {
    /// Total progress units of the job: GP iterations (place mode) plus
    /// CR&P iterations. Watch events and `status` progress counters run
    /// over this combined range.
    #[must_use]
    pub fn total_iterations(&self) -> usize {
        match self.mode {
            JobMode::Crp => self.iterations,
            JobMode::Place => self.gp_iterations + self.iterations,
        }
    }

    /// GP iterations contributed to
    /// [`total_iterations`](Self::total_iterations): 0 in CR&P mode.
    #[must_use]
    pub fn gp_phase_iterations(&self) -> usize {
        match self.mode {
            JobMode::Crp => 0,
            JobMode::Place => self.gp_iterations,
        }
    }
}

fn check_level_name(level: CheckLevel) -> &'static str {
    match level {
        CheckLevel::Off => "off",
        CheckLevel::Cheap => "cheap",
        CheckLevel::Full => "full",
    }
}

fn check_level_from(s: &str) -> Option<CheckLevel> {
    match s {
        "off" => Some(CheckLevel::Off),
        "cheap" => Some(CheckLevel::Cheap),
        "full" => Some(CheckLevel::Full),
        _ => None,
    }
}

impl JobSpec {
    /// Serializes the spec (wire format and on-disk `spec.json`).
    // crp-lint: checkpoint(JobSpec, to_json, from_json)
    // crp-lint: checkpoint(CrpConfig, to_json, from_json)
    #[must_use]
    pub fn to_json(&self) -> Json {
        let workload = match &self.workload {
            Workload::Profile { name, scale } => Json::obj(vec![
                ("profile", Json::str(name)),
                ("scale", Json::Float(*scale)),
            ]),
            Workload::LefDef { lef, def } => {
                Json::obj(vec![("lef", Json::str(lef)), ("def", Json::str(def))])
            }
        };
        let c = &self.config;
        let overrides = Json::obj(vec![
            ("seed", Json::Int(i128::from(c.seed))),
            ("gamma", Json::Float(c.gamma)),
            ("temperature", Json::Float(c.temperature)),
            ("max_candidates", Json::Int(c.max_candidates as i128)),
            ("price_cache", Json::Bool(c.price_cache)),
            ("check_level", Json::str(check_level_name(c.check_level))),
            ("congestion_aware", Json::Bool(c.congestion_aware)),
            ("prioritize", Json::Bool(c.prioritize)),
            ("move_margin", Json::Float(c.move_margin)),
            ("n_site", Json::Int(i128::from(c.n_site))),
            ("n_row", Json::Int(i128::from(c.n_row))),
            ("max_window_cells", Json::Int(c.max_window_cells as i128)),
            ("ilp_node_limit", Json::Int(i128::from(c.ilp_node_limit))),
        ]);
        Json::obj(vec![
            ("tenant", Json::str(&self.tenant)),
            ("workload", workload),
            ("iterations", Json::Int(self.iterations as i128)),
            ("threads", Json::Int(self.threads as i128)),
            ("priority", Json::str(self.priority.as_str())),
            ("checkpoint_every", Json::Int(self.checkpoint_every as i128)),
            ("mode", Json::str(self.mode.as_str())),
            ("gp_iterations", Json::Int(self.gp_iterations as i128)),
            ("gp_bins", Json::Int(self.gp_bins as i128)),
            ("overrides", overrides),
        ])
    }

    /// Parses a spec from its JSON form, validating every field.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] naming the offending field on any
    /// missing, mistyped, or out-of-range value.
    pub fn from_json(v: &Json) -> Result<JobSpec, ServeError> {
        let w = v
            .get("workload")
            .ok_or_else(|| ServeError::new("spec missing `workload`"))?;
        let workload = if let Some(name) = w.get("profile").and_then(Json::as_str) {
            let scale = w.get("scale").and_then(Json::as_f64).unwrap_or(100.0);
            if !(scale.is_finite() && scale > 0.0) {
                return Err(ServeError::new("`scale` must be a positive number"));
            }
            Workload::Profile {
                name: name.to_string(),
                scale,
            }
        } else if let (Some(lef), Some(def)) = (
            w.get("lef").and_then(Json::as_str),
            w.get("def").and_then(Json::as_str),
        ) {
            Workload::LefDef {
                lef: lef.to_string(),
                def: def.to_string(),
            }
        } else {
            return Err(ServeError::new(
                "`workload` needs either `profile` (+ optional `scale`) or `lef` + `def`",
            ));
        };

        let tenant = match v.get("tenant") {
            None => "default".to_string(),
            Some(t) => {
                let name = t
                    .as_str()
                    .ok_or_else(|| ServeError::new("`tenant` must be a string"))?;
                if name.is_empty()
                    || name.len() > 64
                    || !name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
                {
                    return Err(ServeError::new(
                        "`tenant` must be 1-64 chars of [A-Za-z0-9._-]",
                    ));
                }
                name.to_string()
            }
        };

        let iterations = v
            .get("iterations")
            .and_then(Json::as_usize)
            .ok_or_else(|| ServeError::new("spec missing integer `iterations`"))?;
        if iterations == 0 || iterations > 10_000 {
            return Err(ServeError::new("`iterations` must be in 1..=10000"));
        }
        let threads = v
            .get("threads")
            .and_then(Json::as_usize)
            .unwrap_or(1)
            .max(1);
        let priority = match v.get("priority").and_then(Json::as_str) {
            None => Lane::Normal,
            Some(s) => Lane::from_name(s)
                .ok_or_else(|| ServeError::new("`priority` must be \"high\" or \"normal\""))?,
        };
        let checkpoint_every = v
            .get("checkpoint_every")
            .and_then(Json::as_usize)
            .unwrap_or(1);
        let mode = match v.get("mode").and_then(Json::as_str) {
            None => JobMode::Crp,
            Some(s) => JobMode::from_name(s)
                .ok_or_else(|| ServeError::new("`mode` must be \"crp\" or \"place\""))?,
        };
        let gp_iterations = v
            .get("gp_iterations")
            .and_then(Json::as_usize)
            .unwrap_or(64);
        if gp_iterations == 0 || gp_iterations > 10_000 {
            return Err(ServeError::new("`gp_iterations` must be in 1..=10000"));
        }
        let gp_bins = v.get("gp_bins").and_then(Json::as_usize).unwrap_or(0);
        if gp_bins > 4_096 {
            return Err(ServeError::new("`gp_bins` must be at most 4096"));
        }

        let mut config = CrpConfig::default();
        if let Some(o) = v.get("overrides") {
            if let Some(seed) = o.get("seed").and_then(Json::as_u64) {
                config.seed = seed;
            }
            if let Some(gamma) = o.get("gamma").and_then(Json::as_f64) {
                if !(gamma.is_finite() && (0.0..=1.0).contains(&gamma)) {
                    return Err(ServeError::new("`gamma` must be in [0, 1]"));
                }
                config.gamma = gamma;
            }
            if let Some(t) = o.get("temperature").and_then(Json::as_f64) {
                if !(t.is_finite() && t > 0.0) {
                    return Err(ServeError::new("`temperature` must be positive"));
                }
                config.temperature = t;
            }
            if let Some(mc) = o.get("max_candidates").and_then(Json::as_usize) {
                if mc == 0 {
                    return Err(ServeError::new("`max_candidates` must be positive"));
                }
                config.max_candidates = mc;
            }
            if let Some(b) = o.get("price_cache").and_then(Json::as_bool) {
                config.price_cache = b;
            }
            if let Some(s) = o.get("check_level").and_then(Json::as_str) {
                config.check_level = check_level_from(s)
                    .ok_or_else(|| ServeError::new("`check_level` must be off|cheap|full"))?;
            }
            if let Some(b) = o.get("congestion_aware").and_then(Json::as_bool) {
                config.congestion_aware = b;
            }
            if let Some(b) = o.get("prioritize").and_then(Json::as_bool) {
                config.prioritize = b;
            }
            if let Some(m) = o.get("move_margin").and_then(Json::as_f64) {
                if !m.is_finite() {
                    return Err(ServeError::new("`move_margin` must be finite"));
                }
                config.move_margin = m;
            }
            if let Some(n) = o.get("n_site").and_then(Json::as_i64) {
                if n <= 0 {
                    return Err(ServeError::new("`n_site` must be positive"));
                }
                config.n_site = n;
            }
            if let Some(n) = o.get("n_row").and_then(Json::as_i64) {
                if n <= 0 {
                    return Err(ServeError::new("`n_row` must be positive"));
                }
                config.n_row = n;
            }
            if let Some(n) = o.get("max_window_cells").and_then(Json::as_usize) {
                if n == 0 {
                    return Err(ServeError::new("`max_window_cells` must be positive"));
                }
                config.max_window_cells = n;
            }
            if let Some(n) = o.get("ilp_node_limit").and_then(Json::as_u64) {
                if n == 0 {
                    return Err(ServeError::new("`ilp_node_limit` must be positive"));
                }
                config.ilp_node_limit = n;
            }
        }

        Ok(JobSpec {
            tenant,
            workload,
            iterations,
            threads,
            priority,
            checkpoint_every,
            mode,
            gp_iterations,
            gp_bins,
            config,
        })
    }
}

/// The job lifecycle. Legal transitions:
///
/// ```text
/// queued -> running -> done
///                   -> failed
///                   -> checkpointed -> running   (resume)
/// queued|running|checkpointed -> cancelled
/// ```
///
/// `Checkpointed` means the job was paused at an iteration boundary with
/// its full flow state on disk (graceful shutdown, or a crash with a
/// checkpoint present) and will resume when the daemon next dispatches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in an admission lane.
    Queued,
    /// Executing on a worker.
    Running,
    /// Paused with resumable state on disk.
    Checkpointed,
    /// Finished; results are fetchable.
    Done,
    /// Crashed; the error (and diagnostic bundle path, if any) is recorded.
    Failed,
    /// Cancelled by request.
    Cancelled,
}

impl JobState {
    /// The wire name of the state.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Checkpointed => "checkpointed",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<JobState> {
        match s {
            "queued" => Some(JobState::Queued),
            "running" => Some(JobState::Running),
            "checkpointed" => Some(JobState::Checkpointed),
            "done" => Some(JobState::Done),
            "failed" => Some(JobState::Failed),
            "cancelled" => Some(JobState::Cancelled),
            _ => None,
        }
    }

    /// Whether the job can never run again.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn spec_roundtrips_through_json() {
        let mut spec = JobSpec::default();
        spec.config.seed = u64::MAX;
        spec.config.check_level = CheckLevel::Cheap;
        spec.config.n_site = 33;
        spec.config.n_row = 9;
        spec.config.max_window_cells = 5;
        spec.config.ilp_node_limit = 7;
        spec.priority = Lane::High;
        spec.threads = 3;
        spec.mode = JobMode::Place;
        spec.gp_iterations = 17;
        spec.gp_bins = 24;
        let json = spec.to_json().to_string();
        let back = JobSpec::from_json(&parse(&json).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn mode_defaults_to_crp_and_sets_totals() {
        let back = JobSpec::from_json(
            &parse("{\"workload\":{\"profile\":\"x\"},\"iterations\":3}").unwrap(),
        )
        .unwrap();
        assert_eq!(back.mode, JobMode::Crp);
        assert_eq!(back.total_iterations(), 3);
        assert_eq!(back.gp_phase_iterations(), 0);
        let place = JobSpec {
            mode: JobMode::Place,
            gp_iterations: 5,
            iterations: 3,
            ..JobSpec::default()
        };
        assert_eq!(place.total_iterations(), 8);
        assert_eq!(place.gp_phase_iterations(), 5);
    }

    #[test]
    fn tenant_roundtrips_and_defaults() {
        let spec = JobSpec {
            tenant: "team-red.42".to_string(),
            ..JobSpec::default()
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.tenant, "team-red.42");
        // A spec without a tenant lands in the default tenant.
        let back = JobSpec::from_json(
            &parse("{\"workload\":{\"profile\":\"x\"},\"iterations\":1}").unwrap(),
        )
        .unwrap();
        assert_eq!(back.tenant, "default");
    }

    #[test]
    fn lefdef_workload_roundtrips() {
        let spec = JobSpec {
            workload: Workload::LefDef {
                lef: "/tmp/a.lef".into(),
                def: "/tmp/a.def".into(),
            },
            ..JobSpec::default()
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back.workload, spec.workload);
    }

    #[test]
    fn bad_specs_are_rejected_with_reasons() {
        let cases = [
            ("{}", "workload"),
            ("{\"workload\":{}}", "workload"),
            ("{\"workload\":{\"profile\":\"x\"}}", "iterations"),
            (
                "{\"workload\":{\"profile\":\"x\",\"scale\":-1},\"iterations\":1}",
                "scale",
            ),
            (
                "{\"workload\":{\"profile\":\"x\"},\"iterations\":0}",
                "iterations",
            ),
            (
                "{\"workload\":{\"profile\":\"x\"},\"iterations\":1,\"overrides\":{\"gamma\":2.0}}",
                "gamma",
            ),
            (
                "{\"workload\":{\"profile\":\"x\"},\"iterations\":1,\"overrides\":{\"check_level\":\"max\"}}",
                "check_level",
            ),
            (
                "{\"workload\":{\"profile\":\"x\"},\"iterations\":1,\"priority\":\"urgent\"}",
                "priority",
            ),
            (
                "{\"tenant\":\"\",\"workload\":{\"profile\":\"x\"},\"iterations\":1}",
                "tenant",
            ),
            (
                "{\"tenant\":\"no spaces\",\"workload\":{\"profile\":\"x\"},\"iterations\":1}",
                "tenant",
            ),
            (
                "{\"tenant\":7,\"workload\":{\"profile\":\"x\"},\"iterations\":1}",
                "tenant",
            ),
            (
                "{\"workload\":{\"profile\":\"x\"},\"iterations\":1,\"mode\":\"route\"}",
                "mode",
            ),
            (
                "{\"workload\":{\"profile\":\"x\"},\"iterations\":1,\"gp_iterations\":0}",
                "gp_iterations",
            ),
            (
                "{\"workload\":{\"profile\":\"x\"},\"iterations\":1,\"gp_bins\":5000}",
                "gp_bins",
            ),
        ];
        for (src, needle) in cases {
            let err = JobSpec::from_json(&parse(src).unwrap()).unwrap_err();
            assert!(err.msg.contains(needle), "{src} -> {err}");
        }
    }

    #[test]
    fn state_machine_names_roundtrip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Checkpointed,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_name(s.as_str()), Some(s));
        }
        assert!(JobState::Done.is_terminal());
        assert!(!JobState::Checkpointed.is_terminal());
    }
}
