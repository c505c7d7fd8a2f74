//! # gpnm-adaptive — the online cost-model controller
//!
//! The serving layers expose many performance knobs (refresh strategy,
//! `refresh_threads`, shard placement) and, since the `TickStats` work,
//! measure exactly what each tick phase cost — but every knob is frozen
//! at build time. This crate closes the loop with **decision logic
//! only**: small, deterministic-by-default controllers that the service
//! and cluster consult each tick. Nothing here touches a graph or an
//! index; the host layers feed observations in and apply the choices.
//!
//! Two controllers:
//!
//! * [`StrategyController`] — one per standing pattern. Picks the
//!   pattern's [`RefreshStrategy`] for the next refresh from a cost model
//!   fitted online to observed refresh times. The model is
//!   *prediction-driven*: per-unit costs (ns per survivor pass, ns per
//!   update pass, ns per full re-match) are EWMA-smoothed from past
//!   ticks, and each tick's arm is chosen by pricing the arms against the
//!   batch features **known before the refresh runs** (committed-update
//!   and EH-Tree-survivor counts). A phase shift in the workload flips
//!   the prediction on the first tick of the new phase — no exploration
//!   lag — while a small epsilon-greedy exploration (bounded-regret: only
//!   arms priced within `exploration_cap` of the best are ever sampled)
//!   keeps competitive arms' estimates fresh and hysteresis stops
//!   near-ties from thrashing. Safe because every arm is proven
//!   bitwise-identical by the
//!   equivalence suites; the controller trades cost, never answers.
//! * [`ThreadTuner`] — one per host. Flips the per-pattern refresh phase
//!   between the sequential baseline and pool fan-out by comparing the
//!   tick's summed (predicted) refresh time against the fan-out's
//!   critical path plus the pool's spawn overhead.
//!
//! Exploration uses a seeded [`rand::rngs::StdRng`], so an adaptive run
//! is reproducible end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use gpnm_distance::CostHints;
use gpnm_engine::RefreshStrategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An exponentially-weighted moving average that knows whether it has
/// ever been fed.
#[derive(Debug, Clone, Copy)]
struct Ewma {
    alpha: f64,
    value: f64,
    seeded: bool,
}

impl Ewma {
    fn new(alpha: f64) -> Self {
        Ewma {
            alpha,
            value: 0.0,
            seeded: false,
        }
    }

    fn observe(&mut self, sample: f64) {
        if self.seeded {
            self.value += self.alpha * (sample - self.value);
        } else {
            self.value = sample;
            self.seeded = true;
        }
    }

    fn get(&self) -> Option<f64> {
        self.seeded.then_some(self.value)
    }
}

/// The per-tick batch features a [`StrategyController`] prices arms
/// against — all known **before** the refresh phase runs, which is what
/// lets the controller react to a phase shift on its first tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickFeatures {
    /// Updates committed this tick (after net-effect reduction).
    pub updates: usize,
    /// EH-Tree survivors among them (repair passes an eliminative
    /// refresh would run).
    pub survivors: usize,
}

/// Tuning knobs of a [`StrategyController`]. The defaults are deliberate:
/// epsilon small enough that exploration never dominates a phase,
/// hysteresis wide enough that prediction noise on near-equal arms does
/// not thrash the choice.
#[derive(Debug, Clone, Copy)]
pub struct ControllerConfig {
    /// Probability of exploring a random arm instead of exploiting the
    /// model (keeps stale arms' estimates fresh).
    pub epsilon: f64,
    /// Bounded-regret exploration: an exploration tick only considers
    /// arms predicted within this factor of the best arm. Near-tied arms
    /// keep their estimates fresh — exactly where estimate accuracy
    /// decides the choice — while an arm priced an order of magnitude
    /// worse is never sampled in the phase where sampling it would cost
    /// the most.
    pub exploration_cap: f64,
    /// Relative predicted improvement required before switching arms —
    /// the new arm must price below `current × (1 − hysteresis)`.
    pub hysteresis: f64,
    /// EWMA smoothing factor for the per-unit cost estimates.
    pub alpha: f64,
    /// Seed of the exploration RNG — adaptive runs are reproducible.
    pub seed: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            epsilon: 0.02,
            exploration_cap: 3.0,
            hysteresis: 0.15,
            alpha: 0.3,
            seed: 0x9212,
        }
    }
}

/// One settled [`StrategyController::decide`] call, kept for
/// observability: the host reads it back after `decide` to emit
/// per-arm decision metrics, and the controller emits it as a tracing
/// event at decision time.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    /// The arm chosen for the coming tick.
    pub arm: RefreshStrategy,
    /// How the arm was chosen: `"seed"` (calibrating a never-observed
    /// arm), `"explore"` (epsilon tick within the regret cap),
    /// `"switch"` (prediction beat the hysteresis margin), or `"hold"`
    /// (kept the incumbent).
    pub reason: &'static str,
    /// Predicted cost per arm in nanoseconds, in
    /// [`RefreshStrategy::ALL`] order; `NaN` until that arm has been
    /// observed once.
    pub predicted: [f64; 3],
}

impl Decision {
    /// Predicted cost of the chosen arm in nanoseconds; `NaN` on the tick
    /// that seeds it.
    pub fn predicted_ns(&self) -> f64 {
        RefreshStrategy::ALL
            .iter()
            .zip(self.predicted)
            .find_map(|(&arm, ns)| (arm == self.arm).then_some(ns))
            .expect("the chosen arm is one of ALL")
    }
}

/// Per-pattern epsilon-greedy strategy selector over a fitted cost model.
///
/// Lifecycle per tick: the host calls [`StrategyController::decide`] with
/// the tick's pre-refresh [`TickFeatures`] (and the backend's
/// [`CostHints`]), runs the refresh with the returned arm, then feeds the
/// measured nanoseconds back through [`StrategyController::observe`].
#[derive(Debug, Clone)]
pub struct StrategyController {
    cfg: ControllerConfig,
    rng: StdRng,
    /// ns per survivor verify pass under [`RefreshStrategy::Eliminative`].
    elim_per_survivor: Ewma,
    /// ns per update verify pass under [`RefreshStrategy::PerUpdate`].
    inc_per_update: Ewma,
    /// ns per full re-match under [`RefreshStrategy::Rematch`]
    /// (batch-size independent).
    rematch_ns: Ewma,
    current: RefreshStrategy,
    switches: u64,
    last_decision: Option<Decision>,
}

impl StrategyController {
    /// A controller with `cfg`'s knobs, starting on the
    /// [`RefreshStrategy::Eliminative`] default.
    pub fn new(cfg: ControllerConfig) -> Self {
        StrategyController {
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            elim_per_survivor: Ewma::new(cfg.alpha),
            inc_per_update: Ewma::new(cfg.alpha),
            rematch_ns: Ewma::new(cfg.alpha),
            current: RefreshStrategy::Eliminative,
            switches: 0,
            last_decision: None,
        }
    }

    /// Default config, with the exploration RNG re-seeded by `seed` (so k
    /// per-pattern controllers explore independently).
    pub fn with_seed(seed: u64) -> Self {
        Self::new(ControllerConfig {
            seed,
            ..ControllerConfig::default()
        })
    }

    /// The arm the last [`StrategyController::decide`] settled on.
    pub fn current(&self) -> RefreshStrategy {
        self.current
    }

    /// How many times the controller has changed arms.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The most recent [`StrategyController::decide`] outcome, with the
    /// per-arm predicted costs and the reason the arm was picked. `None`
    /// before the first decision.
    pub fn last_decision(&self) -> Option<Decision> {
        self.last_decision
    }

    /// Predicted refresh cost of `arm` under `features`, in nanoseconds.
    /// `None` until the arm has been observed at least once.
    fn predict(&self, arm: RefreshStrategy, f: &TickFeatures, hints: &CostHints) -> Option<f64> {
        match arm {
            RefreshStrategy::Eliminative => self
                .elim_per_survivor
                .get()
                .map(|unit| unit * f.survivors.max(1) as f64),
            RefreshStrategy::PerUpdate => self
                .inc_per_update
                .get()
                .map(|unit| unit * f.updates.max(1) as f64),
            RefreshStrategy::Rematch => self.rematch_ns.get().map(|ns| ns * hints.rematch_bias),
        }
    }

    fn settle(
        &mut self,
        arm: RefreshStrategy,
        reason: &'static str,
        predicted: [f64; 3],
    ) -> RefreshStrategy {
        if arm != self.current {
            self.switches += 1;
            self.current = arm;
        }
        self.last_decision = Some(Decision {
            arm,
            reason,
            predicted,
        });
        tracing::event!(
            tracing::Level::DEBUG,
            "strategy_decision",
            arm = arm.name(),
            reason = reason,
            predicted_eliminative_ns = predicted[0],
            predicted_per_update_ns = predicted[1],
            predicted_rematch_ns = predicted[2],
        );
        arm
    }

    /// Choose the refresh arm for the coming tick.
    ///
    /// Order of business: seed any never-observed arm first (a bounded,
    /// deterministic calibration — three ticks total), then explore with
    /// probability `epsilon` among the arms predicted within
    /// `exploration_cap` of the best (bounded regret), then exploit the
    /// model: switch only when the best arm prices below the current arm
    /// by more than the hysteresis margin.
    ///
    /// Every call records a [`Decision`] (see
    /// [`StrategyController::last_decision`]) and emits a
    /// `strategy_decision` tracing event carrying the per-arm predicted
    /// costs and the reason the arm won.
    pub fn decide(&mut self, features: &TickFeatures, hints: &CostHints) -> RefreshStrategy {
        let predicted: [f64; 3] = std::array::from_fn(|i| {
            self.predict(RefreshStrategy::ALL[i], features, hints)
                .unwrap_or(f64::NAN)
        });
        if let Some(&unseeded) = RefreshStrategy::ALL
            .iter()
            .find(|&&arm| self.predict(arm, features, hints).is_none())
        {
            return self.settle(unseeded, "seed", predicted);
        }
        let costs: Vec<(RefreshStrategy, f64)> = RefreshStrategy::ALL
            .iter()
            .map(|&arm| {
                (
                    arm,
                    self.predict(arm, features, hints)
                        .expect("all arms seeded above"),
                )
            })
            .collect();
        let (best, best_cost) = *costs
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("ALL is non-empty");
        if self.rng.gen_bool(self.cfg.epsilon) {
            let candidates: Vec<RefreshStrategy> = costs
                .iter()
                .filter(|&&(_, cost)| cost <= best_cost * self.cfg.exploration_cap)
                .map(|&(arm, _)| arm)
                .collect();
            let arm = candidates[self.rng.gen_range(0..candidates.len())];
            return self.settle(arm, "explore", predicted);
        }
        let current_cost = costs
            .iter()
            .find(|&&(arm, _)| arm == self.current)
            .expect("current is one of ALL")
            .1;
        if best != self.current && best_cost < current_cost * (1.0 - self.cfg.hysteresis) {
            self.settle(best, "switch", predicted)
        } else {
            let current = self.current;
            self.settle(current, "hold", predicted)
        }
    }

    /// Fold one measured refresh back into the model: `refresh_ns` is
    /// what running `strategy` under `features` actually cost.
    pub fn observe(
        &mut self,
        strategy: RefreshStrategy,
        features: &TickFeatures,
        refresh_ns: u128,
    ) {
        let ns = refresh_ns as f64;
        match strategy {
            RefreshStrategy::Eliminative => self
                .elim_per_survivor
                .observe(ns / features.survivors.max(1) as f64),
            RefreshStrategy::PerUpdate => self
                .inc_per_update
                .observe(ns / features.updates.max(1) as f64),
            RefreshStrategy::Rematch => self.rematch_ns.observe(ns),
        }
    }
}

/// Tuning knobs of a [`ThreadTuner`].
#[derive(Debug, Clone, Copy)]
pub struct TunerConfig {
    /// Estimated pool overhead per spawned refresh lane, in nanoseconds
    /// (scope setup + task hand-off + join, including waking a parked
    /// worker and the cold caches it starts with: on the reference box a
    /// 2-lane fan-out turns six refreshes that take 90 µs in sequence
    /// into a 205 µs phase, 160 µs over the ideal 45).
    pub spawn_overhead_ns: u64,
    /// Relative margin the parallel estimate must win by before fanning
    /// out (and lose by before falling back) — stops borderline ticks
    /// from flapping the knob.
    pub hysteresis: f64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            spawn_overhead_ns: 80_000,
            hysteresis: 0.25,
        }
    }
}

/// Flips the per-pattern refresh phase between the sequential baseline
/// (`refresh_threads = 0`) and pool fan-out, from the per-pattern refresh
/// times the coming tick is predicted to take.
///
/// The model: a sequential refresh costs the *sum* of the per-pattern
/// times; the fan-out hands each lane one contiguous chunk of patterns,
/// so it costs at least the slowest pattern and at least an even share
/// of the sum, plus per-lane spawn overhead. The tuner fans out only
/// when the measured sum beats that parallel estimate by the hysteresis
/// margin — tiny patterns stay on the overhead-free sequential path,
/// heavy ones get the pool.
#[derive(Debug, Clone, Copy)]
pub struct ThreadTuner {
    cfg: TunerConfig,
    parallel: bool,
}

impl ThreadTuner {
    /// A tuner starting on the sequential baseline.
    pub fn new(cfg: TunerConfig) -> Self {
        ThreadTuner {
            cfg,
            parallel: false,
        }
    }

    /// Whether the last decision was to fan out.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// The `refresh_threads` value for the coming tick (`0` =
    /// sequential), given its summed (`total_ns`) and worst-single-pattern
    /// (`max_ns`) refresh times, the number of registered patterns, and
    /// the pool lanes available.
    pub fn decide(
        &mut self,
        total_ns: u128,
        max_ns: u128,
        patterns: usize,
        pool_lanes: usize,
    ) -> usize {
        let lanes = pool_lanes.min(patterns);
        if lanes <= 1 {
            self.parallel = false;
            return 0;
        }
        let critical_path = max_ns.max(total_ns / lanes as u128);
        let parallel_est = critical_path + (self.cfg.spawn_overhead_ns as u128) * lanes as u128;
        let was_parallel = self.parallel;
        if self.parallel {
            // Fall back only when parallel is clearly not paying for its
            // overhead anymore.
            if (total_ns as f64) < parallel_est as f64 * (1.0 - self.cfg.hysteresis) {
                self.parallel = false;
            }
        } else if (total_ns as f64) > parallel_est as f64 * (1.0 + self.cfg.hysteresis) {
            self.parallel = true;
        }
        if self.parallel != was_parallel {
            tracing::event!(
                tracing::Level::DEBUG,
                "tuner_decision",
                parallel = self.parallel,
                total_ns = total_ns,
                parallel_est_ns = parallel_est,
                lanes = lanes,
            );
        }
        if self.parallel {
            lanes
        } else {
            0
        }
    }
}

impl Default for ThreadTuner {
    fn default() -> Self {
        Self::new(TunerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_explore(seed: u64) -> StrategyController {
        StrategyController::new(ControllerConfig {
            epsilon: 0.0,
            seed,
            ..ControllerConfig::default()
        })
    }

    const HINTS: CostHints = CostHints {
        rematch_bias: 1.0,
        storage_backed: false,
    };

    /// Drive one tick: decide, pretend the arm cost `cost(arm)` ns,
    /// observe.
    fn tick(
        ctl: &mut StrategyController,
        f: TickFeatures,
        cost: impl Fn(RefreshStrategy, &TickFeatures) -> u128,
    ) -> RefreshStrategy {
        let arm = ctl.decide(&f, &HINTS);
        ctl.observe(arm, &f, cost(arm, &f));
        arm
    }

    /// Synthetic per-arm costs: verify passes cost 1000 ns each, a full
    /// re-match costs 20_000 ns.
    fn synthetic(arm: RefreshStrategy, f: &TickFeatures) -> u128 {
        match arm {
            RefreshStrategy::Eliminative => 1_000 * f.survivors.max(1) as u128,
            RefreshStrategy::PerUpdate => 1_000 * f.updates.max(1) as u128,
            RefreshStrategy::Rematch => 20_000,
        }
    }

    #[test]
    fn calibrates_each_arm_once_then_exploits() {
        let mut ctl = no_explore(1);
        let f = TickFeatures {
            updates: 4,
            survivors: 2,
        };
        let first: Vec<RefreshStrategy> = (0..3).map(|_| tick(&mut ctl, f, synthetic)).collect();
        assert_eq!(
            first,
            RefreshStrategy::ALL.to_vec(),
            "one seeding tick per arm"
        );
        let seeding = ctl.last_decision().expect("decided");
        assert!(seeding.predicted_ns().is_nan(), "a seeded arm has no price");
        // Small batches: eliminative survivor passes are the cheapest arm.
        for _ in 0..10 {
            assert_eq!(tick(&mut ctl, f, synthetic), RefreshStrategy::Eliminative);
        }
    }

    #[test]
    fn phase_shift_flips_the_choice_on_its_first_tick() {
        let mut ctl = no_explore(2);
        let trickle = TickFeatures {
            updates: 4,
            survivors: 2,
        };
        for _ in 0..8 {
            tick(&mut ctl, trickle, synthetic);
        }
        assert_eq!(ctl.current(), RefreshStrategy::Eliminative);
        // Churn phase: 100 survivors would cost 100k ns of verify passes;
        // the 20k-ns rematch must win *immediately* — the features are
        // known before the refresh runs.
        let churn = TickFeatures {
            updates: 120,
            survivors: 100,
        };
        assert_eq!(ctl.decide(&churn, &HINTS), RefreshStrategy::Rematch);
        // ...and the chosen arm's price is what the thread tuner sees.
        let decision = ctl.last_decision().expect("decided");
        assert_eq!(decision.predicted_ns(), 20_000.0);
    }

    #[test]
    fn hysteresis_stops_near_ties_from_thrashing() {
        let mut ctl = no_explore(3);
        // Costs within 5% of each other: after calibration the controller
        // must settle and never switch again (hysteresis is 15%).
        let f = TickFeatures {
            updates: 20,
            survivors: 20,
        };
        let near_tie = |arm: RefreshStrategy, f: &TickFeatures| match arm {
            RefreshStrategy::Eliminative => 1_000 * f.survivors as u128,
            RefreshStrategy::PerUpdate => 1_020 * f.updates as u128,
            RefreshStrategy::Rematch => 19_600,
        };
        for _ in 0..50 {
            tick(&mut ctl, f, near_tie);
        }
        assert_eq!(ctl.switches(), 2, "only the calibration switches");
    }

    #[test]
    fn rematch_bias_penalizes_scans_on_storage_backends() {
        let mut ctl = no_explore(4);
        let f = TickFeatures {
            updates: 30,
            survivors: 25,
        };
        for _ in 0..6 {
            tick(&mut ctl, f, synthetic);
        }
        // In-memory: 25 k ns of passes vs 20 k ns rematch → rematch wins.
        assert_eq!(ctl.decide(&f, &HINTS), RefreshStrategy::Rematch);
        // Paged-style bias doubles the predicted rematch: passes win.
        let mut biased = ctl.clone();
        let paged = CostHints {
            rematch_bias: 2.0,
            storage_backed: true,
        };
        assert_eq!(biased.decide(&f, &paged), RefreshStrategy::Eliminative);
    }

    #[test]
    fn exploration_never_samples_an_arm_over_the_cap() {
        // Even exploring on *every* tick, churn-sized batches never run
        // the verify-pass arms: 100 survivor passes price 5x over the
        // rematch, beyond the 3x regret cap.
        let mut ctl = StrategyController::new(ControllerConfig {
            epsilon: 1.0,
            seed: 11,
            ..ControllerConfig::default()
        });
        let churn = TickFeatures {
            updates: 120,
            survivors: 100,
        };
        for _ in 0..3 {
            tick(&mut ctl, churn, synthetic); // calibration
        }
        for _ in 0..40 {
            assert_eq!(tick(&mut ctl, churn, synthetic), RefreshStrategy::Rematch);
        }
    }

    #[test]
    fn exploration_is_reproducible() {
        let run = |seed: u64| -> Vec<RefreshStrategy> {
            let mut ctl = StrategyController::new(ControllerConfig {
                epsilon: 0.5,
                seed,
                ..ControllerConfig::default()
            });
            let f = TickFeatures {
                updates: 10,
                survivors: 5,
            };
            (0..30).map(|_| tick(&mut ctl, f, synthetic)).collect()
        };
        assert_eq!(run(7), run(7), "same seed, same trajectory");
    }

    #[test]
    fn tuner_fans_out_heavy_refreshes_only() {
        let mut tuner = ThreadTuner::default();
        // Tiny refresh: sum 40 µs over 4 patterns — overhead dominates.
        assert_eq!(tuner.decide(40_000, 12_000, 4, 8), 0);
        // Heavy refresh: sum 40 ms, max 12 ms — fan out over min(pool, k).
        assert_eq!(tuner.decide(40_000_000, 12_000_000, 4, 8), 4);
        assert!(tuner.parallel());
        // Borderline tick inside the hysteresis band: stays parallel.
        assert_eq!(tuner.decide(400_000, 100_000, 4, 8), 4);
        // Clearly sequential again: falls back.
        assert_eq!(tuner.decide(50_000, 45_000, 4, 8), 0);
        // One pattern can never fan out.
        assert_eq!(tuner.decide(40_000_000, 40_000_000, 1, 8), 0);
    }
}
