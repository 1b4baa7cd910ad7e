//! The shared front ends of the fused-column drives.
//!
//! A fused column drives several predictors over one stream. Two parts
//! of a host are pure functions of the trace (see
//! [`bp_components::SharedFrontEnd`]), so hosts that hold equal copies
//! of one compute equal outputs for every branch, and a column needs to
//! run each distinct copy only once:
//!
//! * the **whole TAGE component** of a TAGE + corrector host (plain or
//!   wormhole-wrapped) — it trains on its own lookups only. Hosts with
//!   equal `TageConfig` and equal TAGE state form a TAGE group;
//! * the **global index inputs** of a GEHL host — history push and
//!   global index hash. Hosts with equal global geometry and history
//!   form a GEHL group; each keeps its own tables, IMLI term and local
//!   history.
//!
//! [`ColumnDrive`] groups a column's predictors when a pass starts. For
//! each group of two or more, it runs the first member's shared part —
//! the *leader's* — per chunk of [`PLAN_CHUNK`] records into bounded
//! scratch, and every member commits the chunk from that output
//! ([`ConditionalPredictor::run_block_shared`]). Everything else — hosts
//! without a shared part, and a host alone with its configuration —
//! runs its own solo block drive. When the pass ends the leader's
//! shared part is copied into the other members, so results and final
//! states are bit-identical to driving every predictor alone.
//!
//! The group holds no copy of its own: a partial context-switch flush
//! of the leader flushes the group, and a full flush, which rebuilds
//! every predictor cold, leaves every group with equal cold members.

use bp_components::{
    AttributionTally, ConditionalPredictor, GehlPlan, PredictorStats, SharedFrontEnd, SharedPlans,
    TageStep,
};
use bp_trace::BranchRecord;

/// Records run per shared pass. 256 GEHL plans of 144 bytes is 36 KiB
/// of scratch (256 TAGE steps of 24 bytes, 6 KiB), small enough to stay
/// cache-resident while every member of a group commits from it, and
/// measured as fast as 512-record chunks with less peak memory.
pub(crate) const PLAN_CHUNK: usize = 256;

/// One fused column's predictors.
pub(crate) type Column = [Box<dyn ConditionalPredictor + Send>];

/// Predictors sharing one front end, by column index, leader first.
struct Group {
    /// Whether the shared part is a whole TAGE (else a GEHL front end).
    tage: bool,
    members: Vec<usize>,
}

/// The per-pass drive of one fused column: the groups, the solo
/// predictors, and the scratch of each group kind.
pub(crate) struct ColumnDrive {
    groups: Vec<Group>,
    solo: Vec<usize>,
    steps: Vec<TageStep>,
    plans: Vec<GehlPlan>,
}

impl ColumnDrive {
    /// Groups `column` by shared-front-end equality. A group of one is
    /// the solo path: sharing pays only when one output feeds several
    /// hosts.
    // bp-lint: allow-item(hot-path-alloc, "per-pass setup, once per fused column; the per-block drive is allocation-free (tests/hotpath_allocations.rs)")
    pub(crate) fn new(column: &mut Column) -> Self {
        let mut groups: Vec<Group> = Vec::new();
        let mut solo = Vec::new();
        for i in 0..column.len() {
            let (head, tail) = column.split_at_mut(i);
            let Some(front) = tail[0].shared_front_end() else {
                solo.push(i);
                continue;
            };
            match groups
                .iter_mut()
                .find(|group| head[group.members[0]].shared_front_end().as_ref() == Some(&front))
            {
                Some(group) => group.members.push(i),
                None => groups.push(Group {
                    tage: matches!(front, SharedFrontEnd::Tage(_)),
                    members: vec![i],
                }),
            }
        }
        groups.retain(|group| match group.members[..] {
            [only] => {
                solo.push(only);
                false
            }
            _ => true,
        });
        let scratch = |tage: bool| {
            if groups.iter().any(|group| group.tage == tage) {
                PLAN_CHUNK
            } else {
                0
            }
        };
        let steps = vec![TageStep::default(); scratch(true)];
        let plans = vec![GehlPlan::default(); scratch(false)];
        ColumnDrive {
            groups,
            solo,
            steps,
            plans,
        }
    }

    /// Drives `records` through every predictor of `column`:
    /// `commit(i, predictor, records, plans)` runs predictor `i` over
    /// `records`, from its group's shared `plans` of those records when
    /// it is a group member (`None` for a solo predictor).
    pub(crate) fn drive<F>(&mut self, column: &mut Column, records: &[BranchRecord], mut commit: F)
    where
        F: FnMut(
            usize,
            &mut (dyn ConditionalPredictor + Send),
            &[BranchRecord],
            Option<SharedPlans<'_>>,
        ),
    {
        for group in &self.groups {
            for chunk in records.chunks(PLAN_CHUNK) {
                let n = chunk.len();
                let plans = match column[group.members[0]].shared_front_end() {
                    Some(SharedFrontEnd::Tage(tage)) => {
                        tage.step_block(chunk, &mut self.steps[..n]);
                        SharedPlans::Tage(&self.steps[..n])
                    }
                    Some(SharedFrontEnd::Gehl(front)) => {
                        front.plan_block(chunk, &mut self.plans[..n]);
                        SharedPlans::Gehl(&self.plans[..n])
                    }
                    // A predictor's shared part is fixed by its type, and
                    // a full flush rebuilds it from the same spec.
                    None => unreachable!("a group leader lost its shared front end"),
                };
                for &member in &group.members {
                    commit(member, column[member].as_mut(), chunk, Some(plans));
                }
            }
        }
        for &i in &self.solo {
            commit(i, column[i].as_mut(), records, None);
        }
    }

    /// Ends the pass: copies each group leader's shared part into the
    /// other members, so every predictor is left in exactly the state a
    /// solo run would have left it in.
    pub(crate) fn finish(self, column: &mut Column) {
        for group in &self.groups {
            let (leader, others) = (group.members[0], &group.members[1..]);
            for &member in others {
                let (head, tail) = column.split_at_mut(member);
                match (head[leader].shared_front_end(), tail[0].shared_front_end()) {
                    (Some(SharedFrontEnd::Tage(from)), Some(SharedFrontEnd::Tage(to))) => {
                        to.clone_from(from);
                    }
                    (Some(SharedFrontEnd::Gehl(from)), Some(SharedFrontEnd::Gehl(to))) => {
                        to.clone_from(from);
                    }
                    _ => unreachable!("group members share one kind of front end"),
                }
            }
        }
    }
}

/// Commits `records` into `stats` with the plain CBP protocol: from
/// `plans` when given, solo otherwise.
#[inline]
pub(crate) fn commit_plain(
    predictor: &mut (dyn ConditionalPredictor + Send),
    records: &[BranchRecord],
    plans: Option<SharedPlans<'_>>,
    stats: &mut PredictorStats,
) {
    match plans {
        Some(plans) => predictor.run_block_shared(records, plans, stats),
        None => predictor.run_block(records, stats),
    }
}

/// Prediction counts plus per-component attribution of one slice of a
/// run (a warmup/steady phase, or one scenario tenant).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub(crate) stats: PredictorStats,
    pub(crate) attribution: AttributionTally,
}

impl Tally {
    /// Commits `records` through the attribution channel into this
    /// tally: from `plans` when given, solo otherwise.
    #[inline]
    pub(crate) fn commit(
        &mut self,
        predictor: &mut (dyn ConditionalPredictor + Send),
        records: &[BranchRecord],
        plans: Option<SharedPlans<'_>>,
    ) {
        match plans {
            Some(plans) => predictor.run_block_shared_attributed(
                records,
                plans,
                &mut self.stats,
                &mut self.attribution,
            ),
            None => predictor.run_block_attributed(records, &mut self.stats, &mut self.attribution),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{paper_report_predictors, FamilyConfig, PredictorSpec, RegistryConfig};
    use crate::sweep::{solve_budget, STANDARD_BUDGETS_KBIT, SWEEP_FAMILIES};

    /// The groups `specs` form in one column and its solo predictors,
    /// as member names.
    fn grouping(specs: &[PredictorSpec]) -> (Vec<Vec<&str>>, Vec<&str>) {
        let mut column: Vec<_> = specs.iter().map(PredictorSpec::make).collect();
        let drive = ColumnDrive::new(&mut column);
        let names = |members: &[usize]| -> Vec<&str> {
            members.iter().map(|&i| specs[i].name.as_str()).collect()
        };
        (
            drive.groups.iter().map(|g| names(&g.members)).collect(),
            names(&drive.solo),
        )
    }

    #[test]
    fn paper_report_column_shares_one_front_end_across_its_tage_hosts() {
        let specs = paper_report_predictors();
        let (groups, solo) = grouping(&specs);
        // The six default-configuration TAGE hosts, the wormhole-wrapped
        // one included, share one TAGE; the five GEHL/FTL hosts, the
        // wormhole-wrapped one included, share one GEHL front end; the
        // perceptron runs solo.
        assert_eq!(
            groups,
            [
                vec![
                    "tage-gsc",
                    "tage-gsc+sic",
                    "tage-gsc+imli",
                    "tage-gsc+wh",
                    "tage-sc-l",
                    "tage-sc-l+imli"
                ],
                vec!["gehl", "gehl+imli", "gehl+wh", "ftl", "ftl+imli"],
            ]
        );
        assert_eq!(solo, ["perceptron+imli"]);
    }

    #[test]
    fn tage_groups_split_on_every_tage_config_field() {
        // Equal index geometry is not enough: a TAGE with other counter
        // or usefulness widths trains differently, so it is another
        // group (and here, with no partner, a solo host).
        let widened = |name: &str, edit: fn(&mut bp_tage::TageConfig)| {
            let mut spec = crate::registry::lookup(name).expect("registered");
            let FamilyConfig::TageSc(mut config) = spec.config.base.clone() else {
                unreachable!("TAGE host")
            };
            edit(&mut config.tage);
            spec.config = RegistryConfig::plain(FamilyConfig::TageSc(config));
            spec.name = format!("{name}*");
            spec
        };
        let specs = vec![
            crate::registry::lookup("tage-gsc").expect("registered"),
            widened("tage-gsc", |t| t.counter_bits = 4),
            widened("tage-sc-l", |t| t.counter_bits = 4),
            widened("tage-gsc+imli", |t| t.useful_bits = 3),
            crate::registry::lookup("tage-sc-l").expect("registered"),
        ];
        let (groups, solo) = grouping(&specs);
        assert_eq!(
            groups,
            [
                vec!["tage-gsc", "tage-sc-l"],
                vec!["tage-gsc*", "tage-sc-l*"]
            ]
        );
        assert_eq!(solo, ["tage-gsc+imli*"]);
    }

    #[test]
    fn sweep_column_shares_one_tage_per_solved_tage_config() {
        // The default sweep's fused column: every (budget, family) spec
        // named as `run_sweep` names it. TAGE hosts share a TAGE exactly
        // when the solver gives them one `TageConfig` — within a budget
        // from 32 Kbit up, and across budgets where a small solution
        // coincides (16 Kbit's `tage-sc-l+imli` lands on 8 Kbit's
        // `tage-gsc` TAGE). GEHL and GEHL+IMLI never solve to one
        // global geometry, so the GEHL hosts run solo.
        let specs: Vec<PredictorSpec> = STANDARD_BUDGETS_KBIT
            .iter()
            .flat_map(|&kbit| {
                SWEEP_FAMILIES.iter().map(move |family| {
                    let config = solve_budget(family, kbit * 1024).expect("solvable budget");
                    PredictorSpec::new(format!("{family}@{kbit}"), "sweep", config)
                })
            })
            .collect();
        let (groups, solo) = grouping(&specs);
        let full = |kbit: u64| -> Vec<String> {
            ["tage-gsc", "tage-gsc+imli", "tage-sc-l", "tage-sc-l+imli"]
                .iter()
                .map(|family| format!("{family}@{kbit}"))
                .collect()
        };
        let mut expected: Vec<Vec<String>> = vec![
            vec![
                "tage-gsc@8".into(),
                "tage-sc-l@8".into(),
                "tage-sc-l+imli@16".into(),
            ],
            vec!["tage-gsc+imli@8".into(), "tage-sc-l+imli@8".into()],
            vec!["tage-gsc@16".into(), "tage-sc-l@16".into()],
        ];
        expected.extend([32, 64, 128, 256].map(full));
        assert_eq!(groups, expected);
        assert!(solo.contains(&"tage-gsc+imli@16"), "{solo:?}");
        assert_eq!(solo.len(), specs.len() - 23);
    }
}
