//! The shared TAGE front end of the fused-column drives.
//!
//! A fused column drives several predictors over one stream. Every
//! TAGE-family host among them spends about half its per-branch time in
//! its front end — the history push and the index/tag phase — and that
//! front end is a pure function of the trace (see
//! [`bp_components::TageFrontEnd`]). So hosts with equal front ends
//! (same index geometry, same history) compute equal plans, and a
//! column needs to run each distinct front end only once.
//!
//! [`ColumnDrive`] groups a column's predictors by front-end equality
//! when a pass starts. For each group of two or more, it runs one copy
//! of the front end per chunk of [`PLAN_CHUNK`] records into bounded
//! plan scratch, and every member commits the chunk from the shared
//! plans ([`ConditionalPredictor::run_block_planned`]). Everything else
//! — non-TAGE hosts, and a TAGE host alone with its geometry — runs its
//! own solo block drive. Results are bit-identical to driving every
//! predictor alone.

use bp_components::{
    AttributionTally, ConditionalPredictor, PredictorStats, TageFrontEnd, TagePlan,
};
use bp_trace::BranchRecord;

/// Records planned per front-end pass. 512 plans of 112 bytes is 56 KiB
/// of scratch per fused pass, small enough to stay cache-resident while
/// every member of a group commits from it.
pub(crate) const PLAN_CHUNK: usize = 512;

/// One fused column's predictors.
pub(crate) type Column = [Box<dyn ConditionalPredictor + Send>];

/// Predictors sharing one front end.
struct Group {
    front: TageFrontEnd,
    members: Vec<usize>,
}

/// The per-pass drive of one fused column: the shared-front-end groups,
/// the solo predictors, and the plan scratch.
pub(crate) struct ColumnDrive {
    groups: Vec<Group>,
    solo: Vec<usize>,
    plans: Vec<TagePlan>,
}

impl ColumnDrive {
    /// Groups `column` by front-end equality. A group of one is the
    /// solo path: sharing pays only when one plan feeds several hosts.
    // bp-lint: allow-item(hot-path-alloc, "per-pass setup, once per fused column; the per-block drive is allocation-free (tests/hotpath_allocations.rs)")
    pub(crate) fn new(column: &mut Column) -> Self {
        let mut groups: Vec<Group> = Vec::new();
        let mut solo = Vec::new();
        for (i, predictor) in column.iter_mut().enumerate() {
            let Some(front) = predictor.front_end() else {
                solo.push(i);
                continue;
            };
            match groups.iter_mut().find(|g| g.front == *front) {
                Some(group) => group.members.push(i),
                None => groups.push(Group {
                    front: front.clone(),
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
        let plans = if groups.is_empty() {
            Vec::new()
        } else {
            vec![TagePlan::default(); PLAN_CHUNK]
        };
        ColumnDrive {
            groups,
            solo,
            plans,
        }
    }

    /// Drives `records` through every predictor of `column`:
    /// `commit(i, predictor, records, plans)` runs predictor `i` over
    /// `records`, from the shared `plans` of those records when it is a
    /// group member (`None` for a solo predictor).
    pub(crate) fn drive<F>(&mut self, column: &mut Column, records: &[BranchRecord], mut commit: F)
    where
        F: FnMut(
            usize,
            &mut (dyn ConditionalPredictor + Send),
            &[BranchRecord],
            Option<&[TagePlan]>,
        ),
    {
        for group in &mut self.groups {
            for chunk in records.chunks(PLAN_CHUNK) {
                let plans = &mut self.plans[..chunk.len()];
                group.front.plan_block(chunk, plans);
                for &member in &group.members {
                    commit(member, column[member].as_mut(), chunk, Some(plans));
                }
            }
        }
        for &i in &self.solo {
            commit(i, column[i].as_mut(), records, None);
        }
    }

    /// A partial context-switch flush at this point of the stream, for
    /// the group front ends (each predictor flushes its own history).
    pub(crate) fn flush(&mut self) {
        for group in &mut self.groups {
            group.front.flush();
        }
    }

    /// Reloads every group's front end from its first member — after a
    /// full flush rebuilt the whole column cold.
    pub(crate) fn reload(&mut self, column: &mut Column) {
        for group in &mut self.groups {
            if let Some(front) = column[group.members[0]].front_end() {
                group.front.clone_from(front);
            }
        }
    }

    /// Ends the pass: hands each group's front end back to its members,
    /// so every predictor is left in exactly the state a solo run would
    /// have left it in.
    pub(crate) fn finish(self, column: &mut Column) {
        for group in &self.groups {
            for &member in &group.members {
                if let Some(front) = column[member].front_end() {
                    front.clone_from(&group.front);
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
    plans: Option<&[TagePlan]>,
    stats: &mut PredictorStats,
) {
    match plans {
        Some(plans) => predictor.run_block_planned(records, plans, stats),
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
        plans: Option<&[TagePlan]>,
    ) {
        match plans {
            Some(plans) => predictor.run_block_planned_attributed(
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
    use crate::registry::paper_report_predictors;

    #[test]
    fn paper_report_column_shares_one_front_end_across_its_tage_hosts() {
        let specs = paper_report_predictors();
        let mut column: Vec<_> = specs.iter().map(|s| s.make()).collect();
        let drive = ColumnDrive::new(&mut column);
        let grouped: Vec<Vec<&str>> = drive
            .groups
            .iter()
            .map(|g| g.members.iter().map(|&i| specs[i].name.as_str()).collect())
            .collect();
        // The six default-geometry TAGE hosts, the wormhole-wrapped one
        // included, form one group; every other host runs solo.
        assert_eq!(grouped.len(), 1, "{grouped:?}");
        assert_eq!(grouped[0].len(), 6, "{grouped:?}");
        assert!(grouped[0].contains(&"tage-gsc+wh"), "{grouped:?}");
        assert_eq!(drive.solo.len(), specs.len() - 6);
    }
}
