//! Continuous-aging suite: the scheduler and the reduction step
//! (`ReductionSchedule` + `ShardRouter::age`) proven equal to
//! Definition 2 over the raw facts (`reduce`, which shares no code with
//! the step) at every tick.
//!
//! * Schedule goldens: the precomputed transition days match a
//!   brute-force day-by-day grounding scan for every example spec and
//!   the paper's a1/a2, and `eval_pred` over the paper's facts is
//!   constant between consecutive transition days (the staircase
//!   property the aging engine relies on).
//! * Long-horizon differential: 3+ years of seeded clicks aged through
//!   *every* scheduled transition day hold, at each day, the reduction
//!   of the raw clicks — content, per-cube placement and provenance.
//! * Tick-partition property: aging in one jump equals aging through
//!   any random subset of the intermediate transition days (cubes and
//!   per-subcube stats, epochs masked: carried-forward cubes
//!   legitimately keep the epoch they were last rebuilt at).
//! * Interleaved differential: 430 days of alternating `bulk_load` and
//!   `age` (late facts, double loads, skipped agings) hold the reduction
//!   of everything loaded so far after every `age`.
//! * Scheduler pins: `needs_sync` / `next_sync_due` answer from the
//!   schedule what the per-call step-day scan they replaced answered,
//!   on every day of the schema horizon.

#[path = "../crates/subcube/tests/common/mod.rs"]
mod common;

use proptest::prelude::*;
use std::sync::Arc;

use specdr::mdm::calendar::days_from_civil;
use specdr::mdm::{DayNum, Schema};
use specdr::prover::Region;
use specdr::reduce::{reduce, reduce_naive, DataReductionSpec, ReductionSchedule};
use specdr::spec::{eval_pred, ground_conj, parse_action, parse_actions, step_days, to_dnf, Pexp};
use specdr::subcube::{ShardRouter, SubcubeStats, WarehouseView};
use specdr::workload::{
    aging_script, daily_script, generate, paper_mo, ClickstreamConfig, DailyOp, ACTION_A1,
    ACTION_A2,
};

fn spec_from_sources(schema: &Arc<Schema>, srcs: &[String]) -> DataReductionSpec {
    let actions: Vec<_> = srcs
        .iter()
        .map(|s| parse_action(schema, s).unwrap())
        .collect();
    DataReductionSpec::new(Arc::clone(schema), actions).unwrap()
}

fn paper_spec() -> (DataReductionSpec, specdr::mdm::Mo) {
    let (mo, _) = paper_mo();
    let schema = Arc::clone(mo.schema());
    let a1 = parse_action(&schema, ACTION_A1).unwrap();
    let a2 = parse_action(&schema, ACTION_A2).unwrap();
    (DataReductionSpec::new(schema, vec![a1, a2]).unwrap(), mo)
}

/// A one-shard warehouse under `spec`, in memory.
fn warehouse(spec: &DataReductionSpec) -> ShardRouter {
    ShardRouter::in_memory(spec.clone()).unwrap()
}

/// The one shard's published view.
fn view(w: &ShardRouter) -> WarehouseView {
    w.view_set().views()[0].clone()
}

/// `w` holds Definition 2's reduction of `raw` at `t`.
fn assert_reduced(w: &ShardRouter, raw: &specdr::mdm::Mo, t: DayNum, ctx: &str) {
    assert_eq!(w.last_sync(), Some(t), "{ctx}");
    common::assert_holds(&[view(w)], &reduce(raw, &w.spec(), t).unwrap(), ctx);
}

/// Per-subcube stats with the epoch stamp masked: an aged warehouse
/// carries untouched cubes forward without republishing them, so their
/// `last_epoch` legitimately differs between two ways of getting there.
fn masked_stats(w: &ShardRouter) -> Vec<SubcubeStats> {
    view(w)
        .cubes()
        .iter()
        .map(|c| {
            let mut s = c.stats().clone();
            s.last_epoch = 0;
            s
        })
        .collect()
}

/// Brute force: a transition day is any day in the horizon where some
/// action's raw conjunct grounding differs from the previous day's.
fn brute_force_transitions(
    schema: &Schema,
    preds: &[&Pexp],
    horizon: (DayNum, DayNum),
) -> Vec<DayNum> {
    let ground_all = |d: DayNum| -> Vec<Vec<Vec<Region>>> {
        preds
            .iter()
            .map(|p| {
                to_dnf(p)
                    .iter()
                    .map(|c| ground_conj(schema, c, d).unwrap())
                    .collect()
            })
            .collect()
    };
    let mut out = Vec::new();
    let mut prev = ground_all(horizon.0);
    for d in (horizon.0 + 1)..=horizon.1 {
        let cur = ground_all(d);
        if cur != prev {
            out.push(d);
        }
        prev = cur;
    }
    out
}

#[test]
fn schedule_matches_brute_force_scan_on_example_specs() {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        ..Default::default()
    });
    for file in [
        "examples/specs/retention.spec",
        "examples/specs/tiered.spec",
        "examples/specs/per-group.spec",
    ] {
        let src = std::fs::read_to_string(file).unwrap();
        let actions = parse_actions(&cs.schema, &src).unwrap();
        let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
        let sched = ReductionSchedule::build(&spec).unwrap();
        let preds: Vec<&Pexp> = spec.actions().iter().map(|a| &a.1.pred).collect();
        let brute = brute_force_transitions(&cs.schema, &preds, sched.horizon());
        assert_eq!(sched.transition_days(), &brute[..], "{file}");
        assert!(!sched.is_static(), "{file} has NOW-relative windows");
    }
}

#[test]
fn schedule_matches_brute_force_scan_on_paper_spec() {
    let (spec, _) = paper_spec();
    let sched = ReductionSchedule::build(&spec).unwrap();
    let preds: Vec<&Pexp> = spec.actions().iter().map(|a| &a.1.pred).collect();
    let brute = brute_force_transitions(spec.schema(), &preds, sched.horizon());
    assert_eq!(sched.transition_days(), &brute[..]);
    assert!(!brute.is_empty());
}

#[test]
fn eval_pred_is_constant_between_transition_days() {
    // The staircase property the aging engine relies on: over the whole
    // horizon, any day where some fact's predicate evaluation flips is a
    // scheduled transition day.
    let (spec, mo) = paper_spec();
    let sched = ReductionSchedule::build(&spec).unwrap();
    let days: std::collections::BTreeSet<DayNum> =
        sched.transition_days().iter().copied().collect();
    let (h0, h1) = sched.horizon();
    let coords: Vec<Vec<specdr::mdm::DimValue>> = mo.facts().map(|f| mo.coords(f)).collect();
    let eval_all = |d: DayNum| -> Vec<bool> {
        let mut out = Vec::new();
        for a in spec.actions() {
            for c in &coords {
                out.push(eval_pred(mo.schema(), &a.1.pred, c, d).unwrap());
            }
        }
        out
    };
    let mut prev = eval_all(h0);
    for d in (h0 + 1)..=h1 {
        let cur = eval_all(d);
        if cur != prev {
            assert!(days.contains(&d), "eval flipped at unscheduled day {d}");
        }
        prev = cur;
    }
}

#[test]
fn schedule_boundary_cases() {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        ..Default::default()
    });
    // A static window (no NOW): empty schedule.
    let spec = spec_from_sources(
        &cs.schema,
        &["p(a[Time.month, URL.domain] o[Time.month <= 1999/6](O))".into()],
    );
    let sched = ReductionSchedule::build(&spec).unwrap();
    assert!(sched.is_static());
    assert!(sched.transition_days().is_empty());
    assert_eq!(sched.next_transition(sched.horizon().0), None);

    // A window starting exactly at NOW (offset zero): transitions are
    // exactly the month boundaries, starting with the first boundary
    // strictly inside the horizon.
    let spec = spec_from_sources(
        &cs.schema,
        &["p(a[Time.month, URL.domain] o[Time.month <= NOW](O))".into()],
    );
    let sched = ReductionSchedule::build(&spec).unwrap();
    let (h0, h1) = sched.horizon();
    let preds: Vec<&Pexp> = spec.actions().iter().map(|a| &a.1.pred).collect();
    let brute = brute_force_transitions(&cs.schema, &preds, (h0, h1));
    assert_eq!(sched.transition_days(), &brute[..]);
    let first = sched.next_transition(h0).unwrap();
    let (_, _, d) = specdr::mdm::calendar::civil_from_days(first);
    assert_eq!(d, 1, "transitions land on month starts, got day {first}");

    // Past the horizon: nothing left.
    assert_eq!(sched.next_transition(h1), None);
    assert!(sched.transitions_between(h1, h1 + 1000).is_empty());
    // The half-open window (after, until]: a tick at `after` itself is
    // excluded, the one at `until` included.
    let t = sched.next_transition(h0).unwrap();
    assert_eq!(sched.transitions_between(t, t), Vec::<DayNum>::new());
    assert_eq!(sched.transitions_between(t - 1, t), vec![t]);
}

/// The change days of every disjunct of `spec` over the horizon, by the
/// day-by-day grounding scan of `sdr_spec::step_days` — what the
/// warehouse's scheduler consulted, per call, before it asked the cached
/// schedule. (`step_days` always returns both endpoints; the last one is
/// a change day only if the grounding differs there.)
fn step_day_scan(spec: &DataReductionSpec, horizon: (DayNum, DayNum)) -> Vec<DayNum> {
    let schema = spec.schema();
    let mut days = Vec::new();
    for (_, a) in spec.actions() {
        for conj in to_dnf(&a.pred) {
            let steps = step_days(schema, &conj, horizon.0, horizon.1).unwrap();
            let (inner, end) = steps[1..].split_at(steps.len() - 2);
            days.extend_from_slice(inner);
            let at = |t| ground_conj(schema, &conj, t).unwrap();
            if at(horizon.1 - 1) != at(horizon.1) {
                days.extend_from_slice(end);
            }
        }
    }
    days.sort_unstable();
    days.dedup();
    days
}

/// The scheduler swap changed no answer: on every day of the schema
/// horizon, for both shipped specifications, `next_sync_due` and
/// `needs_sync` (a day and forty days ahead of the watermark) say what
/// the step-day scan said; outside the horizon they follow the schedule,
/// which has nothing there.
#[test]
fn scheduler_answers_what_the_step_day_scan_answered() {
    let cs = generate(&ClickstreamConfig {
        clicks_per_day: 0,
        ..Default::default()
    });
    let shipped = spec_from_sources(&cs.schema, &specdr::workload::retention_policy(6, 36));
    for (name, spec) in [("retention(6,36)", shipped), ("paper", paper_spec().0)] {
        let (lo, hi) = ReductionSchedule::build(&spec).unwrap().horizon();
        let scan = step_day_scan(&spec, (lo, hi));
        assert!(scan.len() > 20, "{name}: {} step days", scan.len());
        let due_after = |d: DayNum| scan.iter().copied().find(|&t| t > d);
        let w = warehouse(&spec);
        for d in lo..=hi {
            assert_eq!(view(&w).next_sync_due(d), due_after(d), "{name} day {d}");
            w.sync(d).unwrap();
            let v = view(&w);
            for ahead in [1, 40].into_iter().filter(|a| d + a <= hi) {
                let want = due_after(d).is_some_and(|t| t <= d + ahead);
                assert_eq!(v.needs_sync(d + ahead), want, "{name} {d}+{ahead}");
            }
            assert!(!v.needs_sync(d - 5), "{name}: before the watermark");
        }
        let v = view(&w);
        assert_eq!(v.next_sync_due(lo - 400), scan.first().copied());
        assert!(scan[0] > lo, "{name}: a due day at or before the horizon");
        for past in [hi, hi + 1, hi + 4000] {
            assert_eq!(v.next_sync_due(past), None, "{name} day {past}");
            assert!(!v.needs_sync(past), "{name} day {past}");
        }
    }
}

/// The tentpole guarantee, long horizon: a warehouse aged through every
/// scheduled transition day is, at each one, the reduction of the raw
/// clicks, over 3+ years of seeded clicks and seeded random policies.
fn differential_run(seed: u64) {
    let script = aging_script(seed);
    let schema = Arc::clone(&script.cs.schema);
    let spec = spec_from_sources(&schema, &script.actions);
    let aged = warehouse(&spec);
    aged.bulk_load(&script.cs.mo).unwrap();
    aged.sync(script.data_end).unwrap();

    let sched = ReductionSchedule::build(&spec).unwrap();
    let ticks = sched.transitions_between(script.data_end, script.horizon_end);
    assert!(
        ticks.len() >= 3,
        "seed {seed}: degenerate schedule ({} ticks)",
        ticks.len()
    );
    let mut skipped_total = 0usize;
    for &t in &ticks {
        let stats = aged.age(t).unwrap();
        assert_eq!(stats.ticks, 1, "seed {seed}: one transition per step");
        skipped_total += stats.cubes_skipped;
        assert_reduced(&aged, &script.cs.mo, t, &format!("seed {seed} tick {t}"));
    }
    // Incrementality was real: untouched cubes were carried forward.
    assert!(skipped_total > 0, "seed {seed}: no cube ever skipped");
    view(&aged).verify_stats().unwrap();
}

#[test]
fn long_horizon_differential_seed_1() {
    differential_run(1);
}

#[test]
fn long_horizon_differential_seed_2() {
    differential_run(2);
}

#[test]
fn long_horizon_differential_seed_3() {
    differential_run(3);
}

/// The write path's guarantee: loading a day and aging to it, day after
/// day, holds after **every** `age` exactly the reduction of everything
/// loaded so far — although `age` only ever resolves the rows loaded
/// since the previous pass.
fn interleaved_run(seed: u64) {
    let script = daily_script(seed, 430);
    let spec = spec_from_sources(&script.schema, &script.actions);
    let sched = ReductionSchedule::build(&spec).unwrap();
    let aged = warehouse(&spec);
    let mut all = specdr::mdm::Mo::new(Arc::clone(&script.schema));
    let mut pending = 0usize; // rows loaded since the last age
    let (mut late_homed, mut double_loads, mut quiet_ages) = (false, 0usize, 0usize);
    let mut loads_since_age = 0usize;
    for (step, op) in script.ops.iter().enumerate() {
        let t = match op {
            DailyOp::Load(mo) => {
                aged.bulk_load(mo).unwrap();
                all.absorb(mo).unwrap();
                pending += mo.len();
                loads_since_age += 1;
                assert!(view(&aged).is_dirty() || mo.is_empty());
                continue;
            }
            DailyOp::Age(t) => *t,
        };
        let before = view(&aged);
        let stats = aged.age(t).unwrap();
        let ctx = format!("seed {seed} step {step} day {t}");
        if let Some(last) = before.last_sync() {
            assert_eq!(stats.rows_homed, pending, "{ctx}: un-homed rows");
            let ticks = sched.transitions_between(last, t).len();
            assert_eq!(stats.ticks, ticks, "{ctx}: transition ticks");
            quiet_ages += usize::from(ticks == 0);
            // A non-bottom cube that changed on a quiet day received a
            // late fact: nothing else can reach it without a transition.
            let after = view(&aged);
            late_homed |= ticks == 0 && before.version_vector()[1..] != after.version_vector()[1..];
        }
        double_loads += usize::from(loads_since_age >= 2);
        (pending, loads_since_age) = (0, 0);
        assert!(!view(&aged).is_dirty(), "{ctx}");

        assert_reduced(&aged, &all, t, &ctx);
        view(&aged).verify_stats().unwrap();
    }
    // The script exercised what it promises.
    assert!(
        late_homed,
        "seed {seed}: no late fact reached a coarse cube"
    );
    assert!(double_loads > 0, "seed {seed}: no double load");
    assert!(quiet_ages > 300, "seed {seed}: {quiet_ages} quiet agings");
    let v = view(&aged);
    assert!(
        v.cubes().iter().all(|c| c.rows() > 0),
        "seed {seed}: every tier populated: {}",
        v.describe()
    );
}

#[test]
fn interleaved_load_and_age_equals_from_scratch_seed_1() {
    interleaved_run(1);
}

#[test]
fn interleaved_load_and_age_equals_from_scratch_seed_2() {
    interleaved_run(2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tick partitioning: aging straight to a target day equals aging
    /// through any subset of the intermediate transition days first
    /// (one jump == k sub-steps), and both are the reduction at the
    /// target.
    #[test]
    fn one_jump_equals_random_tick_partition(mask in any::<u64>(), stop_at in 4usize..40) {
        let (spec, mo) = paper_spec();
        let baseline = days_from_civil(2000, 1, 5);
        let sched = ReductionSchedule::build(&spec).unwrap();
        let all = sched.transitions_between(baseline, sched.horizon().1);
        if all.is_empty() {
            return Ok(());
        }
        let target = all[stop_at.min(all.len() - 1)];
        let stops: Vec<DayNum> = all
            .iter()
            .enumerate()
            .filter(|&(i, &t)| t < target && mask & (1 << (i % 64)) != 0)
            .map(|(_, &t)| t)
            .collect();

        let jump = warehouse(&spec);
        jump.bulk_load(&mo).unwrap();
        jump.sync(baseline).unwrap();
        jump.age(target).unwrap();

        let stepped = warehouse(&spec);
        stepped.bulk_load(&mo).unwrap();
        stepped.sync(baseline).unwrap();
        for &t in &stops {
            stepped.age(t).unwrap();
        }
        stepped.age(target).unwrap();
        prop_assert_eq!(common::placed(&[view(&jump)]), common::placed(&[view(&stepped)]));
        prop_assert_eq!(masked_stats(&jump), masked_stats(&stepped));
        let want = reduce_naive(&mo, &spec, target).unwrap();
        common::assert_holds(&[view(&jump)], &want, "one jump");
    }
}
