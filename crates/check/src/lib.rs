//! # sdr-check — model-checked harnesses for the warehouse protocols
//!
//! Each harness here is a tiny concurrent program exercising one of the
//! warehouse's real synchronization protocols through `sdr-sync`'s model
//! backend, which exhaustively enumerates thread interleavings up to a
//! preemption bound. The assertions are the protocol contracts:
//!
//! * [`Protocol::Epoch`] — the epoch-publish protocol of a shard's
//!   core (`SubcubeManager`): two writers bulk-load disjoint fact sets
//!   while a reader snapshots views. A reader must never observe a torn or
//!   partially-applied version (fact counts other than a whole-publish
//!   combination of the loads), its view epoch must never go backwards,
//!   and both publishes must survive (single-writer serialization).
//! * [`Protocol::GroupCommit`] — the all-or-nothing batch contract of
//!   `ShardRouter::apply_batch` on one shard: a batch whose tail op
//!   fails must roll the shard back to the pre-batch version, so the
//!   next publish shows no residue, and a concurrent reader never sees
//!   a torn set; a failed WAL append must wedge the warehouse — every
//!   mutator and `checkpoint` refused — until `ShardRouter::recover`
//!   rebuilds it as if the failed call was never issued.
//! * [`Protocol::Shard`] — the cross-shard scatter protocol of
//!   `ShardRouter`: a scatter that fails on one shard after another
//!   shard acknowledged must wedge the router; every subsequent mutator
//!   returns the wedge error verbatim while readers keep being served
//!   the last published set at a monotone epoch.
//! * [`Protocol::Serve`] — the connection-admission protocol of
//!   `specdr serve`: a cap-`N` [`Gate`] must never
//!   admit `N+1` concurrent holders and must never leak a slot, even on
//!   handler error paths.
//! * [`Protocol::Memo`] — the single-slot memo of
//!   `WarehouseView::virtual_age` (un-synchronized reads): two readers
//!   pinning one version race to fill its slot, for the same day and for
//!   different days, while a writer publishes a successor. Every reader
//!   gets the version aged to *its* day, never a slot computed for
//!   another, and the successor starts with an empty slot.
//!
//! Every protocol has a named *mutation* (see [`MUTATIONS`]): a
//! model-only failpoint that re-introduces the exact bug the protocol
//! exists to prevent (skipping the writer lock, skipping rollback,
//! skipping the wedge, check-then-act admission, answering from the memo
//! without comparing its day). `specdr check
//! --mutate <name>` arms one and must produce a counterexample — this
//! is how we know the harnesses have teeth.
//!
//! Harnesses run entirely on [`MemFs`], so thousands
//! of warehouse instances per second are created and torn down with no
//! disk I/O and no cross-run state.

#![warn(missing_docs)]

use std::path::Path;
use std::sync::Arc;

use sdr_reduce::DataReductionSpec;
use sdr_spec::{parse_action, ActionId};
use sdr_storage::{Fs, MemFs};
use sdr_subcube::{ShardRouter, SubcubeManager, WarehouseOp, WarehouseView};
use sdr_sync::model::{check, ModelOptions};
use sdr_sync::{fail, thread, Gate};
use sdr_workload::{paper_mo, paper_schema, snapshot_days, ACTION_A1, ACTION_A2};

pub use sdr_sync::model::{Counterexample, Report};

// ---- protocols ---------------------------------------------------------

/// One model-checked concurrency protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// `SubcubeManager` epoch publish: single-writer serialization and
    /// torn-view freedom.
    Epoch,
    /// `ShardRouter::apply_batch` on one shard: all-or-nothing batches
    /// and the wedge after a failed WAL append.
    GroupCommit,
    /// `ShardRouter` scatter: divergence wedging and atomic cross-shard
    /// publish.
    Shard,
    /// `specdr serve` admission: connection-cap gate soundness.
    Serve,
    /// `WarehouseView::virtual_age`: the per-version memo of
    /// un-synchronized reads.
    Memo,
}

impl Protocol {
    /// All protocols, in the order `specdr check --protocol all` runs
    /// them.
    pub const ALL: [Protocol; 5] = [
        Protocol::Epoch,
        Protocol::GroupCommit,
        Protocol::Shard,
        Protocol::Serve,
        Protocol::Memo,
    ];

    /// The CLI name of the protocol.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Epoch => "epoch",
            Protocol::GroupCommit => "group-commit",
            Protocol::Shard => "shard",
            Protocol::Serve => "serve",
            Protocol::Memo => "memo",
        }
    }

    /// Parses a CLI protocol name.
    pub fn parse(s: &str) -> Option<Protocol> {
        Protocol::ALL.into_iter().find(|p| p.name() == s)
    }

    /// A one-line statement of the invariant the harness asserts.
    pub fn invariant(self) -> &'static str {
        match self {
            Protocol::Epoch => {
                "readers never observe a torn version; view epochs are \
                 monotone; concurrent publishes are never lost"
            }
            Protocol::GroupCommit => {
                "a failed batch rolls back completely; readers see only \
                 whole batches; a failed WAL append wedges the warehouse \
                 until recover"
            }
            Protocol::Shard => {
                "a failed scatter wedges every mutator until recovery \
                 while readers keep the last published epoch"
            }
            Protocol::Serve => {
                "the connection gate never admits cap+1 and never leaks \
                 a slot, even on error paths"
            }
            Protocol::Memo => {
                "an un-synchronized reader is answered for its own \
                 (version, day), never from a slot filled for another"
            }
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// ---- mutations ---------------------------------------------------------

/// A model-only seeded bug: arming `failpoint` re-introduces a concrete
/// ordering bug that `protocol`'s harness must catch with a
/// counterexample.
#[derive(Debug, Clone, Copy)]
pub struct Mutation {
    /// The CLI name (`specdr check --mutate <name>`).
    pub name: &'static str,
    /// The `sdr_sync::fail` point the mutation arms.
    pub failpoint: &'static str,
    /// The harness that must produce the counterexample.
    pub protocol: Protocol,
    /// The bug the mutation plants.
    pub plants: &'static str,
}

/// Every known mutation. `scripts/ci.sh` runs all of them and fails the
/// build if any harness *misses* its planted bug.
pub const MUTATIONS: [Mutation; 5] = [
    Mutation {
        name: "publish-unlocked",
        failpoint: "mgr.publish-unlocked",
        protocol: Protocol::Epoch,
        plants: "publishes skip the writer lock, so a concurrent load/\
                 publish pair can be lost",
    },
    Mutation {
        name: "skip-rollback",
        failpoint: "durable.skip-rollback",
        protocol: Protocol::GroupCommit,
        plants: "a failed batch leaves its successful prefix applied \
                 instead of rolling back",
    },
    Mutation {
        name: "skip-wedge",
        failpoint: "shard.skip-wedge",
        protocol: Protocol::Shard,
        plants: "a divergent scatter leaves the router unwedged, so \
                 later mutators run on diverged shards",
    },
    Mutation {
        name: "gate-toctou",
        failpoint: "gate-toctou",
        protocol: Protocol::Serve,
        plants: "admission becomes check-then-act, so two connections \
                 can claim the last slot",
    },
    Mutation {
        name: "memo-any-day",
        failpoint: "unsync.memo-any-day",
        protocol: Protocol::Memo,
        plants: "a filled memo slot is returned without comparing its \
                 day, so a reader is answered for another day",
    },
];

/// Looks a mutation up by CLI name.
pub fn mutation(name: &str) -> Option<&'static Mutation> {
    MUTATIONS.iter().find(|m| m.name == name)
}

// ---- options and entry point -------------------------------------------

/// Knobs for one [`run`].
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// Maximum schedules to explore per protocol.
    pub budget: u64,
    /// Preemption bound; `None` uses each harness's own default (the
    /// smallest bound that fully proves the clean harness).
    pub preemptions: Option<usize>,
    /// A failpoint to arm inside the harness (see [`MUTATIONS`]).
    pub mutation: Option<&'static str>,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            budget: 50_000,
            preemptions: None,
            mutation: None,
        }
    }
}

/// The preemption bound that fully explores the clean harness. The
/// serve harness is all short atomic sections, so proving it needs a
/// deeper bound; the warehouse harnesses hold locks across their points
/// and close out earlier.
fn default_preemptions(p: Protocol) -> usize {
    match p {
        Protocol::GroupCommit | Protocol::Shard => 3,
        Protocol::Epoch => 4,
        Protocol::Memo => 5,
        Protocol::Serve => 8,
    }
}

/// Model-checks one protocol. Counts `check.schedules_explored` and
/// `check.prunes` on the obs registry.
pub fn run(protocol: Protocol, opts: &CheckOptions) -> Report {
    let mopts = ModelOptions {
        max_schedules: opts.budget,
        max_preemptions: opts
            .preemptions
            .unwrap_or_else(|| default_preemptions(protocol)),
        max_steps: 50_000,
    };
    let report = match protocol {
        Protocol::Epoch => check_epoch(&mopts, opts.mutation),
        Protocol::GroupCommit => check_group_commit(&mopts, opts.mutation),
        Protocol::Shard => check_shard(&mopts, opts.mutation),
        Protocol::Serve => check_serve(&mopts, opts.mutation),
        Protocol::Memo => check_memo(&mopts, opts.mutation),
    };
    sdr_obs::add("check.schedules_explored", report.schedules);
    sdr_obs::add("check.prunes", report.prunes);
    report
}

// ---- shared fixtures ---------------------------------------------------

/// The paper's specification (actions a1 and a2 over the click-stream
/// schema) — the same fixture the integration suites use.
fn paper_spec() -> DataReductionSpec {
    let (schema, _) = paper_schema();
    let a1 = parse_action(&schema, ACTION_A1).expect("paper action a1");
    let a2 = parse_action(&schema, ACTION_A2).expect("paper action a2");
    DataReductionSpec::new(Arc::clone(&schema), vec![a1, a2]).expect("paper spec")
}

fn arm(mutation: Option<&'static str>) {
    if let Some(fp) = mutation {
        fail::arm(fp, usize::MAX);
    }
}

/// Asserts the internal coherence of one published view: every cube
/// epoch in the version vector is at or behind the view epoch, and the
/// fact count is one of the whole-publish values in `allowed` — any
/// other count is a torn or partially-applied version.
fn assert_view_coherent(v: &WarehouseView, allowed: &[usize]) {
    for (i, &cube_epoch) in v.version_vector().iter().enumerate() {
        assert!(
            cube_epoch <= v.epoch(),
            "cube {i} is from the future: cube epoch {cube_epoch} > view epoch {}",
            v.epoch()
        );
    }
    assert!(
        allowed.contains(&v.len()),
        "reader observed a torn version: {} facts, expected one of {allowed:?}",
        v.len()
    );
}

// ---- epoch publish -----------------------------------------------------

/// Two writers bulk-load disjoint halves of the paper MO while a reader
/// snapshots the published view twice. See [`Protocol::Epoch`].
fn check_epoch(mopts: &ModelOptions, mutation: Option<&'static str>) -> Report {
    let spec = paper_spec();
    let (mo, _) = paper_mo();
    let part_a = mo.gather(&[0, 1, 2, 3]);
    let part_b = mo.gather(&[4, 5, 6]);
    let (na, nb) = (part_a.len(), part_b.len());
    check(mopts, move || {
        arm(mutation);
        let mgr = Arc::new(SubcubeManager::new(spec.clone()));
        let allowed = [0, na, nb, na + nb];
        thread::scope(|s| {
            {
                let mgr = Arc::clone(&mgr);
                let part_a = &part_a;
                s.spawn_named("load-a".into(), move || {
                    mgr.bulk_load(part_a).expect("load a");
                });
            }
            {
                let mgr = Arc::clone(&mgr);
                let part_b = &part_b;
                s.spawn_named("load-b".into(), move || {
                    mgr.bulk_load(part_b).expect("load b");
                });
            }
            {
                let mgr = Arc::clone(&mgr);
                s.spawn_named("reader".into(), move || {
                    let v1 = mgr.view();
                    assert_view_coherent(&v1, &allowed);
                    let v2 = mgr.view();
                    assert!(
                        v2.epoch() >= v1.epoch(),
                        "view epoch went backwards: {} then {}",
                        v1.epoch(),
                        v2.epoch()
                    );
                    assert_view_coherent(&v2, &allowed);
                });
            }
        });
        let v = mgr.view();
        assert_eq!(
            v.len(),
            na + nb,
            "a concurrent publish was lost: {} facts survive of {}",
            v.len(),
            na + nb
        );
        assert_eq!(v.epoch(), 2, "a concurrent publish was lost (epoch)");
    })
}

// ---- group commit ------------------------------------------------------

/// A writer applies a doomed batch (a bulk load followed by a delete of
/// an unknown action id) to a one-shard warehouse and then one
/// successful publish (an empty load) while a reader snapshots the
/// published set; the publish must show the pre-batch facts only. Then
/// an injected WAL append failure must wedge the warehouse until
/// `recover`, which lands on the pre-call state. See
/// [`Protocol::GroupCommit`].
fn check_group_commit(mopts: &ModelOptions, mutation: Option<&'static str>) -> Report {
    let spec = paper_spec();
    let (mo, _) = paper_mo();
    let base = mo.gather(&[0, 1, 2, 3]);
    let extra = mo.gather(&[4, 5, 6]);
    let none = mo.gather(&[]);
    let day = snapshot_days()[0];
    check(mopts, move || {
        arm(mutation);
        let fs: Arc<dyn Fs> = MemFs::shared();
        let dir = Path::new("/w");
        let router = Arc::new(
            ShardRouter::create_with_fs(spec.clone(), dir, 1, Arc::clone(&fs))
                .expect("create warehouse"),
        );
        router.bulk_load(&base).expect("baseline load");
        let pre = router.view_set();
        let (pre_epoch, pre_len, pre_sync) = (pre.epoch(), pre.len(), pre.last_sync());
        thread::scope(|s| {
            {
                let router = Arc::clone(&router);
                s.spawn_named("reader".into(), move || {
                    let v1 = router.view_set();
                    assert!(v1.epoch() >= pre_epoch, "view epoch went backwards");
                    let v2 = router.view_set();
                    assert!(
                        v2.epoch() >= v1.epoch(),
                        "view epoch went backwards: {} then {}",
                        v1.epoch(),
                        v2.epoch()
                    );
                    for v in [v1, v2] {
                        assert_view_coherent(&v.views()[0], &[pre_len]);
                    }
                });
            }
            let batch = vec![
                WarehouseOp::BulkLoad(extra.clone()),
                WarehouseOp::SpecDelete(vec![ActionId(999)], day),
            ];
            router
                .apply_batch(batch)
                .expect_err("a batch deleting an unknown action must fail");
            // A published set is built from the shard's current version,
            // so residue left by a skipped rollback shows from here on.
            router.bulk_load(&none).expect("publish after the batch");
        });
        let post = router.view_set();
        assert_eq!(
            post.len(),
            pre_len,
            "failed batch left residue: rollback did not run"
        );
        assert_eq!(post.last_sync(), pre_sync, "rollback changed last_sync");

        // The wedge: one injected append failure refuses every later
        // mutation and the checkpoint, and only recovery — back to the
        // state before the failed call — lets writes in again
        // (single-threaded tail, so this costs no extra interleavings).
        fail::arm("durable.wal-fail", 1);
        let e = router
            .bulk_load(&extra)
            .expect_err("injected WAL failure must surface");
        assert!(
            e.to_string().contains("injected fault"),
            "unexpected append error: {e}"
        );
        assert!(router.is_broken(), "a failed append must wedge");
        for (what, r) in [
            ("sync", router.sync(day).err()),
            ("checkpoint", router.checkpoint().err()),
        ] {
            let e = r.unwrap_or_else(|| panic!("{what} must be refused when wedged"));
            assert!(e.to_string().contains("wedged"), "{what}: {e}");
        }
        let (back, _) = ShardRouter::recover_with_fs(spec.clone(), dir, fs).expect("recover");
        assert_eq!(back.len(), pre_len, "a failed append survived recovery");
        assert!(!back.is_broken(), "recovery must clear the wedge");
    })
}

// ---- cross-shard scatter -----------------------------------------------

/// A writer performs a clean scatter, then one with a WAL failure
/// injected into shard 0 (shard 1 acknowledges, so the results are
/// mixed and the router must wedge); a reader snapshots the published
/// set throughout. See [`Protocol::Shard`].
fn check_shard(mopts: &ModelOptions, mutation: Option<&'static str>) -> Report {
    let spec = paper_spec();
    let (mo, _) = paper_mo();
    let base = mo.gather(&[0, 1]);
    let good = mo.gather(&[2, 3]);
    let doomed = mo.gather(&[4, 5, 6]);
    let n_good = good.len();
    let day = snapshot_days()[0];
    check(mopts, move || {
        arm(mutation);
        let fs: Arc<dyn Fs> = MemFs::shared();
        let router = Arc::new(
            ShardRouter::create_with_fs(spec.clone(), Path::new("/s"), 2, fs)
                .expect("create router"),
        );
        router.bulk_load(&base).expect("baseline load");
        let v0 = router.view_set();
        let (epoch0, len0) = (v0.epoch(), v0.len());
        let allowed = [len0, len0 + n_good];
        thread::scope(|s| {
            {
                let router = Arc::clone(&router);
                s.spawn_named("reader".into(), move || {
                    let v1 = router.view_set();
                    assert!(v1.epoch() >= epoch0, "router epoch went backwards");
                    assert!(
                        allowed.contains(&v1.len()),
                        "reader observed a torn scatter: {} facts",
                        v1.len()
                    );
                    let v2 = router.view_set();
                    assert!(
                        v2.epoch() >= v1.epoch(),
                        "router epoch went backwards: {} then {}",
                        v1.epoch(),
                        v2.epoch()
                    );
                    assert!(
                        allowed.contains(&v2.len()),
                        "reader observed a torn scatter: {} facts",
                        v2.len()
                    );
                });
            }
            {
                let router = Arc::clone(&router);
                let (good, doomed) = (&good, &doomed);
                s.spawn_named("writer".into(), move || {
                    router.bulk_load(good).expect("clean scatter");
                    // Shard 0 logs first in a scatter; one token fails
                    // exactly its append while shard 1 acknowledges.
                    fail::arm("durable.wal-fail", 1);
                    let e = router
                        .bulk_load(doomed)
                        .expect_err("half-failed scatter must error");
                    assert!(
                        e.to_string().contains("recovery required"),
                        "unexpected scatter error: {e}"
                    );
                    // The wedge contract: every mutator now returns the
                    // wedge error until recovery.
                    for (what, r) in [
                        ("bulk_load", router.bulk_load(good).err()),
                        ("sync", router.sync(day).err()),
                        ("age", router.age(day).err()),
                        ("spec_delete", router.spec_delete(&[ActionId(1)], day).err()),
                    ] {
                        let e = r.unwrap_or_else(|| panic!("{what} must be refused when wedged"));
                        assert!(
                            e.to_string().contains("wedged by a failed write"),
                            "{what} missed the wedge guard: {e}"
                        );
                    }
                    // Readers are still served the last published set.
                    let v = router.view_set();
                    assert_eq!(
                        v.len(),
                        len0 + n_good,
                        "failed scatter leaked partial state into the published set"
                    );
                });
            }
        });
    })
}

// ---- serve admission ---------------------------------------------------

/// Two connections race for a cap-1 admission gate; both exit through
/// the RAII permit drop (the same path a failed handler takes).
/// Occupancy must never exceed the cap and every slot must be returned.
/// See [`Protocol::Serve`].
fn check_serve(mopts: &ModelOptions, mutation: Option<&'static str>) -> Report {
    check(mopts, move || {
        arm(mutation);
        let gate = Arc::new(Gate::new(1));
        thread::scope(|s| {
            for conn in 0..2usize {
                let gate = Arc::clone(&gate);
                s.spawn_named(format!("conn-{conn}"), move || {
                    let Some(_permit) = gate.try_acquire() else {
                        // Rejected: the busy-frame path holds no slot.
                        return;
                    };
                    assert!(gate.in_use() <= 1, "gate admitted past its cap");
                });
            }
        });
        assert_eq!(gate.in_use(), 0, "a connection slot leaked");
    })
}

// ---- un-synchronized read memo -----------------------------------------

/// Every fact of `v`, rendered and sorted.
fn sorted_facts(v: &WarehouseView) -> Vec<String> {
    let mo = v.to_mo().expect("view materializes");
    let mut rows: Vec<String> = mo.facts().map(|f| mo.render_fact(f)).collect();
    rows.sort();
    rows
}

/// Two readers pin the same synchronized version and age it virtually —
/// one to the second snapshot day and then the third, the other to the
/// second only — while a writer publishes a successor. See
/// [`Protocol::Memo`].
fn check_memo(mopts: &ModelOptions, mutation: Option<&'static str>) -> Report {
    let spec = paper_spec();
    let (mo, _) = paper_mo();
    let base = mo.gather(&[0, 1, 2, 3, 4]);
    let extra = mo.gather(&[5, 6]);
    let [synced, day_a, day_b] = snapshot_days();
    // The single-threaded answers: the warehouse really aged to the day.
    let really_aged = |loads: &[&sdr_mdm::Mo], day| {
        let m = SubcubeManager::new(spec.clone());
        m.bulk_load(loads[0]).expect("load");
        m.sync(synced).expect("sync");
        for more in &loads[1..] {
            m.bulk_load(more).expect("load");
        }
        m.age(day).expect("age");
        sorted_facts(&m.view())
    };
    let want_a = really_aged(&[&base], day_a);
    let want_b = really_aged(&[&base], day_b);
    let want_successor = really_aged(&[&base, &extra], day_a);
    check(mopts, move || {
        arm(mutation);
        let mgr = Arc::new(SubcubeManager::new(spec.clone()));
        mgr.bulk_load(&base).expect("baseline load");
        mgr.sync(synced).expect("baseline sync");
        let pinned = mgr.view();
        let read = |view: &WarehouseView, day, want: &Vec<String>| {
            let (aged, _) = view.virtual_age(day).expect("virtual age");
            assert_eq!(
                aged.last_sync(),
                Some(day),
                "reader asked for day {day} and was answered for another"
            );
            assert_eq!(&sorted_facts(&aged), want, "wrong answer for day {day}");
        };
        thread::scope(|s| {
            {
                let (pinned, read) = (pinned.clone(), &read);
                let (want_a, want_b) = (&want_a, &want_b);
                s.spawn_named("reader-ab".into(), move || {
                    read(&pinned, day_a, want_a);
                    read(&pinned, day_b, want_b);
                });
            }
            {
                let (pinned, read, want_a) = (pinned.clone(), &read, &want_a);
                s.spawn_named("reader-a".into(), move || read(&pinned, day_a, want_a));
            }
            {
                let (mgr, extra) = (Arc::clone(&mgr), &extra);
                s.spawn_named("writer".into(), move || {
                    mgr.bulk_load(extra).expect("successor load");
                });
            }
        });
        // Virtual: the readers published nothing, and the successor —
        // whatever its predecessor's slot held — computes for itself.
        assert_eq!(pinned.epoch() + 1, mgr.view().epoch(), "a reader published");
        let fresh = mgr.view();
        let (aged, hit) = fresh.virtual_age(day_a).expect("virtual age");
        assert!(!hit, "the successor inherited a memo slot");
        assert_eq!(sorted_facts(&aged), want_successor);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> CheckOptions {
        CheckOptions {
            budget: 200_000,
            ..CheckOptions::default()
        }
    }

    #[test]
    fn serve_is_proved_clean() {
        let r = run(Protocol::Serve, &quick());
        assert!(r.counterexample.is_none(), "{:?}", r.counterexample);
        assert!(r.complete, "serve harness must be fully explored");
        assert!(r.nondeterminism.is_none());
    }

    #[test]
    fn epoch_is_proved_clean() {
        let r = run(Protocol::Epoch, &quick());
        assert!(r.counterexample.is_none(), "{:?}", r.counterexample);
        assert!(r.complete, "epoch harness must be fully explored");
        assert!(r.nondeterminism.is_none());
    }

    #[test]
    fn group_commit_is_proved_clean() {
        let r = run(Protocol::GroupCommit, &quick());
        assert!(r.counterexample.is_none(), "{:?}", r.counterexample);
        assert!(r.complete, "group-commit harness must be fully explored");
        assert!(r.nondeterminism.is_none());
    }

    #[test]
    fn shard_is_proved_clean() {
        let r = run(Protocol::Shard, &quick());
        assert!(r.counterexample.is_none(), "{:?}", r.counterexample);
        assert!(r.complete, "shard harness must be fully explored");
        assert!(r.nondeterminism.is_none());
    }

    #[test]
    fn memo_is_proved_clean() {
        let r = run(Protocol::Memo, &quick());
        assert!(r.counterexample.is_none(), "{:?}", r.counterexample);
        assert!(r.complete, "memo harness must be fully explored");
        assert!(r.nondeterminism.is_none());
    }

    #[test]
    fn every_mutation_is_caught() {
        for m in MUTATIONS {
            let opts = CheckOptions {
                mutation: Some(m.failpoint),
                ..quick()
            };
            let r = run(m.protocol, &opts);
            let ce = r.counterexample.unwrap_or_else(|| {
                panic!("mutation `{}` was not caught by `{}`", m.name, m.protocol)
            });
            assert!(
                !ce.schedule.is_empty(),
                "counterexample for `{}` has no schedule",
                m.name
            );
        }
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = run(Protocol::Serve, &quick());
        let b = run(Protocol::Serve, &quick());
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.prunes, b.prunes);
    }

    #[test]
    fn protocol_names_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::parse(p.name()), Some(p));
        }
        assert_eq!(Protocol::parse("nope"), None);
        for m in MUTATIONS {
            assert_eq!(mutation(m.name).map(|x| x.failpoint), Some(m.failpoint));
        }
    }
}
