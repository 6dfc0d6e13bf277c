//! The lint engine: per-action analysis cache plus the rule passes
//! L001–L007.
//!
//! Analysis (parse → DNF → step-day enumeration → grounding at each step
//! day) is cached **per action**, so `insert`/`delete` (the paper's
//! Definition 3–4 spec evolution) re-lints incrementally: only the new
//! action's day-scan runs, and the cross-action rules recombine cached
//! groundings with cheap region algebra. Because every `NOW`-affine bound
//! is a staircase function of `t`, a disjunct's grounding is piecewise
//! constant between its step days — `ActionAnalysis::region_at` answers
//! "the region at day `t`" for *any* `t` by binary search, which is what
//! keeps the O(|A|²) NonCrossing pass free of per-pair day scans.
//!
//! L004 and L005 do not decide anything themselves: they render the
//! witnesses of `sdr-reduce`'s [`crossings`] and [`escapes`] — the
//! decisions `DataReductionSpec` gates on — so a clean lint and an
//! accepted specification are one verdict.

use std::sync::Arc;

use sdr_mdm::{DayNum, DimValue, Dimension, Schema, TimeValue};
use sdr_prover::{implies_union, GroundSet, Region};
use sdr_reduce::{crossings, escapes, ActionAnalysis};
use sdr_spec::{
    ground_conj, parse_action_raw, split_actions, ActionSpec, AtomKind, CmpOp, Conj, SpecError,
    SrcSpan,
};

use crate::diag::{Code, Diagnostic, Level, Severity, ALL_RULES};

/// Lint configuration: the evaluation day for L006, per-rule level
/// overrides, and the `--deny warnings` switch.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// The `--now` evaluation day; L006 is skipped when absent.
    pub now: Option<DayNum>,
    /// Per-rule level overrides (`--allow/--warn/--deny CODE`); later
    /// entries win.
    pub overrides: Vec<(Code, Level)>,
    /// Promote every warning to an error (`--deny warnings`).
    pub deny_warnings: bool,
}

impl LintConfig {
    /// Appends a level override (later overrides win).
    pub fn set_level(&mut self, code: Code, level: Level) {
        self.overrides.push((code, level));
    }

    /// The effective severity for `code`; `None` means suppressed.
    /// Parse errors are always errors.
    pub fn severity(&self, code: Code) -> Option<Severity> {
        if code == Code::Parse {
            return Some(Severity::Error);
        }
        let level = self
            .overrides
            .iter()
            .rev()
            .find(|(c, _)| *c == code)
            .map(|(_, l)| *l)
            .unwrap_or_else(|| code.default_level());
        match level {
            Level::Allow => None,
            Level::Deny => Some(Severity::Error),
            Level::Warn if self.deny_warnings => Some(Severity::Error),
            Level::Warn => Some(Severity::Warning),
        }
    }
}

/// The cached analysis of one successfully parsed action: the shared
/// span-free [`ActionAnalysis`] core (what a `DataReductionSpec` holds
/// per action) plus the source spans lint diagnostics anchor to. All
/// spans are relative to the action's own source segment.
#[derive(Debug, Clone)]
pub struct AnalyzedAction {
    /// The parsed action (spans segment-relative).
    pub spec: ActionSpec,
    /// The span-free analysis core (DNF, step days, groundings).
    core: ActionAnalysis,
    /// Source span of each disjunct (join of its atoms' spans).
    conj_spans: Vec<SrcSpan>,
}

impl AnalyzedAction {
    fn build(schema: &Schema, spec: ActionSpec) -> Result<AnalyzedAction, SpecError> {
        let core = ActionAnalysis::build(schema, &spec.pred)?;
        let conj_spans = core
            .dnf()
            .iter()
            .map(|conj| {
                let span = conj.iter().fold(SrcSpan::DUMMY, |acc, a| acc.join(a.span));
                if span.is_dummy() {
                    spec.pred_span
                } else {
                    span
                }
            })
            .collect();
        Ok(AnalyzedAction {
            spec,
            core,
            conj_spans,
        })
    }
}

/// One action held by the [`Linter`]: its source text, current offset in
/// the canonical layout, and the analysis (or the parse diagnostic that
/// prevented it, spans segment-relative).
#[derive(Debug, Clone)]
struct CachedAction {
    text: String,
    offset: usize,
    analysis: Result<AnalyzedAction, Diagnostic>,
}

/// The incremental linter: a set of actions with cached per-action
/// analyses. `insert`/`delete` mirror the paper's spec-evolution
/// operators; [`Linter::diagnostics`] re-runs only the cheap rule passes
/// over cached groundings.
#[derive(Debug, Clone)]
pub struct Linter {
    schema: Arc<Schema>,
    cfg: LintConfig,
    actions: Vec<CachedAction>,
}

/// Lints a whole source text (the one-shot entry point): every `;`-separated
/// action is parsed and analyzed, then all rules run. Spans in the
/// returned diagnostics are file-absolute byte offsets into `src`.
pub fn lint_source(schema: &Arc<Schema>, src: &str, cfg: &LintConfig) -> Vec<Diagnostic> {
    let mut l = Linter::new(schema.clone(), cfg.clone());
    for (off, seg) in split_actions(src) {
        l.insert_at(seg, off);
    }
    l.diagnostics()
}

impl Linter {
    /// Creates an empty linter.
    pub fn new(schema: Arc<Schema>, cfg: LintConfig) -> Linter {
        Linter {
            schema,
            cfg,
            actions: Vec::new(),
        }
    }

    /// Number of actions currently held (parsed or not).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no actions are held.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The canonical source layout: action texts joined with `";\n"`.
    /// [`lint_source`] over this text reproduces exactly
    /// [`Linter::diagnostics`] — the incremental ⇔ batch equivalence.
    pub fn source(&self) -> String {
        self.actions
            .iter()
            .map(|a| a.text.as_str())
            .collect::<Vec<_>>()
            .join(";\n")
    }

    /// Inserts one action (Definition 3's `insert`, without the soundness
    /// gate — lint reports violations instead of rejecting). Only the new
    /// action is parsed and day-scanned; everything else stays cached.
    pub fn insert(&mut self, text: &str) {
        let offset = self
            .actions
            .last()
            .map(|a| a.offset + a.text.len() + 2)
            .unwrap_or(0);
        self.insert_at(text, offset);
    }

    /// Inserts with an explicit file offset (the batch path, where the
    /// original source layout must be preserved).
    fn insert_at(&mut self, text: &str, offset: usize) {
        let _t = sdr_obs::span("lint.analyze_action");
        let analysis = parse_action_raw(&self.schema, text)
            .and_then(|spec| AnalyzedAction::build(&self.schema, spec))
            .map_err(|e| parse_diagnostic(&e));
        self.actions.push(CachedAction {
            text: text.to_string(),
            offset,
            analysis,
        });
    }

    /// Deletes the `index`-th action (Definition 4's `delete`, again
    /// without the gate) and re-bases the offsets of the actions after
    /// it. Returns false when out of range.
    pub fn delete(&mut self, index: usize) -> bool {
        if index >= self.actions.len() {
            return false;
        }
        self.actions.remove(index);
        let mut off = 0;
        for a in &mut self.actions {
            a.offset = off;
            off += a.text.len() + 2;
        }
        true
    }

    /// The parsed actions with their indexes and offsets.
    fn analyzed(&self) -> Vec<(usize, usize, &AnalyzedAction)> {
        self.actions
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.analysis.as_ref().ok().map(|a| (i, c.offset, a)))
            .collect()
    }

    /// Runs every rule over the cached analyses and returns the findings,
    /// file-absolute and sorted by position. Each rule pass is timed into
    /// the `lint.rule.<code>` histogram; `lint.rules_run` counts passes
    /// and `lint.findings.<code>` counts findings.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out: Vec<Diagnostic> = Vec::new();
        // Parse failures (cached at insert).
        for c in &self.actions {
            if let Err(d) = &c.analysis {
                out.push(d.clone().shifted(c.offset));
            }
        }
        for code in ALL_RULES {
            let _t = sdr_obs::span(&format!("lint.rule.{code}"));
            sdr_obs::inc("lint.rules_run");
            let found = match code {
                Code::L001 => self.rule_l001(),
                Code::L002 => self.rule_l002(),
                Code::L003 => self.rule_l003(),
                Code::L004 => self.rule_l004(),
                Code::L005 => self.rule_l005(),
                Code::L006 => self.rule_l006(),
                Code::L007 => self.rule_l007(),
                Code::Parse => unreachable!("not a semantic rule"),
                Code::C001 => unreachable!("emitted by `specdr check`, not the spec engine"),
            };
            for _ in &found {
                sdr_obs::inc(&format!("lint.findings.{code}"));
            }
            out.extend(found.into_iter().filter_map(|d| self.apply_severity(d)));
        }
        out.sort_by_key(|d| (d.primary.map(|s| s.start).unwrap_or(0), d.code));
        out
    }

    /// Applies the configured level: re-severity or drop (`allow`).
    fn apply_severity(&self, mut d: Diagnostic) -> Option<Diagnostic> {
        let sev = self.cfg.severity(d.code)?;
        d.severity = sev;
        Some(d)
    }

    /// The parsed actions as the `sdr-reduce` decisions take them.
    fn cores<'a>(
        acts: &[(usize, usize, &'a AnalyzedAction)],
    ) -> Vec<(&'a ActionSpec, &'a ActionAnalysis)> {
        acts.iter().map(|(_, _, a)| (&a.spec, &a.core)).collect()
    }

    /// L001 — unsatisfiable predicate: empty grounding in every disjunct
    /// at every step day.
    fn rule_l001(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, off, a) in self.analyzed() {
            if !a.core.is_unsatisfiable() {
                continue;
            }
            let (from, to) = a.core.horizon();
            out.push(
                Diagnostic::new(
                    Code::L001,
                    Severity::Warning,
                    "predicate is unsatisfiable: it selects no cell at any time",
                )
                .with_primary(
                    a.spec.pred_span.shifted(off),
                    "this predicate never selects a cell",
                )
                .with_note(format!(
                    "checked at every step day over the horizon {}..{}",
                    TimeValue::Day(from).render(),
                    TimeValue::Day(to).render()
                ))
                .with_note(Code::L001.explanation().to_string()),
            );
        }
        out
    }

    /// L002 — dead action: every cell it ever selects is selected by an
    /// action aggregating at least as coarsely (so the reduction outcome
    /// is unchanged without it). Ties on equal granularity go to the
    /// earlier action, so mutual shadows report only the later one.
    fn rule_l002(&self) -> Vec<Diagnostic> {
        let acts = self.analyzed();
        let mut out = Vec::new();
        for &(i, off_i, a) in &acts {
            if a.core.is_unsatisfiable() {
                continue; // already L001
            }
            let shadowers: Vec<&(usize, usize, &AnalyzedAction)> = acts
                .iter()
                .filter(|(j, _, b)| {
                    *j != i && a.spec.leq_v(&b.spec, &self.schema) && {
                        // Equal grains shadow only forward (earlier wins).
                        !b.spec.leq_v(&a.spec, &self.schema) || *j < i
                    }
                })
                .collect();
            if shadowers.is_empty() {
                continue;
            }
            let mut days: Vec<DayNum> = a.core.all_steps();
            for (_, _, b) in &shadowers {
                days.extend(b.core.all_steps());
            }
            days.sort_unstable();
            days.dedup();
            let covered = days.iter().all(|&t| {
                let cover: Vec<Region> = shadowers
                    .iter()
                    .flat_map(|(_, _, b)| b.core.regions_at(t).into_iter().cloned())
                    .collect();
                a.core
                    .regions_at(t)
                    .iter()
                    .all(|r| implies_union(r, &cover))
            });
            if !covered {
                continue;
            }
            let mut d = Diagnostic::new(
                Code::L002,
                Severity::Warning,
                format!(
                    "action {} is dead: every cell it selects is covered by an action \
                     aggregating at least as coarsely",
                    i + 1
                ),
            )
            .with_primary(
                a.spec.span.shifted(off_i),
                "this action never has an effect",
            );
            for (j, off_j, b) in &shadowers {
                d = d.with_label(
                    b.spec.grain_span.shifted(*off_j),
                    format!(
                        "action {} covers it at this (or coarser) granularity",
                        j + 1
                    ),
                );
            }
            out.push(d.with_note(Code::L002.explanation().to_string()));
        }
        out
    }

    /// L003 — redundant disjunct (other disjuncts already cover it) or
    /// redundant atom (dropping it never changes the region). Suggestions
    /// are attached only when the spans are replaceable without touching
    /// another atom (chained comparisons share source text).
    fn rule_l003(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, off, a) in self.analyzed() {
            let core = &a.core;
            if core.is_unsatisfiable() {
                continue; // already L001
            }
            let days = core.all_steps();
            // Disjunct redundancy: maintain the active set so mutually
            // redundant disjuncts are not all removed.
            let n = core.n_conjs();
            let mut active: Vec<bool> = vec![true; n];
            if n > 1 {
                let disjoint_spans = pairwise_disjoint(&a.conj_spans);
                for i in 0..n {
                    let covered = days.iter().all(|&t| {
                        let cover: Vec<Region> = (0..n)
                            .filter(|j| *j != i && active[*j])
                            .flat_map(|j| core.region_at(j, t).iter().cloned())
                            .collect();
                        core.region_at(i, t)
                            .iter()
                            .all(|r| implies_union(r, &cover))
                    });
                    if !covered {
                        continue;
                    }
                    active[i] = false;
                    let span = a.conj_spans[i].shifted(off);
                    let mut d = Diagnostic::new(
                        Code::L003,
                        Severity::Warning,
                        "redundant disjunct: the other disjuncts already select every cell it selects",
                    )
                    .with_primary(span, "removing this disjunct changes nothing")
                    .with_note(Code::L003.explanation().to_string());
                    if disjoint_spans {
                        d = d.with_suggestion(span, "false", "the disjunct is subsumed");
                    }
                    out.push(d);
                }
            }
            // Atom redundancy within each remaining disjunct.
            for (ci, conj) in core.dnf().iter().enumerate() {
                if !active[ci] || conj.len() < 2 {
                    continue;
                }
                for (ai, atom) in conj.iter().enumerate() {
                    let without: Conj = conj
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| *k != ai)
                        .map(|(_, x)| x.clone())
                        .collect();
                    let redundant = days.iter().all(|&t| {
                        let with = core.region_at(ci, t);
                        let Ok(wo) = ground_conj(&self.schema, &without, t) else {
                            return false;
                        };
                        regions_equal(with, &ActionAnalysis::concretize(&self.schema, &wo))
                    });
                    if !redundant {
                        continue;
                    }
                    let span = atom.span.shifted(off);
                    let replaceable = conj
                        .iter()
                        .enumerate()
                        .all(|(k, other)| k == ai || !spans_overlap(atom.span, other.span));
                    let mut d = Diagnostic::new(
                        Code::L003,
                        Severity::Warning,
                        "redundant atom: removing it leaves the selected region unchanged",
                    )
                    .with_primary(span, "this constraint never excludes a cell")
                    .with_note(Code::L003.explanation().to_string());
                    if replaceable {
                        d = d.with_suggestion(
                            span,
                            "true",
                            "the atom is implied by the rest of the conjunction",
                        );
                    }
                    out.push(d);
                }
            }
        }
        out
    }

    /// L004 — NonCrossing violation: renders each [`crossings`] witness
    /// — the pair, the day, one shared cell, and a timeline of the two
    /// time windows.
    fn rule_l004(&self) -> Vec<Diagnostic> {
        let acts = self.analyzed();
        let cores = Self::cores(&acts);
        crossings(&self.schema, &cores)
            .map(|c| {
                let ((i, off_i, a), (j, off_j, b)) = (acts[c.pair.0], acts[c.pair.1]);
                let (ra, rb) = &c.regions;
                let inter = ra.intersect(rb);
                let mut d = Diagnostic::new(
                    Code::L004,
                    Severity::Error,
                    format!(
                        "NonCrossing violation: actions {} and {} have incomparable \
                         target granularities but select a common cell",
                        i + 1,
                        j + 1
                    ),
                )
                .with_primary(
                    a.spec.grain_span.shifted(off_i),
                    format!("action {} aggregates to this granularity", i + 1),
                )
                .with_label(
                    b.spec.grain_span.shifted(off_j),
                    format!(
                        "action {} aggregates to this incomparable granularity",
                        j + 1
                    ),
                )
                .with_note(format!(
                    "counterexample: on {} both actions select the cell {}",
                    TimeValue::Day(c.day).render(),
                    self.render_cell(&inter)
                ));
                let (from, to) = a.core.horizon();
                for line in timeline(from, to, ra, rb, &inter, &self.schema) {
                    d = d.with_note(line);
                }
                d.with_note(Code::L004.explanation().to_string())
            })
            .collect()
    }

    /// L005 — Growing violation: renders each [`escapes`] witness — the
    /// moving bound, one dropped cell and the day it escapes.
    fn rule_l005(&self) -> Vec<Diagnostic> {
        let acts = self.analyzed();
        let cores = Self::cores(&acts);
        escapes(&self.schema, &cores)
            .map(|e| {
                let (i, off_i, a) = acts[e.action];
                let span = shrinking_atom_span(&self.schema, &a.core.dnf()[e.conj])
                    .unwrap_or(a.conj_spans[e.conj])
                    .shifted(off_i);
                Diagnostic::new(
                    Code::L005,
                    Severity::Error,
                    format!(
                        "Growing violation: action {} drops a cell that no action catches",
                        i + 1
                    ),
                )
                .with_primary(
                    span,
                    "this moving lower bound pushes cells out of the predicate",
                )
                .with_note(format!(
                    "counterexample: the cell {} leaves the predicate on {} \
                     and no action aggregating at least as high selects it then",
                    self.render_cell(&e.residue),
                    TimeValue::Day(e.day).render()
                ))
                .with_note(
                    "already-aggregated facts cannot be un-aggregated; the \
                     paper's Figure 2 illustrates this violation"
                        .to_string(),
                )
                .with_note(Code::L005.explanation().to_string())
            })
            .collect()
    }

    /// L006 — never fires again: a time-dynamic action whose selected set
    /// is empty from `--now` onward but was non-empty earlier.
    fn rule_l006(&self) -> Vec<Diagnostic> {
        let Some(now) = self.cfg.now else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (_, off, a) in self.analyzed() {
            let core = &a.core;
            if !core.is_dynamic() || core.is_unsatisfiable() {
                continue;
            }
            // Non-empty somewhere before now…
            let mut last_alive: Option<DayNum> = None;
            for ci in 0..core.n_conjs() {
                for &s in core.steps(ci) {
                    if s < now && !core.region_at(ci, s).is_empty() {
                        last_alive = Some(last_alive.map_or(s, |x: DayNum| x.max(s)));
                    }
                }
            }
            let Some(last_alive) = last_alive else {
                continue;
            };
            // …and empty at now and at every later step day.
            let future_days: Vec<DayNum> = std::iter::once(now)
                .chain(core.all_steps().into_iter().filter(|&s| s > now))
                .collect();
            let dead = future_days
                .iter()
                .all(|&t| (0..core.n_conjs()).all(|d| core.region_at(d, t).is_empty()));
            if !dead {
                continue;
            }
            let span = core
                .dnf()
                .iter()
                .find_map(|c| shrinking_atom_span(&self.schema, c))
                .unwrap_or(a.spec.pred_span)
                .shifted(off);
            out.push(
                Diagnostic::new(
                    Code::L006,
                    Severity::Warning,
                    "action never fires again: its firing window has passed",
                )
                .with_primary(span, "this bound has moved past every selectable cell")
                .with_note(format!(
                    "relative to --now = {}: the predicate last selected cells around {} \
                     and is empty from then on",
                    TimeValue::Day(now).render(),
                    TimeValue::Day(last_alive).render()
                ))
                .with_note(Code::L006.explanation().to_string()),
            );
        }
        out
    }

    /// L007 — granularity mismatch: surfaces `ActionSpec::validate`'s
    /// `PredicateBelowTarget` (Section 4.1) as a span-anchored diagnostic.
    fn rule_l007(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, off, a) in self.analyzed() {
            let Err(e) = a.spec.validate(&self.schema) else {
                continue;
            };
            let SpecError::PredicateBelowTarget {
                dim,
                pred_cat,
                target_cat,
                span,
            } = e
            else {
                continue; // other validate errors surface at parse time
            };
            out.push(
                Diagnostic::new(
                    Code::L007,
                    Severity::Error,
                    format!(
                        "granularity mismatch: the predicate tests {dim}.{pred_cat} but the \
                         action only retains {dim}.{target_cat}"
                    ),
                )
                .with_primary(
                    span.shifted(off),
                    format!("this atom needs {dim}.{pred_cat} values"),
                )
                .with_label(
                    a.spec.grain_span.shifted(off),
                    format!("…but the target granularity here keeps only {dim}.{target_cat}"),
                )
                .with_note(Code::L007.explanation().to_string()),
            );
        }
        out
    }

    /// Renders a sample cell of `region` (one bottom-level value id per
    /// dimension) as `(1999/12/4, cnn.com)`, or `?` when it has none.
    fn render_cell(&self, region: &Region) -> String {
        let Some(cell) = region.sample_cell() else {
            return "?".into();
        };
        let parts: Vec<String> = cell
            .iter()
            .zip(&self.schema.dims)
            .map(|(&v, d)| match d {
                Dimension::Time(_) => TimeValue::Day(v as DayNum).render(),
                Dimension::Enum(e) => e
                    .label(DimValue::new(e.graph().bottom(), v as u64))
                    .to_string(),
            })
            .collect();
        format!("({})", parts.join(", "))
    }
}

/// The span of the first shrinking atom of a conjunction: a time
/// comparison whose (negation-adjusted) operator keeps a dynamic *lower*
/// bound, or a dynamic membership.
fn shrinking_atom_span(schema: &Schema, conj: &Conj) -> Option<SrcSpan> {
    conj.iter()
        .find(|atom| {
            if !schema.dim(atom.dim).is_time() {
                return false;
            }
            match &atom.kind {
                AtomKind::Cmp { op, term } => {
                    let op = if atom.negated { op.negate() } else { *op };
                    term.is_dynamic() && matches!(op, CmpOp::Gt | CmpOp::Ge | CmpOp::Eq | CmpOp::Ne)
                }
                AtomKind::In { terms } => terms.iter().any(sdr_spec::Term::is_dynamic),
            }
        })
        .map(|a| a.span)
}

/// Exact equality of two region unions (mutual coverage).
fn regions_equal(a: &[Region], b: &[Region]) -> bool {
    a.iter().all(|r| implies_union(r, b)) && b.iter().all(|r| implies_union(r, a))
}

fn spans_overlap(a: SrcSpan, b: SrcSpan) -> bool {
    a.start < b.end && b.start < a.end
}

/// True when no two spans overlap (so each can be replaced independently).
fn pairwise_disjoint(spans: &[SrcSpan]) -> bool {
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[i + 1..] {
            if spans_overlap(*a, *b) {
                return false;
            }
        }
    }
    true
}

/// Renders the NonCrossing counterexample timeline: the two overlapping
/// regions' time windows and their intersection, as proportional ASCII
/// bars over the horizon.
fn timeline(
    from: DayNum,
    to: DayNum,
    a: &Region,
    b: &Region,
    inter: &Region,
    schema: &Schema,
) -> Vec<String> {
    let Some(ti) = schema.dims.iter().position(Dimension::is_time) else {
        return Vec::new();
    };
    let iv = |r: &Region| match &r.dims[ti] {
        GroundSet::Interval(i) => Some(*i),
        _ => None,
    };
    let (Some(ia), Some(ib), Some(ix)) = (iv(a), iv(b), iv(inter)) else {
        return Vec::new();
    };
    const W: usize = 40;
    let total = (to - from).max(1) as i64;
    let bar = |i: sdr_prover::DayInterval| -> String {
        let mut s = vec![b'.'; W];
        if !i.is_empty() {
            let lo = ((i.lo - from as i64).clamp(0, total) * (W as i64 - 1) / total) as usize;
            let hi = ((i.hi - from as i64).clamp(0, total) * (W as i64 - 1) / total) as usize;
            for c in &mut s[lo..=hi] {
                *c = b'#';
            }
        }
        String::from_utf8(s).unwrap()
    };
    let label = |i: sdr_prover::DayInterval| -> String {
        if i.is_empty() {
            "(empty)".into()
        } else {
            format!(
                "{}..{}",
                TimeValue::Day(i.lo as DayNum).render(),
                TimeValue::Day(i.hi as DayNum).render()
            )
        }
    };
    vec![
        format!(
            "timeline over {}..{}:",
            TimeValue::Day(from).render(),
            TimeValue::Day(to).render()
        ),
        format!("  first   [{}] {}", bar(ia), label(ia)),
        format!("  second  [{}] {}", bar(ib), label(ib)),
        format!("  overlap [{}] {}", bar(ix), label(ix)),
    ]
}

/// Converts a parse-stage [`SpecError`] into a `parse` diagnostic.
fn parse_diagnostic(e: &SpecError) -> Diagnostic {
    let msg = match e {
        SpecError::Parse { msg, .. } => msg.clone(),
        SpecError::Resolve { err, .. } => err.to_string(),
        other => other.to_string(),
    };
    let mut d = Diagnostic::new(Code::Parse, Severity::Error, msg);
    if let Some(span) = e.span() {
        d = d.with_primary(span, "here");
    }
    d
}
