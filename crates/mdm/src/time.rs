//! The calendar `Time` dimension with its parallel hierarchy.
//!
//! Category types: `day <_T week <_T ⊤` and
//! `day <_T month <_T quarter <_T year <_T ⊤` (Equation 2 of the paper) —
//! a *non-linear* hierarchy. Values are computed from the calendar rather
//! than stored, so containment, roll-up, and drill-down work for any date
//! in the dimension's horizon at O(1)–O(range) cost.

use crate::calendar::{
    add_months, add_years, civil_from_days, days_from_civil, days_in_month, iso_week_of,
    iso_week_start, iso_weeks_in_year, DayNum,
};
use crate::category::{CatGraph, CatId};
use crate::error::MdmError;

/// Stable indices of the six time categories inside [`TimeDimension`]'s
/// category graph. These are constants so hot paths avoid name lookups.
pub mod cat {
    use crate::category::CatId;
    /// `day` — the bottom category `⊥_Time`.
    pub const DAY: CatId = CatId(0);
    /// `week` — ISO-8601 weeks, the parallel branch.
    pub const WEEK: CatId = CatId(1);
    /// `month` — calendar months.
    pub const MONTH: CatId = CatId(2);
    /// `quarter` — calendar quarters.
    pub const QUARTER: CatId = CatId(3);
    /// `year` — calendar years.
    pub const YEAR: CatId = CatId(4);
    /// `⊤_Time` — the single-value top category.
    pub const TOP: CatId = CatId(5);
}

/// A value of the Time dimension, at one of the six category types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeValue {
    /// A single day.
    Day(DayNum),
    /// An ISO week, identified by its ISO year and week number (1-based).
    Week {
        /// ISO year (can differ from the calendar year at boundaries).
        iso_year: i32,
        /// ISO week number, `1..=52` or `1..=53`.
        week: u32,
    },
    /// A calendar month (`month` is 1-based).
    Month {
        /// Calendar year.
        year: i32,
        /// Month number `1..=12`.
        month: u32,
    },
    /// A calendar quarter (`quarter` in `1..=4`).
    Quarter {
        /// Calendar year.
        year: i32,
        /// Quarter number `1..=4`.
        quarter: u32,
    },
    /// A calendar year.
    Year(i32),
    /// The single `⊤` value covering the whole dimension.
    Top,
}

impl TimeValue {
    /// The category type this value belongs to.
    #[inline]
    pub fn category(self) -> CatId {
        match self {
            TimeValue::Day(_) => cat::DAY,
            TimeValue::Week { .. } => cat::WEEK,
            TimeValue::Month { .. } => cat::MONTH,
            TimeValue::Quarter { .. } => cat::QUARTER,
            TimeValue::Year(_) => cat::YEAR,
            TimeValue::Top => cat::TOP,
        }
    }

    /// First day covered by this value (`None` for `⊤`, whose extent is the
    /// dimension horizon).
    #[inline]
    pub fn start_day(self) -> Option<DayNum> {
        Some(match self {
            TimeValue::Day(d) => d,
            TimeValue::Week { iso_year, week } => iso_week_start(iso_year, week),
            TimeValue::Month { year, month } => days_from_civil(year, month, 1),
            TimeValue::Quarter { year, quarter } => days_from_civil(year, (quarter - 1) * 3 + 1, 1),
            TimeValue::Year(y) => days_from_civil(y, 1, 1),
            TimeValue::Top => return None,
        })
    }

    /// Last day covered by this value (inclusive; `None` for `⊤`).
    #[inline]
    pub fn end_day(self) -> Option<DayNum> {
        Some(match self {
            TimeValue::Day(d) => d,
            TimeValue::Week { iso_year, week } => iso_week_start(iso_year, week) + 6,
            TimeValue::Month { year, month } => {
                days_from_civil(year, month, days_in_month(year, month))
            }
            TimeValue::Quarter { year, quarter } => {
                let m = quarter * 3;
                days_from_civil(year, m, days_in_month(year, m))
            }
            TimeValue::Year(y) => days_from_civil(y, 12, 31),
            TimeValue::Top => return None,
        })
    }

    /// Packs the value into a `u64` code for columnar storage. The category
    /// is stored separately; codes order-preserve within a category.
    #[inline]
    pub fn code(self) -> u64 {
        const BIAS: i64 = 1 << 40;
        let v: i64 = match self {
            TimeValue::Day(d) => d as i64,
            TimeValue::Week { iso_year, week } => iso_year as i64 * 64 + week as i64,
            TimeValue::Month { year, month } => year as i64 * 16 + month as i64,
            TimeValue::Quarter { year, quarter } => year as i64 * 8 + quarter as i64,
            TimeValue::Year(y) => y as i64,
            TimeValue::Top => 0,
        };
        (v + BIAS) as u64
    }

    /// Inverse of [`TimeValue::code`] given the category.
    #[inline]
    pub fn from_code(category: CatId, code: u64) -> Result<Self, MdmError> {
        const BIAS: i64 = 1 << 40;
        let v = code as i64 - BIAS;
        Ok(match category {
            cat::DAY => TimeValue::Day(v as DayNum),
            cat::WEEK => TimeValue::Week {
                iso_year: v.div_euclid(64) as i32,
                week: v.rem_euclid(64) as u32,
            },
            cat::MONTH => TimeValue::Month {
                year: v.div_euclid(16) as i32,
                month: v.rem_euclid(16) as u32,
            },
            cat::QUARTER => TimeValue::Quarter {
                year: v.div_euclid(8) as i32,
                quarter: v.rem_euclid(8) as u32,
            },
            cat::YEAR => TimeValue::Year(v as i32),
            cat::TOP => TimeValue::Top,
            other => return Err(MdmError::UnknownCategory(format!("time category {other}"))),
        })
    }

    /// Rolls this value up to `target`, which must satisfy
    /// `category(self) ≤_Time target`.
    ///
    /// # Errors
    /// [`MdmError::NotComparable`] when the roll-up path does not exist
    /// (e.g. `week → month`: weeks straddle months).
    #[inline]
    pub fn rollup(self, target: CatId) -> Result<TimeValue, MdmError> {
        if target == self.category() {
            return Ok(self);
        }
        if target == cat::TOP {
            return Ok(TimeValue::Top);
        }
        let d = match self {
            TimeValue::Day(d) => d,
            TimeValue::Month { year, month } => match target {
                cat::QUARTER => {
                    return Ok(TimeValue::Quarter {
                        year,
                        quarter: (month - 1) / 3 + 1,
                    })
                }
                cat::YEAR => return Ok(TimeValue::Year(year)),
                _ => return Err(MdmError::NotComparable("month".into(), format!("{target}"))),
            },
            TimeValue::Quarter { year, .. } => match target {
                cat::YEAR => return Ok(TimeValue::Year(year)),
                _ => {
                    return Err(MdmError::NotComparable(
                        "quarter".into(),
                        format!("{target}"),
                    ))
                }
            },
            TimeValue::Week { .. } | TimeValue::Year(_) | TimeValue::Top => {
                return Err(MdmError::NotComparable(
                    format!("{:?}", self.category()),
                    format!("{target}"),
                ))
            }
        };
        // From a day, every category is reachable.
        let (y, m, _) = civil_from_days(d);
        Ok(match target {
            cat::WEEK => {
                let (iso_year, week) = iso_week_of(d);
                TimeValue::Week { iso_year, week }
            }
            cat::MONTH => TimeValue::Month { year: y, month: m },
            cat::QUARTER => TimeValue::Quarter {
                year: y,
                quarter: (m - 1) / 3 + 1,
            },
            cat::YEAR => TimeValue::Year(y),
            other => return Err(MdmError::UnknownCategory(format!("time category {other}"))),
        })
    }

    /// Containment `self ≤_D other`: true when `other` (at a coarser or
    /// equal category on a common path) contains this value.
    pub fn contained_in(self, other: TimeValue) -> bool {
        if other == TimeValue::Top {
            return true;
        }
        match self.rollup(other.category()) {
            Ok(up) => up == other,
            Err(_) => false,
        }
    }

    /// Renders the value in the paper's notation (see the `Display`
    /// impl).
    pub fn render(self) -> String {
        self.to_string()
    }

    /// Parses the paper's notation for a value of category `category`.
    pub fn parse(category: CatId, s: &str) -> Result<Self, MdmError> {
        let bad = || MdmError::ValueParse(format!("`{s}` is not a valid time value"));
        let s = s.trim();
        match category {
            cat::DAY => {
                let parts: Vec<&str> = s.split('/').collect();
                if parts.len() != 3 {
                    return Err(bad());
                }
                let y: i32 = parts[0].parse().map_err(|_| bad())?;
                let m: u32 = parts[1].parse().map_err(|_| bad())?;
                let d: u32 = parts[2].parse().map_err(|_| bad())?;
                if !(1..=12).contains(&m) || d < 1 || d > days_in_month(y, m) {
                    return Err(bad());
                }
                Ok(TimeValue::Day(days_from_civil(y, m, d)))
            }
            cat::WEEK => {
                let (y, w) = s.split_once(['W', 'w']).ok_or_else(bad)?;
                let iso_year: i32 = y.parse().map_err(|_| bad())?;
                let week: u32 = w.parse().map_err(|_| bad())?;
                if week < 1 || week > iso_weeks_in_year(iso_year) {
                    return Err(bad());
                }
                Ok(TimeValue::Week { iso_year, week })
            }
            cat::MONTH => {
                let (y, m) = s.split_once('/').ok_or_else(bad)?;
                let year: i32 = y.parse().map_err(|_| bad())?;
                let month: u32 = m.parse().map_err(|_| bad())?;
                if !(1..=12).contains(&month) {
                    return Err(bad());
                }
                Ok(TimeValue::Month { year, month })
            }
            cat::QUARTER => {
                let (y, q) = s.split_once(['Q', 'q']).ok_or_else(bad)?;
                let year: i32 = y.parse().map_err(|_| bad())?;
                let quarter: u32 = q.parse().map_err(|_| bad())?;
                if !(1..=4).contains(&quarter) {
                    return Err(bad());
                }
                Ok(TimeValue::Quarter { year, quarter })
            }
            cat::YEAR => Ok(TimeValue::Year(s.parse().map_err(|_| bad())?)),
            cat::TOP => Ok(TimeValue::Top),
            other => Err(MdmError::UnknownCategory(format!("time category {other}"))),
        }
    }

    /// A dense ordinal within the value's category: consecutive values of
    /// the same category have consecutive serials (days since epoch, weeks
    /// since the epoch week, months/quarters/years on their natural
    /// scales). Drill-down of any value to a finer time category is a
    /// *contiguous* serial range, which lets the Definition 5 comparison
    /// operators work on interval endpoints instead of materialized sets.
    #[inline]
    pub fn serial(self) -> i64 {
        match self {
            TimeValue::Day(d) => d as i64,
            // ISO week starts are Mondays; day 4 (1970-01-05) is the first
            // Monday at or after the epoch, so (start − 4) is divisible by 7.
            TimeValue::Week { iso_year, week } => (iso_week_start(iso_year, week) as i64 - 4) / 7,
            TimeValue::Month { year, month } => year as i64 * 12 + (month as i64 - 1),
            TimeValue::Quarter { year, quarter } => year as i64 * 4 + (quarter as i64 - 1),
            TimeValue::Year(y) => y as i64,
            TimeValue::Top => 0,
        }
    }

    /// The inclusive serial range of this value drilled down to `to`
    /// (`to ≤_Time category(self)` required; `None` for `⊤`, whose extent
    /// is the dimension horizon).
    #[inline]
    pub fn serial_range(self, to: CatId) -> Result<Option<(i64, i64)>, MdmError> {
        let (Some(s), Some(e)) = (self.start_day(), self.end_day()) else {
            return Ok(None);
        };
        if !time_leq(to, self.category()) {
            return Err(MdmError::NotComparable(
                format!("{to}"),
                format!("{}", self.category()),
            ));
        }
        let first = TimeValue::Day(s).rollup(to)?;
        let last = TimeValue::Day(e).rollup(to)?;
        Ok(Some((first.serial(), last.serial())))
    }

    /// The value of the same category immediately following this one.
    pub fn successor(self) -> TimeValue {
        match self {
            TimeValue::Day(d) => TimeValue::Day(d + 1),
            TimeValue::Week { iso_year, week } => {
                if week >= iso_weeks_in_year(iso_year) {
                    TimeValue::Week {
                        iso_year: iso_year + 1,
                        week: 1,
                    }
                } else {
                    TimeValue::Week {
                        iso_year,
                        week: week + 1,
                    }
                }
            }
            TimeValue::Month { year, month } => {
                if month == 12 {
                    TimeValue::Month {
                        year: year + 1,
                        month: 1,
                    }
                } else {
                    TimeValue::Month {
                        year,
                        month: month + 1,
                    }
                }
            }
            TimeValue::Quarter { year, quarter } => {
                if quarter == 4 {
                    TimeValue::Quarter {
                        year: year + 1,
                        quarter: 1,
                    }
                } else {
                    TimeValue::Quarter {
                        year,
                        quarter: quarter + 1,
                    }
                }
            }
            TimeValue::Year(y) => TimeValue::Year(y + 1),
            TimeValue::Top => TimeValue::Top,
        }
    }
}

/// Static `≤_Time` on the fixed time category graph (avoids needing a
/// `CatGraph` instance in value-level code).
fn time_leq(a: CatId, b: CatId) -> bool {
    if a == b {
        return true;
    }
    matches!(
        (a, b),
        (cat::DAY, _)
            | (_, cat::TOP)
            | (cat::MONTH, cat::QUARTER | cat::YEAR)
            | (cat::QUARTER, cat::YEAR)
    )
}

/// Units for unanchored time spans (the `s ∈ S` of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeUnit {
    /// Calendar days.
    Day,
    /// Weeks (7 days).
    Week,
    /// Calendar months (day-of-month clamped).
    Month,
    /// Calendar quarters (3 months).
    Quarter,
    /// Calendar years (Feb 29 clamped).
    Year,
}

impl TimeUnit {
    /// Parses a unit name, accepting singular and plural forms.
    pub fn parse(s: &str) -> Option<TimeUnit> {
        Some(match s.trim_end_matches('s') {
            "day" => TimeUnit::Day,
            "week" => TimeUnit::Week,
            "month" => TimeUnit::Month,
            "quarter" => TimeUnit::Quarter,
            "year" => TimeUnit::Year,
            _ => return None,
        })
    }

    /// The time category whose values step by this unit.
    #[inline]
    pub fn category(self) -> CatId {
        match self {
            TimeUnit::Day => cat::DAY,
            TimeUnit::Week => cat::WEEK,
            TimeUnit::Month => cat::MONTH,
            TimeUnit::Quarter => cat::QUARTER,
            TimeUnit::Year => cat::YEAR,
        }
    }
}

/// The paper's notation (`1999/12/4`, `1999W48`, `1999/12`, `1999Q4`,
/// `1999`, `⊤`), written straight into the formatter.
impl std::fmt::Display for TimeValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TimeValue::Day(d) => {
                let (y, m, dd) = civil_from_days(d);
                write!(f, "{y}/{m}/{dd}")
            }
            TimeValue::Week { iso_year, week } => write!(f, "{iso_year}W{week}"),
            TimeValue::Month { year, month } => write!(f, "{year}/{month}"),
            TimeValue::Quarter { year, quarter } => write!(f, "{year}Q{quarter}"),
            TimeValue::Year(y) => write!(f, "{y}"),
            TimeValue::Top => f.write_str("⊤"),
        }
    }
}

impl std::fmt::Display for TimeUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TimeUnit::Day => "days",
            TimeUnit::Week => "weeks",
            TimeUnit::Month => "months",
            TimeUnit::Quarter => "quarters",
            TimeUnit::Year => "years",
        })
    }
}

/// An unanchored time span such as `6 months` or `36 weeks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Number of units (non-negative; signs come from the `+`/`−` operator).
    pub n: i32,
    /// The unit.
    pub unit: TimeUnit,
}

impl Span {
    /// Convenience constructor.
    pub fn new(n: i32, unit: TimeUnit) -> Self {
        Span { n, unit }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.n, self.unit)
    }
}

/// Shifts a day by `signum * span` (calendar-aware for months/years).
pub fn shift_day(d: DayNum, span: Span, signum: i32) -> DayNum {
    let n = span.n * signum;
    match span.unit {
        TimeUnit::Day => d + n,
        TimeUnit::Week => d + 7 * n,
        TimeUnit::Month => add_months(d, n),
        TimeUnit::Quarter => add_months(d, 3 * n),
        TimeUnit::Year => add_years(d, n),
    }
}

/// The calendar `Time` dimension: the fixed parallel category graph plus a
/// horizon `[min_day, max_day]` that bounds the extent of `⊤` and the
/// sample ranges used by the specification checks.
#[derive(Debug, Clone)]
pub struct TimeDimension {
    graph: CatGraph,
    /// First day of the dimension horizon (inclusive).
    pub min_day: DayNum,
    /// Last day of the dimension horizon (inclusive).
    pub max_day: DayNum,
}

impl TimeDimension {
    /// Creates a time dimension covering `[from, to]` (civil dates,
    /// inclusive).
    ///
    /// # Errors
    /// [`MdmError::InvalidHorizon`] when the range is empty.
    pub fn new(from: (i32, u32, u32), to: (i32, u32, u32)) -> Result<Self, MdmError> {
        let min_day = days_from_civil(from.0, from.1, from.2);
        let max_day = days_from_civil(to.0, to.1, to.2);
        if min_day > max_day {
            return Err(MdmError::InvalidHorizon);
        }
        let graph = CatGraph::new(
            vec!["day", "week", "month", "quarter", "year", "T"],
            &[
                ("day", "week"),
                ("day", "month"),
                ("month", "quarter"),
                ("quarter", "year"),
                ("week", "T"),
                ("year", "T"),
            ],
        )
        .expect("the fixed time category graph is valid");
        Ok(Self {
            graph,
            min_day,
            max_day,
        })
    }

    /// The category graph (Equation 2 of the paper).
    pub fn graph(&self) -> &CatGraph {
        &self.graph
    }

    /// Checks a day is within the horizon.
    pub fn in_horizon(&self, d: DayNum) -> bool {
        (self.min_day..=self.max_day).contains(&d)
    }

    /// The day-extent `[start, end]` of a value, clamped to the horizon for
    /// `⊤` (other values may legitimately extend past it, e.g. the year
    /// containing `max_day`).
    pub fn extent(&self, v: TimeValue) -> (DayNum, DayNum) {
        match (v.start_day(), v.end_day()) {
            (Some(s), Some(e)) => (s, e),
            _ => (self.min_day, self.max_day),
        }
    }

    /// Drill-down: all values of category `to ≤_Time category(v)` contained
    /// in `v`, in ascending order. For `to = day` this is the day range; for
    /// intermediate categories it walks the calendar.
    pub fn drill_down(&self, v: TimeValue, to: CatId) -> Result<Vec<TimeValue>, MdmError> {
        if !self.graph.leq(to, v.category()) {
            return Err(MdmError::NotComparable(
                self.graph.name(to).into(),
                self.graph.name(v.category()).into(),
            ));
        }
        if to == v.category() {
            return Ok(vec![v]);
        }
        let (start, end) = self.extent(v);
        let mut out = Vec::new();
        if to == cat::DAY {
            out.reserve((end - start + 1) as usize);
            for d in start..=end {
                out.push(TimeValue::Day(d));
            }
            return Ok(out);
        }
        // Walk values of `to` whose extent lies within [start, end].
        // (For weeks under ⊤, partial overlap at horizon edges is included
        // only when fully inside the *value's* extent, which for non-⊤
        // values is exact containment.)
        let mut cur = TimeValue::Day(start).rollup(to)?;
        loop {
            let (cs, ce) = self.extent(cur);
            if cs > end {
                break;
            }
            if cs >= start && ce <= end {
                out.push(cur);
            } else if v == TimeValue::Top && ce >= start {
                // ⊤ contains every value overlapping the horizon.
                out.push(cur);
            }
            cur = cur.successor();
        }
        Ok(out)
    }

    /// `NOW`-anchored evaluation: rolls the day `now` to category `target`.
    pub fn now_at(&self, now: DayNum, target: CatId) -> Result<TimeValue, MdmError> {
        TimeValue::Day(now).rollup(target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dim() -> TimeDimension {
        TimeDimension::new((1995, 1, 1), (2010, 12, 31)).unwrap()
    }

    #[test]
    fn rollup_day_to_all() {
        let d = TimeValue::Day(days_from_civil(1999, 12, 4));
        assert_eq!(
            d.rollup(cat::WEEK).unwrap(),
            TimeValue::Week {
                iso_year: 1999,
                week: 48
            }
        );
        assert_eq!(
            d.rollup(cat::MONTH).unwrap(),
            TimeValue::Month {
                year: 1999,
                month: 12
            }
        );
        assert_eq!(
            d.rollup(cat::QUARTER).unwrap(),
            TimeValue::Quarter {
                year: 1999,
                quarter: 4
            }
        );
        assert_eq!(d.rollup(cat::YEAR).unwrap(), TimeValue::Year(1999));
        assert_eq!(d.rollup(cat::TOP).unwrap(), TimeValue::Top);
    }

    #[test]
    fn week_cannot_roll_to_month() {
        let w = TimeValue::Week {
            iso_year: 1999,
            week: 48,
        };
        assert!(w.rollup(cat::MONTH).is_err());
        assert_eq!(w.rollup(cat::TOP).unwrap(), TimeValue::Top);
    }

    #[test]
    fn containment() {
        let d = TimeValue::Day(days_from_civil(1999, 12, 31));
        assert!(d.contained_in(TimeValue::Month {
            year: 1999,
            month: 12
        }));
        assert!(d.contained_in(TimeValue::Quarter {
            year: 1999,
            quarter: 4
        }));
        assert!(d.contained_in(TimeValue::Week {
            iso_year: 1999,
            week: 52
        }));
        assert!(d.contained_in(TimeValue::Top));
        assert!(!d.contained_in(TimeValue::Year(2000)));
        // month ⊄ week
        let m = TimeValue::Month {
            year: 1999,
            month: 12,
        };
        assert!(!m.contained_in(TimeValue::Week {
            iso_year: 1999,
            week: 48
        }));
    }

    #[test]
    fn extents() {
        let q = TimeValue::Quarter {
            year: 1999,
            quarter: 4,
        };
        assert_eq!(q.start_day().unwrap(), days_from_civil(1999, 10, 1));
        assert_eq!(q.end_day().unwrap(), days_from_civil(1999, 12, 31));
        let w = TimeValue::Week {
            iso_year: 2000,
            week: 1,
        };
        assert_eq!(w.start_day().unwrap(), days_from_civil(2000, 1, 3));
        assert_eq!(w.end_day().unwrap(), days_from_civil(2000, 1, 9));
    }

    #[test]
    fn code_roundtrip_and_order() {
        let vals = [
            TimeValue::Day(days_from_civil(1999, 11, 23)),
            TimeValue::Week {
                iso_year: 1999,
                week: 47,
            },
            TimeValue::Month {
                year: 2000,
                month: 1,
            },
            TimeValue::Quarter {
                year: 1999,
                quarter: 4,
            },
            TimeValue::Year(2000),
            TimeValue::Top,
        ];
        for v in vals {
            assert_eq!(TimeValue::from_code(v.category(), v.code()).unwrap(), v);
        }
        // Codes preserve order within a category.
        let m1 = TimeValue::Month {
            year: 1999,
            month: 12,
        };
        let m2 = TimeValue::Month {
            year: 2000,
            month: 1,
        };
        assert!(m1.code() < m2.code());
    }

    #[test]
    fn parse_render_roundtrip() {
        for (c, s) in [
            (cat::DAY, "1999/12/4"),
            (cat::WEEK, "1999W48"),
            (cat::MONTH, "1999/12"),
            (cat::QUARTER, "1999Q4"),
            (cat::YEAR, "1999"),
        ] {
            let v = TimeValue::parse(c, s).unwrap();
            assert_eq!(v.render(), s);
        }
        assert!(TimeValue::parse(cat::DAY, "1999/13/4").is_err());
        assert!(TimeValue::parse(cat::DAY, "1999/2/30").is_err());
        assert!(TimeValue::parse(cat::QUARTER, "1999Q5").is_err());
        assert!(TimeValue::parse(cat::WEEK, "1999W53").is_err()); // 1999 has 52
    }

    #[test]
    fn drill_down_quarter_to_months() {
        let dimn = dim();
        let q = TimeValue::Quarter {
            year: 1999,
            quarter: 4,
        };
        let months = dimn.drill_down(q, cat::MONTH).unwrap();
        assert_eq!(
            months,
            vec![
                TimeValue::Month {
                    year: 1999,
                    month: 10
                },
                TimeValue::Month {
                    year: 1999,
                    month: 11
                },
                TimeValue::Month {
                    year: 1999,
                    month: 12
                },
            ]
        );
        let days = dimn.drill_down(q, cat::DAY).unwrap();
        assert_eq!(days.len(), 92);
    }

    #[test]
    fn drill_down_week_to_days() {
        let dimn = dim();
        let w = TimeValue::Week {
            iso_year: 1999,
            week: 48,
        };
        let days = dimn.drill_down(w, cat::DAY).unwrap();
        assert_eq!(days.len(), 7);
        assert_eq!(days[0], TimeValue::Day(days_from_civil(1999, 11, 29)));
        assert_eq!(days[6], TimeValue::Day(days_from_civil(1999, 12, 5)));
    }

    #[test]
    fn drill_down_rejects_parallel_branch() {
        let dimn = dim();
        let q = TimeValue::Quarter {
            year: 1999,
            quarter: 4,
        };
        assert!(dimn.drill_down(q, cat::WEEK).is_err());
    }

    #[test]
    fn spans_shift_days() {
        let d = days_from_civil(2000, 11, 5);
        let m6 = shift_day(d, Span::new(6, TimeUnit::Month), -1);
        assert_eq!(civil_from_days(m6), (2000, 5, 5));
        let q4 = shift_day(d, Span::new(4, TimeUnit::Quarter), -1);
        assert_eq!(civil_from_days(q4), (1999, 11, 5));
        let y4 = shift_day(d, Span::new(4, TimeUnit::Year), -1);
        assert_eq!(civil_from_days(y4), (1996, 11, 5));
        let w36 = shift_day(d, Span::new(36, TimeUnit::Week), -1);
        assert_eq!(w36, d - 252);
    }

    #[test]
    fn successor_wraps() {
        assert_eq!(
            TimeValue::Month {
                year: 1999,
                month: 12
            }
            .successor(),
            TimeValue::Month {
                year: 2000,
                month: 1
            }
        );
        assert_eq!(
            TimeValue::Quarter {
                year: 1999,
                quarter: 4
            }
            .successor(),
            TimeValue::Quarter {
                year: 2000,
                quarter: 1
            }
        );
        // 1998 has 53 ISO weeks.
        assert_eq!(
            TimeValue::Week {
                iso_year: 1998,
                week: 53
            }
            .successor(),
            TimeValue::Week {
                iso_year: 1999,
                week: 1
            }
        );
    }
}
