//! Proleptic Gregorian calendar arithmetic.
//!
//! All calendar math in the workspace is funnelled through this module so
//! that the `Time` dimension's parallel hierarchy (`day < week < ⊤` and
//! `day < month < quarter < year < ⊤`, Section 2 of the paper) is computed
//! from a single, well-tested core.
//!
//! Days are represented as a signed count of days since the Unix epoch
//! (1970-01-01), the same convention as `std::time` / Howard Hinnant's
//! `chrono`-style civil-date algorithms. ISO-8601 week dates give the
//! `week` category its own hierarchy branch: an ISO week can straddle two
//! calendar years, which is exactly why the paper's `Time` dimension is
//! non-linear.

/// A day, counted as days since 1970-01-01 (negative for earlier days).
pub type DayNum = i32;

/// Converts a civil (proleptic Gregorian) date to a [`DayNum`].
///
/// Uses the era-based algorithm from Howard Hinnant's *chrono-compatible
/// low-level date algorithms*; exact for all `i32` years that do not
/// overflow the day counter.
///
/// # Panics
/// Does not panic for in-range inputs; `month` must be in `1..=12` and
/// `day` in `1..=31` for a meaningful result (callers validate).
#[inline]
pub fn days_from_civil(year: i32, month: u32, day: u32) -> DayNum {
    debug_assert!((1..=12).contains(&month));
    debug_assert!((1..=31).contains(&day));
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64; // [0, 399]
    let mp = ((month as i64) + 9) % 12; // [0, 11], March = 0
    let doy = (153 * mp + 2) / 5 + (day as i64) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    ((era as i64) * 146_097 + doe - 719_468) as DayNum
}

/// Converts a [`DayNum`] back to a civil `(year, month, day)` triple.
#[inline]
pub fn civil_from_days(z: DayNum) -> (i32, u32, u32) {
    let z = z as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y } as i32, m, d)
}

/// Returns true when `year` is a Gregorian leap year.
#[inline]
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` (1-based) of `year`.
#[inline]
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month out of range: {month}"),
    }
}

/// ISO-8601 weekday of a day: 1 = Monday, …, 7 = Sunday.
pub fn iso_weekday(z: DayNum) -> u32 {
    // 1970-01-01 was a Thursday (ISO weekday 4).
    (((z as i64 % 7) + 7 + 3) % 7 + 1) as u32
}

/// ISO-8601 week date `(iso_year, iso_week)` of a day.
///
/// The ISO year of a day can differ from its calendar year near year
/// boundaries (e.g. 1999-01-01 belongs to ISO week 1998-W53, and
/// 2000W1 starts on 2000-01-03), which is why the paper's `week`
/// category hangs directly under `⊤` rather than under `month`.
pub fn iso_week_of(z: DayNum) -> (i32, u32) {
    // The Thursday of z's week determines the ISO year.
    let thursday = z + 4 - iso_weekday(z) as DayNum;
    let (iso_year, _, _) = civil_from_days(thursday);
    let jan1 = days_from_civil(iso_year, 1, 1);
    let week = ((thursday - jan1) / 7 + 1) as u32;
    (iso_year, week)
}

/// The Monday (first day) of ISO week `(iso_year, week)`.
pub fn iso_week_start(iso_year: i32, week: u32) -> DayNum {
    // ISO week 1 is the week containing January 4th.
    let jan4 = days_from_civil(iso_year, 1, 4);
    let week1_monday = jan4 - (iso_weekday(jan4) as DayNum - 1);
    week1_monday + 7 * (week as DayNum - 1)
}

/// Number of ISO weeks in `iso_year` (52 or 53).
pub fn iso_weeks_in_year(iso_year: i32) -> u32 {
    let p = |y: i32| -> i64 {
        let y = y as i64;
        (y + y / 4 - y / 100 + y / 400) % 7
    };
    if p(iso_year) == 4 || p(iso_year - 1) == 3 {
        53
    } else {
        52
    }
}

/// Adds `n` calendar months to a civil date, clamping the day-of-month
/// (e.g. Jan 31 + 1 month = Feb 28/29). Used by `NOW ± span` evaluation.
pub fn add_months(z: DayNum, n: i32) -> DayNum {
    let (y, m, d) = civil_from_days(z);
    let total = (y as i64) * 12 + (m as i64 - 1) + n as i64;
    let ny = total.div_euclid(12) as i32;
    let nm = (total.rem_euclid(12) + 1) as u32;
    let nd = d.min(days_in_month(ny, nm));
    days_from_civil(ny, nm, nd)
}

/// Adds `n` years to a civil date, clamping Feb 29 to Feb 28 as needed.
pub fn add_years(z: DayNum, n: i32) -> DayNum {
    add_months(z, n.saturating_mul(12))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn roundtrip_over_wide_range() {
        for z in (-200_000..200_000).step_by(97) {
            let (y, m, d) = civil_from_days(z);
            assert_eq!(days_from_civil(y, m, d), z, "roundtrip failed at {z}");
        }
    }

    #[test]
    fn known_dates() {
        assert_eq!(days_from_civil(2000, 1, 1), 10_957);
        assert_eq!(days_from_civil(1999, 12, 31), 10_956);
        assert_eq!(civil_from_days(10_957), (2000, 1, 1));
    }

    #[test]
    fn weekday_of_epoch_is_thursday() {
        assert_eq!(iso_weekday(0), 4);
        // 2000-01-03 was a Monday.
        assert_eq!(iso_weekday(days_from_civil(2000, 1, 3)), 1);
        // Negative days: 1969-12-31 was a Wednesday.
        assert_eq!(iso_weekday(-1), 3);
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(1996));
        assert!(!is_leap_year(1999));
        assert_eq!(days_in_month(2000, 2), 29);
        assert_eq!(days_in_month(1999, 2), 28);
    }

    #[test]
    fn iso_weeks_match_paper_example() {
        // Figure 1 of the paper: 1999/11/23 ∈ 1999W47, 1999/12/4 ∈ 1999W48,
        // 1999/12/31 ∈ 1999W52, 2000/1/4 ∈ 2000W1, 2000/1/20 ∈ 2000W3.
        assert_eq!(iso_week_of(days_from_civil(1999, 11, 23)), (1999, 47));
        assert_eq!(iso_week_of(days_from_civil(1999, 12, 4)), (1999, 48));
        assert_eq!(iso_week_of(days_from_civil(1999, 12, 31)), (1999, 52));
        assert_eq!(iso_week_of(days_from_civil(2000, 1, 4)), (2000, 1));
        assert_eq!(iso_week_of(days_from_civil(2000, 1, 20)), (2000, 3));
    }

    #[test]
    fn iso_year_differs_from_calendar_year_at_boundaries() {
        // 1999-01-01 belongs to ISO 1998-W53.
        assert_eq!(iso_week_of(days_from_civil(1999, 1, 1)), (1998, 53));
        // 1996-12-30 belongs to ISO 1997-W01.
        assert_eq!(iso_week_of(days_from_civil(1996, 12, 30)), (1997, 1));
    }

    #[test]
    fn week_start_inverts_week_of() {
        for z in (days_from_civil(1995, 1, 1)..days_from_civil(2011, 1, 1)).step_by(13) {
            let (iy, iw) = iso_week_of(z);
            let start = iso_week_start(iy, iw);
            assert!(start <= z && z < start + 7);
            assert_eq!(iso_weekday(start), 1);
        }
    }

    #[test]
    fn weeks_in_year() {
        assert_eq!(iso_weeks_in_year(1998), 53);
        assert_eq!(iso_weeks_in_year(1999), 52);
        assert_eq!(iso_weeks_in_year(2004), 53);
        assert_eq!(iso_weeks_in_year(2000), 52);
    }

    #[test]
    fn add_months_clamps() {
        let jan31 = days_from_civil(2000, 1, 31);
        assert_eq!(civil_from_days(add_months(jan31, 1)), (2000, 2, 29));
        let jan31_99 = days_from_civil(1999, 1, 31);
        assert_eq!(civil_from_days(add_months(jan31_99, 1)), (1999, 2, 28));
        // Negative steps cross year boundaries.
        let mar1 = days_from_civil(2000, 3, 1);
        assert_eq!(civil_from_days(add_months(mar1, -3)), (1999, 12, 1));
    }

    #[test]
    fn add_years_clamps_leap_day() {
        let feb29 = days_from_civil(2000, 2, 29);
        assert_eq!(civil_from_days(add_years(feb29, 1)), (2001, 2, 28));
        assert_eq!(civil_from_days(add_years(feb29, 4)), (2004, 2, 29));
    }
}
