//! The fact-table codec (`sdr-storage::table`) against the bytes and
//! numbers of the last commit that kept facts in a second, row-appended
//! container (c168b26): what `encode_facts` writes must be byte-for-byte
//! what that container serialized, however the rows are cut into parts,
//! and `decode_facts` must return exactly the MO encoded.

use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

use specdr::mdm::calendar::{civil_from_days, days_from_civil};
use specdr::mdm::{
    time_cat, AggFn, CatGraph, DimId, DimValue, Dimension, EnumDimensionBuilder, KeyPacker,
    MeasureDef, Mo, Schema, TimeValue, ORIGIN_USER,
};
use specdr::reduce::DataReductionSpec;
use specdr::spec::parse_action;
use specdr::storage::{decode_facts, encode_facts, table_stats, TableStats};
use specdr::subcube::ShardRouter;
use specdr::workload::{
    generate, paper_mo, paper_schema, retention_policy, ClickstreamConfig, ACTION_A1, ACTION_A2,
};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn assert_same(a: &Mo, b: &Mo) {
    let (a, b) = (a.store(), b.store());
    assert_eq!(a.len(), b.len());
    assert_eq!(a.cats, b.cats);
    assert_eq!(a.codes, b.codes);
    assert_eq!(a.measures, b.measures);
    assert_eq!(a.origin, b.origin);
}

fn clicks(per_day: usize, start: (i32, u32, u32), end: (i32, u32, u32)) -> Mo {
    generate(&ClickstreamConfig {
        clicks_per_day: per_day,
        start,
        end,
        ..Default::default()
    })
    .mo
}

/// `mo` cut into parts of the given sizes, cycled, in row order.
fn cut(mo: &Mo, sizes: &[usize]) -> Vec<Mo> {
    let mut parts = Vec::new();
    let mut lo = 0;
    for size in sizes.iter().cycle() {
        if lo == mo.len() {
            break;
        }
        let hi = mo.len().min(lo + size);
        let mut part = mo.empty_like();
        part.absorb_rows(mo, lo..hi).unwrap();
        parts.push(part);
        lo = hi;
    }
    parts
}

/// (a) Segments are cut every 65 536 rows of the concatenation, wherever
/// the parts divide it: a cube encoded from its chunk list is the cube
/// encoded whole.
#[test]
fn encoding_a_part_list_equals_encoding_its_concatenation() {
    let big = clicks(500, (1999, 1, 1), (1999, 6, 30));
    assert!(big.len() > 65_536 && big.len() < 2 * 65_536);
    let whole = encode_facts(big.schema(), [&big]);
    for sizes in [&[4096][..], &[1000], &[4097, 1], &[65_535, 3], &[70_000]] {
        let parts = cut(&big, sizes);
        // An empty part anywhere changes nothing.
        let empty = big.empty_like();
        let listed = parts.iter().flat_map(|p| [&empty, p]);
        assert_eq!(encode_facts(big.schema(), listed), whole, "{sizes:?}");
    }
    let empty = big.empty_like();
    let none = encode_facts(big.schema(), []);
    assert_eq!(none.len(), 20);
    assert_eq!(encode_facts(big.schema(), [&empty, &empty]), none);
    assert!(decode_facts(big.schema(), &none).unwrap().is_empty());
}

/// (e) The paper MO, a ten-day click stream and a two-segment one: file
/// bytes and `TableStats` as the parent computed them, rows back in
/// insertion order across the segment boundary.
#[test]
fn bytes_and_stats_equal_the_parents() {
    let (paper, _) = paper_mo();
    let stats = |rows, raw_bytes, encoded_bytes| TableStats {
        rows,
        raw_bytes,
        encoded_bytes,
    };
    let cases = [
        (
            paper.clone(),
            stats(7, 378, 137),
            279,
            0x238a_b32c_cf79_759f,
        ),
        (
            clicks(500, (2000, 1, 1), (2000, 1, 10)),
            stats(4791, 258_714, 24_160),
            24_302,
            0x7200_a6f6_60bf_2674,
        ),
        (
            clicks(500, (1999, 1, 1), (1999, 6, 30)),
            stats(89_888, 4_853_952, 451_776),
            452_040,
            0xd425_465f_80f4_c384,
        ),
        (
            paper.empty_like(),
            stats(0, 0, 0),
            20,
            0x9be9_a64d_6081_4ae8,
        ),
    ];
    for (mo, want, file_len, digest) in cases {
        assert_eq!(table_stats(mo.schema(), [&mo]), want);
        let bytes = encode_facts(mo.schema(), [&mo]);
        assert_eq!((bytes.len(), fnv(&bytes)), (file_len, digest), "{want:?}");
        assert_same(&decode_facts(mo.schema(), &bytes).unwrap(), &mo);
    }
}

fn dir_digests(root: &Path) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let rel = p.strip_prefix(root).unwrap().to_str().unwrap().to_string();
                out.push((rel, fnv(&std::fs::read(&p).unwrap())));
            }
        }
    }
    out.sort();
    out
}

/// (b) A seeded life of a two-shard warehouse — load 400 days, sync, then
/// 45 days of (load, age) with a checkpoint after the 40th — leaves the
/// directory the parent left: every WAL record and every cube file, byte
/// for byte.
#[test]
fn seeded_warehouse_directory_matches_the_parents() {
    const WANT: [(&str, u64); 13] = [
        ("SHARDS", 0x28db_194c_d6e9_d606),
        ("shard-000/CURRENT", 0xaef4_069a_67ae_f9b5),
        ("shard-000/ckpt-000001/MANIFEST", 0x994d_20a5_dab2_6f2e),
        ("shard-000/ckpt-000001/cube-0.sdr", 0x8d7f_2199_f963_02f6),
        ("shard-000/ckpt-000001/cube-1.sdr", 0x90d4_7b49_204c_ef52),
        ("shard-000/ckpt-000001/cube-2.sdr", 0x1992_6dee_da74_9c2b),
        ("shard-000/wal-000001.log", 0x0f57_ffc1_f5e2_2f2b),
        ("shard-001/CURRENT", 0xaef4_069a_67ae_f9b5),
        ("shard-001/ckpt-000001/MANIFEST", 0xbaf8_10d7_f11d_dc5b),
        ("shard-001/ckpt-000001/cube-0.sdr", 0xb728_823e_1e0f_5c5a),
        ("shard-001/ckpt-000001/cube-1.sdr", 0x3069_100f_3882_d782),
        ("shard-001/ckpt-000001/cube-2.sdr", 0xfedd_7546_d051_5e70),
        ("shard-001/wal-000001.log", 0xa7ac_76c3_dc17_2b20),
    ];
    let start = days_from_civil(1999, 1, 1);
    let (pre_days, tail) = (400usize, 45usize);
    let cs = generate(&ClickstreamConfig {
        seed: 18,
        clicks_per_day: 40,
        start: (1999, 1, 1),
        end: civil_from_days(start + (pre_days + tail) as i32 - 1),
        ..Default::default()
    });
    let actions = retention_policy(2, 12)
        .iter()
        .map(|s| parse_action(&cs.schema, s).unwrap())
        .collect();
    let spec = DataReductionSpec::new(Arc::clone(&cs.schema), actions).unwrap();
    let by_day = cs.rows_by_day(start, pre_days + tail);
    let dir = std::env::temp_dir().join(format!("sdr-codec-scenario-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let router = ShardRouter::create(spec, &dir, 2).unwrap();
    router
        .bulk_load(&cs.mo.gather(&by_day[..pre_days].concat()))
        .unwrap();
    router.sync(start + pre_days as i32 - 1).unwrap();
    for (i, rows) in by_day[pre_days..].iter().enumerate() {
        if i == 40 {
            router.checkpoint().unwrap();
        }
        router.bulk_load(&cs.mo.gather(rows)).unwrap();
        router.age(start + (pre_days + i) as i32).unwrap();
    }
    drop(router);
    let got = dir_digests(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let got: Vec<(&str, u64)> = got.iter().map(|(p, d)| (p.as_str(), *d)).collect();
    assert_eq!(got, WANT, "got {got:#x?}");
}

/// (c) A fresh load reduced by one `sync` and checkpointed — the paper
/// MO, and six weeks of clicks of which the sync day leaves the last two
/// at the bottom — leaves, on two shards, the files the parent's
/// scan-and-rebuild pass left: the one reduction step homes a warehouse
/// never synchronized into the same rows in the same order.
#[test]
fn fresh_load_sync_checkpoint_matches_the_parents() {
    const PAPER: [(&str, u64); 13] = [
        ("SHARDS", 0x28db_194c_d6e9_d606),
        ("shard-000/CURRENT", 0xaef4_069a_67ae_f9b5),
        ("shard-000/ckpt-000001/MANIFEST", 0xd19a_d460_b4fc_6f2f),
        ("shard-000/ckpt-000001/cube-0.sdr", 0x9be9_a64d_6081_4ae8),
        ("shard-000/ckpt-000001/cube-1.sdr", 0x25d5_f547_72da_d27d),
        ("shard-000/ckpt-000001/cube-2.sdr", 0xcd9a_8a13_9477_85a8),
        ("shard-000/wal-000001.log", 0x4d7e_dd62_9f60_c7da),
        ("shard-001/CURRENT", 0xaef4_069a_67ae_f9b5),
        ("shard-001/ckpt-000001/MANIFEST", 0xe4cf_ca48_8e28_1863),
        ("shard-001/ckpt-000001/cube-0.sdr", 0x6300_81af_ffef_b16f),
        ("shard-001/ckpt-000001/cube-1.sdr", 0x7961_3e1c_d1b9_c0a5),
        ("shard-001/ckpt-000001/cube-2.sdr", 0x9be9_a64d_6081_4ae8),
        ("shard-001/wal-000001.log", 0x4d7e_dd62_9f60_c7da),
    ];
    const CLICKS: [(&str, u64); 13] = [
        ("SHARDS", 0x28db_194c_d6e9_d606),
        ("shard-000/CURRENT", 0xaef4_069a_67ae_f9b5),
        ("shard-000/ckpt-000001/MANIFEST", 0xe637_5473_14a9_798f),
        ("shard-000/ckpt-000001/cube-0.sdr", 0x2696_32c7_ca89_ad4d),
        ("shard-000/ckpt-000001/cube-1.sdr", 0xd857_006a_8809_ad2d),
        ("shard-000/ckpt-000001/cube-2.sdr", 0x9be9_a64d_6081_4ae8),
        ("shard-000/wal-000001.log", 0x4d7e_dd62_9f60_c7da),
        ("shard-001/CURRENT", 0xaef4_069a_67ae_f9b5),
        ("shard-001/ckpt-000001/MANIFEST", 0xf38b_870f_d89f_aaa6),
        ("shard-001/ckpt-000001/cube-0.sdr", 0x6465_cd65_7303_3f02),
        ("shard-001/ckpt-000001/cube-1.sdr", 0xcc6d_e1e9_44b5_814d),
        ("shard-001/ckpt-000001/cube-2.sdr", 0x9be9_a64d_6081_4ae8),
        ("shard-001/wal-000001.log", 0x4d7e_dd62_9f60_c7da),
    ];
    let (paper, _) = paper_mo();
    let paper_actions = [ACTION_A1, ACTION_A2]
        .iter()
        .map(|s| parse_action(paper.schema(), s).unwrap())
        .collect();
    let month = clicks(500, (2000, 1, 1), (2000, 2, 14));
    let click_actions = retention_policy(2, 12)
        .iter()
        .map(|s| parse_action(month.schema(), s).unwrap())
        .collect();
    let cases = [
        ("paper", paper, paper_actions, (2000, 11, 5), PAPER),
        ("clicks", month, click_actions, (2000, 3, 20), CLICKS),
    ];
    for (name, mo, actions, (y, m, d), want) in cases {
        let spec = DataReductionSpec::new(Arc::clone(mo.schema()), actions).unwrap();
        let dir =
            std::env::temp_dir().join(format!("sdr-codec-fresh-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let router = ShardRouter::create(spec, &dir, 2).unwrap();
        router.bulk_load(&mo).unwrap();
        router.sync(days_from_civil(y, m, d)).unwrap();
        assert!(router
            .view_set()
            .views()
            .iter()
            .all(|v| v.cubes()[1].rows() > 0));
        router.checkpoint().unwrap();
        drop(router);
        let got = dir_digests(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let got: Vec<(&str, u64)> = got.iter().map(|(p, d)| (p.as_str(), *d)).collect();
        assert_eq!(got, want, "{name}: got {got:#x?}");
    }
}

/// Twenty enumerated dimensions of 40 values: 7 bits each, more than the
/// 128 a packed cell key holds — segments carry no zone map.
fn wide_schema() -> Arc<Schema> {
    let dims = (0..20)
        .map(|d| {
            let g = CatGraph::new(vec!["v", "T"], &[("v", "T")]).unwrap();
            let bottom = g.by_name("v").unwrap();
            let mut b = EnumDimensionBuilder::new(format!("D{d:02}"), g);
            for j in 0..40 {
                b.add_value(bottom, &format!("x{j}"), &[]).unwrap();
            }
            Dimension::Enum(b.build().unwrap())
        })
        .collect();
    Schema::new("Wide", dims, vec![MeasureDef::new("total", AggFn::Sum)]).unwrap()
}

/// One generated fact: (a day, how far up each dimension it is stored,
/// a bottom value), (a measure seed, the action that produced it — 9 for
/// none).
type Row = ((i32, u8, u8, u8), (u64, u32));

fn arb_rows() -> impl Strategy<Value = Vec<Row>> {
    let coords = (0i32..1400, 0u8..6, 0u8..4, 0u8..255);
    proptest::collection::vec((coords, (any::<u64>(), 0u32..10)), 0..60)
}

fn origin_of(action: u32) -> u32 {
    if action == 9 {
        ORIGIN_USER
    } else {
        action
    }
}

/// The rows over the paper schema: time anywhere from day to ⊤ (both
/// branches), URL anywhere from url to ⊤, measures over the whole `i64`
/// range, user and action origins.
fn paper_rows(rows: &[Row]) -> Mo {
    let (schema, _) = paper_schema();
    let time_cats = [
        time_cat::DAY,
        time_cat::WEEK,
        time_cat::MONTH,
        time_cat::QUARTER,
        time_cat::YEAR,
        schema.dim(DimId(0)).graph().top(),
    ];
    let url_dim = schema.dim(DimId(1));
    let Dimension::Enum(e) = url_dim else {
        unreachable!()
    };
    let url_cats: Vec<_> = url_dim.graph().all().collect();
    let urls: Vec<DimValue> = e.values(url_dim.graph().bottom()).collect();
    let mut mo = Mo::new(Arc::clone(&schema));
    for &((day, tc, uc, ui), (m, action)) in rows {
        let m = m as i64;
        let day = DimValue::new(
            time_cat::DAY,
            TimeValue::Day(days_from_civil(1999, 1, 1) + day).code(),
        );
        let t = schema
            .dim(DimId(0))
            .rollup(day, time_cats[tc as usize])
            .unwrap();
        let u = url_dim
            .rollup(
                urls[ui as usize % urls.len()],
                url_cats[uc as usize % url_cats.len()],
            )
            .unwrap();
        let measures = [m, m.wrapping_mul(31), -m.wrapping_abs(), m >> 17];
        mo.insert_fact_at(&[t, u], &measures, origin_of(action))
            .unwrap();
    }
    mo
}

/// The rows over [`wide_schema`], each coordinate at the bottom or ⊤.
fn wide_rows(schema: &Arc<Schema>, rows: &[Row]) -> Mo {
    let mut mo = Mo::new(Arc::clone(schema));
    for &((day, tc, uc, ui), (m, action)) in rows {
        let coords: Vec<DimValue> = (0..20usize)
            .map(|d| {
                let dim = schema.dim(DimId(d as u16));
                let pick = day as usize + d * (1 + ui as usize);
                if (tc as usize + uc as usize + d).is_multiple_of(5) {
                    dim.top_value()
                } else {
                    DimValue::new(dim.graph().bottom(), (pick % 40) as u64)
                }
            })
            .collect();
        mo.insert_fact_at(&coords, &[m as i64], origin_of(action))
            .unwrap();
    }
    mo
}

proptest! {
    /// (d) `decode(encode(mo)) == mo`, column for column, and encoding is
    /// a function of the rows alone.
    #[test]
    fn decode_inverts_encode(rows in arb_rows(), split in 0usize..60) {
        let wide = wide_schema();
        prop_assert!(KeyPacker::new(&wide).is_none());
        for mo in [paper_rows(&rows), wide_rows(&wide, &rows)] {
            let bytes = encode_facts(mo.schema(), [&mo]);
            // Byte 28 is the first segment's zone flag.
            if !mo.is_empty() {
                let packs = KeyPacker::new(mo.schema()).is_some();
                prop_assert_eq!(bytes[28], packs as u8);
            }
            assert_same(&decode_facts(mo.schema(), &bytes).unwrap(), &mo);
            let parts = cut(&mo, &[split.max(1)]);
            prop_assert_eq!(encode_facts(mo.schema(), &parts), bytes);
        }
    }
}
