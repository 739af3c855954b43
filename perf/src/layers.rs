//! Probes: each replays inputs captured from the workload (its queries,
//! its hits, the dataset behind its lists) through one public function
//! of one layer, timed from outside. A probe answers "how fast is this
//! layer alone on this workload's inputs", which the served path cannot
//! show from outside.

use std::collections::BTreeMap;
use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use iva_core::{
    choose_num_type, choose_text_type, encode_packed_num_list, encode_packed_text_list,
    monotonic_nanos, IvaConfig, IvaError, NumericCodec, PackedReader, Query, QueryValue, Result,
};
use iva_storage::compress::{pack_bits, BitUnpacker};
use iva_storage::{write_contiguous_list, IoStats, ListReader, Pager, PagerOptions};
use iva_swt::{decode_record, encode_record, AttrId, AttrType, RecordPtr, Tid, Tuple, Value};
use iva_text::{edit_distance, PreparedMatcher, QueryStringMatcher};
use iva_workload::Dataset;

use crate::run::{metric as m, Metric};
use crate::spans::{SpanLog, NO_REQUEST};
use crate::target::Tier;

/// Lists the packed-decode probe inflates: the workload's hottest.
const HOT_LISTS: usize = 32;
/// Tuples sampled per query for the fetch, decode and edit-distance
/// probes, besides the query's own hits.
const SAMPLED: usize = 256;
/// Bit widths of the unpack probe (the packed codec's common ones).
const UNPACK_WIDTHS: [u32; 4] = [1, 4, 7, 13];
/// Values unpacked per width.
const UNPACK_VALUES: usize = 1 << 18;
/// Each probe repeats its pass until it has run this long, so a tiny
/// input does not time the clock.
const MIN_PROBE_NANOS: u64 = 20_000_000;

/// What the probes replay.
pub struct ProbeInputs<'a> {
    /// The generated dataset.
    pub dataset: &'a Dataset,
    /// Rows defining each attribute.
    pub postings: &'a [Vec<u32>],
    /// The workload's queries (the traced pass subset).
    pub queries: &'a [Query],
    /// The hits each of those queries returned.
    pub hits: &'a [Vec<(Tid, Tuple)>],
    /// The engine's tiers at the end of the run.
    pub tiers: &'a [Tier<'a>],
}

/// Run `pass` (which returns the units of work it did) until
/// [`MIN_PROBE_NANOS`] have passed; returns `(nanos, units)` in total,
/// under one span.
fn timed(
    log: &mut SpanLog,
    name: &'static str,
    mut pass: impl FnMut() -> Result<u64>,
) -> Result<(u64, u64)> {
    log.begin(name, NO_REQUEST);
    let start = monotonic_nanos();
    let mut units = 0;
    let mut rounds = 0u64;
    let nanos = loop {
        units += pass()?;
        rounds += 1;
        let nanos = monotonic_nanos() - start;
        if nanos >= MIN_PROBE_NANOS || units == 0 {
            break nanos;
        }
    };
    log.end(&[("units", units), ("rounds", rounds)]);
    Ok((nanos, units))
}

fn per_unit(nanos: u64, units: u64) -> f64 {
    nanos as f64 / units.max(1) as f64
}

fn mb_per_s(bytes: u64, nanos: u64) -> f64 {
    bytes as f64 / 1e6 / (nanos.max(1) as f64 / 1e9)
}

/// `PackedReader::decode_to_vec` over the packed images of the lists the
/// workload's queries touch most, rebuilt from the dataset through the
/// public encoders.
fn packed_decode(inputs: &ProbeInputs<'_>, log: &mut SpanLog) -> Result<f64> {
    let config = IvaConfig::default();
    let codec = config.sig_codec();
    let mut touched: BTreeMap<u32, usize> = BTreeMap::new();
    for query in inputs.queries {
        for (attr, _) in query.iter() {
            *touched.entry(attr.0).or_default() += 1;
        }
    }
    let mut hottest: Vec<(u32, usize)> = touched.into_iter().collect();
    hottest.sort_by_key(|&(attr, n)| (std::cmp::Reverse(n), attr));
    hottest.truncate(HOT_LISTS);

    let tuples = &inputs.dataset.tuples;
    let all_tids: Vec<u32> = (0..tuples.len() as u32).collect();
    let n_tuples = all_tids.len() as u64;
    let pager = Pager::create_mem(
        &PagerOptions {
            page_size: 4096,
            cache_bytes: 64 << 20,
        },
        IoStats::new(),
    );
    enum Kind {
        Text,
        Num(NumericCodec),
    }
    let mut lists = Vec::new();
    for (attr, _) in hottest {
        let rows = inputs.postings.get(attr as usize).map_or(&[][..], |r| r);
        let value_of = |row: &u32| {
            tuples
                .get(*row as usize)
                .and_then(|t| t.get(AttrId(attr)))
                .map(|v| (*row, v))
        };
        match inputs.dataset.attr_types.get(attr as usize) {
            Some(AttrType::Text) => {
                let items: Vec<(u32, Vec<Vec<u8>>)> = rows
                    .iter()
                    .filter_map(value_of)
                    .filter_map(|(row, v)| match v {
                        Value::Text(strings) => Some((
                            row,
                            strings
                                .iter()
                                .map(|s| codec.encode_to_vec(s.as_bytes()))
                                .collect(),
                        )),
                        Value::Num(_) => None,
                    })
                    .collect();
                let strings: u64 = items.iter().map(|(_, s)| s.len() as u64).sum();
                let ty = choose_text_type(strings, items.len() as u64, n_tuples);
                let packed = encode_packed_text_list(ty, &items, &all_tids);
                lists.push((write_contiguous_list(&pager, &packed)?, ty, Kind::Text));
            }
            Some(AttrType::Numeric) => {
                let values: Vec<(u32, f64)> = rows
                    .iter()
                    .filter_map(value_of)
                    .filter_map(|(row, v)| match v {
                        Value::Num(x) => Some((row, *x)),
                        Value::Text(_) => None,
                    })
                    .collect();
                let (lo, hi) = values
                    .iter()
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (_, v)| {
                        (lo.min(*v), hi.max(*v))
                    });
                let num = NumericCodec::new(lo, hi, config.numeric_code_bytes());
                let items: Vec<(u32, u64)> =
                    values.iter().map(|(t, v)| (*t, num.encode(*v))).collect();
                let ty = choose_num_type(config.numeric_code_bytes(), items.len() as u64, n_tuples);
                let packed = encode_packed_num_list(ty, &items, &all_tids, &num);
                lists.push((write_contiguous_list(&pager, &packed)?, ty, Kind::Num(num)));
            }
            None => {}
        }
    }
    let (nanos, bytes) = timed(log, "probe.packed_decode", || {
        let mut bytes = 0;
        for (handle, ty, kind) in &lists {
            let reader = ListReader::open(pager.clone(), *handle)?;
            let raw = match kind {
                Kind::Text => PackedReader::new_text(reader, *ty, &codec)?,
                Kind::Num(num) => PackedReader::new_num(reader, *ty, num)?,
            }
            .decode_to_vec()?;
            bytes += black_box(raw).len() as u64;
        }
        Ok(bytes)
    })?;
    Ok(mb_per_s(bytes, nanos))
}

/// The text values of the probe queries: `(attribute, query string)`.
fn text_values<'a>(inputs: &'a ProbeInputs<'_>) -> Vec<(usize, AttrId, &'a str)> {
    inputs
        .queries
        .iter()
        .enumerate()
        .flat_map(|(qi, q)| {
            q.iter().filter_map(move |(attr, v)| match v {
                QueryValue::Text(s) => Some((qi, attr, s.as_str())),
                QueryValue::Num(_) => None,
            })
        })
        .collect()
}

/// The stored strings of `attr`, over every row that defines it.
fn stored_strings<'a>(inputs: &'a ProbeInputs<'_>, attr: AttrId) -> Vec<&'a str> {
    inputs
        .postings
        .get(attr.index())
        .map_or(&[][..], |r| r)
        .iter()
        .filter_map(|row| inputs.dataset.tuples.get(*row as usize)?.get(attr))
        .flat_map(|v| match v {
            Value::Text(strings) => strings.iter().map(String::as_str).collect(),
            Value::Num(_) => Vec::new(),
        })
        .collect()
}

/// `QueryStringMatcher` build + bake per query string, and
/// `PreparedMatcher::estimate_block` over a stride-packed column of the
/// signatures of that string's attribute.
fn matcher_and_estimate(inputs: &ProbeInputs<'_>, log: &mut SpanLog) -> Result<(f64, f64)> {
    let codec = IvaConfig::default().sig_codec();
    let values = text_values(inputs);
    let (build_nanos, built) = timed(log, "probe.matcher_build", || {
        for (_, _, s) in &values {
            black_box(QueryStringMatcher::new(&codec, s.as_bytes()).prepare(&codec));
        }
        Ok(values.len() as u64)
    })?;

    let stride = codec.max_encoded_len().max(1);
    let columns: Vec<(PreparedMatcher, Vec<u8>, usize)> = values
        .iter()
        .map(|(_, attr, s)| {
            let stored = stored_strings(inputs, *attr);
            let mut column = vec![0u8; stored.len() * stride];
            for (cell, sd) in column.chunks_exact_mut(stride).zip(&stored) {
                let sig = codec.encode_to_vec(sd.as_bytes());
                for (dst, src) in cell.iter_mut().zip(&sig) {
                    *dst = *src;
                }
            }
            (
                PreparedMatcher::new(&codec, s.as_bytes()),
                column,
                stored.len(),
            )
        })
        .collect();
    let mut out = Vec::new();
    let (est_nanos, sigs) = timed(log, "probe.estimate_block", || {
        let mut sigs = 0;
        for (matcher, column, n) in &columns {
            out.resize(*n, 0.0);
            matcher
                .estimate_block(column, stride, &mut out)
                .map_err(|e| IvaError::Corrupt(format!("estimate probe: {e}")))?;
            black_box(&out);
            sigs += *n as u64;
        }
        Ok(sigs)
    })?;
    Ok((
        per_unit(build_nanos, built) / 1e3,
        per_unit(est_nanos, sigs),
    ))
}

/// `edit_distance` on (query string, stored string) pairs: the strings
/// of each query's hits plus up to [`SAMPLED`] rows of the attribute.
fn edit_pairs(inputs: &ProbeInputs<'_>, log: &mut SpanLog) -> Result<f64> {
    let mut rng = StdRng::seed_from_u64(0xED17);
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    for (qi, attr, s) in text_values(inputs) {
        for (_, tuple) in inputs.hits.get(qi).map_or(&[][..], |h| h) {
            if let Some(Value::Text(strings)) = tuple.get(attr) {
                pairs.extend(strings.iter().map(|sd| (s, sd.as_str())));
            }
        }
        let stored = stored_strings(inputs, attr);
        for _ in 0..SAMPLED.min(stored.len()) {
            if let Some(sd) = stored.get(rng.random_range(0..stored.len())) {
                pairs.push((s, sd));
            }
        }
    }
    let (nanos, n) = timed(log, "probe.edit_distance", || {
        let mut sum = 0usize;
        for (a, b) in &pairs {
            sum += edit_distance(a, b);
        }
        black_box(sum);
        Ok(pairs.len() as u64)
    })?;
    Ok(per_unit(nanos, n))
}

/// `SwtTable::get_batch` per query on the record pointers of its hits
/// plus [`SAMPLED`] live records, with the caches as the workload left
/// them; then `decode_record` on the bytes of the records fetched.
fn fetch_and_decode(inputs: &ProbeInputs<'_>, log: &mut SpanLog) -> Result<(f64, f64)> {
    // One table scan per tier maps every live tid to its pointer.
    let mut located: BTreeMap<Tid, (usize, RecordPtr)> = BTreeMap::new();
    for (ti, tier) in inputs.tiers.iter().enumerate() {
        for item in tier.table.scan() {
            let (ptr, rec) = item?;
            if !rec.deleted {
                located.insert(rec.tid, (ti, ptr));
            }
        }
    }
    let all: Vec<(usize, RecordPtr)> = located.values().copied().collect();
    let mut rng = StdRng::seed_from_u64(0xFE7C);
    let batches: Vec<Vec<Vec<RecordPtr>>> = inputs
        .hits
        .iter()
        .map(|query_hits| {
            let mut per_tier = vec![Vec::new(); inputs.tiers.len()];
            let sampled = (0..SAMPLED.min(all.len()))
                .filter_map(|_| all.get(rng.random_range(0..all.len())).copied());
            let hits = query_hits
                .iter()
                .filter_map(|(tid, _)| located.get(tid).copied());
            for (ti, ptr) in hits.chain(sampled) {
                if let Some(ptrs) = per_tier.get_mut(ti) {
                    ptrs.push(ptr);
                }
            }
            per_tier
        })
        .collect();

    let mut images: Vec<Vec<u8>> = Vec::new();
    let mut keep = true;
    let (fetch_nanos, fetched) = timed(log, "probe.table_fetch", || {
        let mut n = 0;
        for per_tier in &batches {
            for (tier, ptrs) in inputs.tiers.iter().zip(per_tier) {
                let records = tier.table.get_batch(ptrs)?;
                n += records.len() as u64;
                if keep {
                    for rec in &records {
                        let mut image = Vec::new();
                        encode_record(&rec.tuple, &mut image)?;
                        images.push(image);
                    }
                }
                black_box(records);
            }
        }
        keep = false;
        Ok(n)
    })?;
    let (decode_nanos, decoded) = timed(log, "probe.record_decode", || {
        for image in &images {
            black_box(decode_record(image)?);
        }
        Ok(images.len() as u64)
    })?;
    Ok((
        per_unit(fetch_nanos, fetched) / 1e3,
        per_unit(decode_nanos, decoded),
    ))
}

/// `BitUnpacker` over pseudo-random values at each of [`UNPACK_WIDTHS`].
fn unpack(log: &mut SpanLog) -> Result<f64> {
    let mut rng = StdRng::seed_from_u64(0xB175);
    let buffers: Vec<(u32, Vec<u8>)> = UNPACK_WIDTHS
        .iter()
        .map(|&width| {
            let values: Vec<u64> = (0..UNPACK_VALUES)
                .map(|_| rng.random::<u64>() & ((1u64 << width) - 1))
                .collect();
            let mut packed = Vec::new();
            pack_bits(&values, width, &mut packed);
            (width, packed)
        })
        .collect();
    let (nanos, bytes) = timed(log, "probe.bit_unpack", || {
        let mut bytes = 0;
        for (width, packed) in &buffers {
            let unpacker = BitUnpacker::new(packed, *width)
                .ok_or_else(|| IvaError::InvalidArgument(format!("width {width}")))?;
            black_box(unpacker.take(UNPACK_VALUES).fold(0u64, |a, v| a ^ v));
            bytes += packed.len() as u64;
        }
        Ok(bytes)
    })?;
    Ok(mb_per_s(bytes, nanos))
}

/// Every probe, as per-layer metrics.
pub fn run_probes(inputs: &ProbeInputs<'_>, log: &mut SpanLog) -> Result<Vec<Metric>> {
    let decode_mb = packed_decode(inputs, log)?;
    let (build_us, estimate_ns) = matcher_and_estimate(inputs, log)?;
    let edit_ns = edit_pairs(inputs, log)?;
    let (fetch_us, record_ns) = fetch_and_decode(inputs, log)?;
    let unpack_mb = unpack(log)?;
    Ok(vec![
        m("core.packed_decode_mb_per_s", decode_mb),
        m("text.estimate_ns_per_sig", estimate_ns),
        m("text.matcher_build_us", build_us),
        m("text.edit_distance_ns_per_pair", edit_ns),
        m("swt.fetch_us_per_record", fetch_us),
        m("swt.decode_ns_per_record", record_ns),
        m("storage.unpack_mb_per_s", unpack_mb),
    ])
}
