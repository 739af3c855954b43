//! The serving layer's contract under real concurrency: N readers × one
//! writer never observe torn state, every snapshot answers bit-identical
//! to a serial replay against the same snapshot, and the admission-
//! queue server returns exactly what direct execution would.
//!
//! (The epoch publication *protocol* itself is additionally model-checked
//! under the bounded scheduler in `tests/loom_serve.rs`.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use iva_file::serve::{ServeOptions, Server, Writer};
use iva_file::workload::{generate_query_set, Dataset, WorkloadConfig};
use iva_file::{
    EngineOutcome, IvaDb, IvaDbOptions, IvaError, LsmDb, LsmOptions, Query, Result, SearchRequest,
    Tuple, Value,
};

fn text_db(rows: usize) -> (Writer<IvaDb>, iva_file::AttrId) {
    let mut writer = Writer::new(IvaDb::create_mem(IvaDbOptions::default()).unwrap());
    let name = writer.define_text("name").unwrap();
    for i in 0..rows {
        writer
            .insert(&Tuple::new().with(name, Value::text(format!("item number {i:04}"))))
            .unwrap();
    }
    (writer, name)
}

/// The S3 property test: 4 readers hammer snapshots while the writer
/// churns inserts and deletes. Every snapshot must (a) hold a stable
/// epoch, (b) answer a second run bit-identically to the first on the
/// same snapshot, and (c) agree with every other snapshot of the same
/// epoch.
#[test]
fn concurrent_readers_observe_consistent_epochs() {
    let (mut writer, name) = text_db(60);
    let reader = writer.reader();
    let done = AtomicBool::new(false);
    // epoch -> canonical (hit keys, table accesses) digest for that epoch.
    type Digest = (Vec<(u64, u64, u32)>, u64);
    let digests: Mutex<HashMap<u64, Digest>> = Mutex::new(HashMap::new());

    crossbeam::thread::scope(|scope| {
        for _ in 0..4 {
            let reader = reader.clone();
            let done = &done;
            let digests = &digests;
            scope.spawn(move |_| {
                let query = Query::new().text(name, "item number 0042");
                let mut last_epoch = 0u64;
                let mut rounds = 0u32;
                while !done.load(Ordering::Acquire) || rounds < 20 {
                    rounds += 1;
                    let snap = reader.snapshot();
                    let epoch = snap.epoch();
                    assert!(epoch >= last_epoch, "epoch went backwards on one reader");
                    last_epoch = epoch;

                    let serial = snap.execute(&query, &SearchRequest::new(8)).unwrap();
                    // A second run on the *same snapshot* answers and
                    // counts alike.
                    let fast = snap.execute(&query, &SearchRequest::new(8)).unwrap();
                    assert_eq!(
                        fast.hit_keys(),
                        serial.hit_keys(),
                        "a second run differs from the first"
                    );
                    assert_eq!(
                        (fast.stats().tuples_scanned, fast.stats().table_accesses),
                        (serial.stats().tuples_scanned, serial.stats().table_accesses),
                        "scan accounting differs between two runs"
                    );
                    assert!(fast.stats().tuples_scanned > 0);
                    // The snapshot pins the engine: the epoch cannot have
                    // moved while we held it.
                    assert_eq!(snap.epoch(), epoch);

                    let digest = (fast.hit_keys(), fast.stats().table_accesses);
                    let mut map = digests.lock().unwrap();
                    if let Some(seen) = map.get(&epoch) {
                        assert_eq!(seen, &digest, "two snapshots of epoch {epoch} disagree");
                    } else {
                        map.insert(epoch, digest);
                    }
                }
            });
        }

        // The single writer churns: inserts with occasional deletes.
        let mut tids = Vec::new();
        for i in 60..220 {
            tids.push(
                writer
                    .insert(&Tuple::new().with(name, Value::text(format!("item number {i:04}"))))
                    .unwrap(),
            );
            if i % 5 == 0 {
                let tid = tids.remove(0);
                writer.delete(tid).unwrap();
            }
        }
        done.store(true, Ordering::Release);
    })
    .unwrap();

    assert!(
        writer.epoch() >= 160 + 32,
        "writer published too few epochs"
    );
    assert!(
        digests.lock().unwrap().len() > 1,
        "readers never caught more than one epoch"
    );
}

/// Answers through the admission-queue server are bit-identical to
/// direct execution against a snapshot — including the I/O accounting.
#[test]
fn served_answers_match_direct_execution() {
    let cfg = WorkloadConfig::scaled(1_500);
    let dataset = Dataset::generate(&cfg);
    let mut writer = Writer::new(IvaDb::create_mem(IvaDbOptions::default()).unwrap());
    for (i, ty) in dataset.attr_types.iter().enumerate() {
        let name = format!("attr_{i}");
        match ty {
            iva_file::AttrType::Text => writer.define_text(&name).unwrap(),
            iva_file::AttrType::Numeric => writer.define_numeric(&name).unwrap(),
        };
    }
    for t in &dataset.tuples {
        writer.insert(t).unwrap();
    }
    let reader = writer.reader();
    let queries: Vec<Query> = generate_query_set(&dataset, 3, 24, 0, 4242)
        .measured()
        .to_vec();
    assert!(queries.len() >= 16);

    let server = Server::start(
        reader.clone(),
        ServeOptions {
            workers: 2,
            max_batch: 8,
        },
    );
    let client = server.client();
    let request = SearchRequest::new(10);

    // (query index, hit keys, (tuples scanned, table accesses)) for one
    // served answer.
    type ServedAnswer = (usize, Vec<(u64, u64, u32)>, (u64, u64));
    let answers: Mutex<Vec<ServedAnswer>> = Mutex::new(Vec::new());
    let plan = |s: &iva_file::QueryStats| (s.tuples_scanned, s.table_accesses);
    crossbeam::thread::scope(|scope| {
        for chunk in queries.chunks(queries.len().div_ceil(6)) {
            let client = client.clone();
            let request = request.clone();
            let answers = &answers;
            let queries = &queries;
            scope.spawn(move |_| {
                for q in chunk {
                    let idx = queries.iter().position(|c| std::ptr::eq(c, q)).unwrap();
                    let out = client.search(q.clone(), request.clone()).unwrap();
                    answers
                        .lock()
                        .unwrap()
                        .push((idx, out.hit_keys(), plan(out.stats())));
                }
            });
        }
    })
    .unwrap();

    // No writer ran: every served answer came from the same (only) epoch
    // and must match a direct, single-caller execution exactly.
    let snap = reader.snapshot();
    for (idx, keys, scanned) in answers.lock().unwrap().iter() {
        let direct = snap.execute(&queries[*idx], &request).unwrap();
        assert_eq!(
            keys,
            &direct.hit_keys(),
            "served answer differs from direct execution for query {idx}"
        );
        // A served request runs the direct plan: it scans and fetches
        // what the direct run does.
        assert_eq!(
            *scanned,
            plan(direct.stats()),
            "served scan accounting differs for query {idx}"
        );
    }
    drop(snap);

    let stats = server.stats();
    assert_eq!(stats.submitted, queries.len() as u64);
    assert_eq!(stats.completed, queries.len() as u64);
    // One execution per request, none shared.
    assert_eq!((stats.batches, stats.coalesced), (stats.completed, 0));
    // Every answered request's filter phase touched vector lists, so the
    // compression-visibility counters must have accumulated.
    assert!(stats.list_bytes_logical > 0);
    assert!(stats.list_bytes_physical > 0);
    server.shutdown();
}

/// The serving layer works over the segmented engine unchanged — whose
/// segments are the paper's horizontal partition (Sec. VI): an `LsmDb` of
/// one sealed segment and a memtable, requests queued behind the writer
/// answered exactly as direct execution.
#[test]
fn sharded_engine_serves_through_the_same_api() {
    let mut writer = Writer::new(LsmDb::create_mem(LsmOptions::default()).unwrap());
    let name = writer.define_text("name").unwrap();
    for i in 0..40 {
        writer
            .insert(&Tuple::new().with(name, Value::text(format!("gadget {i}"))))
            .unwrap();
        if i == 24 {
            writer.flush().unwrap(); // seals 0..=24; the rest stays in the memtable
        }
    }
    let reader = writer.reader();
    {
        let snap = reader.snapshot();
        assert_eq!(snap.segments().len(), 1);
        assert_eq!(snap.memtable().live_records(), 15);
    }
    let server = Server::start(
        reader.clone(),
        ServeOptions {
            workers: 1,
            max_batch: 8,
        },
    );
    let queries: Vec<Query> = [7, 24, 25, 33, 39]
        .map(|i| Query::new().text(name, format!("gadget {i}")))
        .to_vec();
    // Hold the write lock until every request is queued: the one worker
    // blocks on its snapshot after taking the first, and answers the rest
    // from the queue once the writer lets go.
    let clients = writer
        .apply(|_| {
            let clients: Vec<_> = queries
                .iter()
                .map(|q| {
                    let (client, q) = (server.client(), q.clone());
                    std::thread::spawn(move || client.search(q, SearchRequest::new(3)).unwrap())
                })
                .collect();
            while server.stats().submitted < queries.len() as u64 {
                std::thread::yield_now();
            }
            Ok(clients)
        })
        .unwrap();
    for (query, client) in queries.iter().zip(clients) {
        let served = client.join().unwrap();
        let direct = reader.execute(query, &SearchRequest::new(3)).unwrap();
        assert_eq!(served.hit_keys(), direct.hit_keys());
        assert_eq!(served.hits[0].dist, 0.0);
    }
    assert_eq!(server.stats().completed, queries.len() as u64);
    server.shutdown();
}

/// A query number that is not a number used to come back `Ok`: every
/// lower bound was 0, every distance `NaN`, the pool's comparisons all
/// answered "equal" and the caller got the first k tuples with
/// `dist = NaN`. It is an invalid argument, at every door.
#[test]
fn non_finite_query_number_is_rejected_by_every_engine() {
    fn rejected<T>(r: Result<T>, what: &str) {
        match r {
            Err(IvaError::InvalidArgument(msg)) => assert!(msg.contains("non-finite"), "{msg}"),
            Err(e) => panic!("{what}: wrong error {e}"),
            Ok(_) => panic!("{what}: accepted"),
        }
    }
    let rows = |i: u32| Tuple::new().with(iva_file::AttrId(0), Value::num(f64::from(i)));
    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    let mut mono = IvaDb::create_mem(IvaDbOptions::default()).unwrap();
    let price = mono.define_numeric("price").unwrap();
    let mut lsm = LsmDb::create_mem(LsmOptions::default()).unwrap();
    assert_eq!(lsm.define_numeric("price").unwrap(), price);
    for i in 0..200 {
        mono.insert(&rows(i)).unwrap();
        lsm.insert(&rows(i)).unwrap();
        if i == 120 {
            lsm.flush().unwrap(); // a sealed segment and a memtable
        }
    }
    for v in bad {
        let q = Query::new().num(price, v);
        let req = SearchRequest::new(3);
        rejected(mono.execute(&q, &req), &format!("IvaDb {v}"));
        rejected(lsm.execute(&q, &req), &format!("LsmDb {v}"));
    }
    // The finite neighbours still answer.
    let ok = mono
        .execute(&Query::new().num(price, 7.0), &SearchRequest::new(3))
        .unwrap();
    assert_eq!(ok.hits[0].tid, 7);
    assert!(ok.hits.iter().all(|h| h.dist.is_finite()));

    let writer = Writer::new(mono);
    let server = Server::start(writer.reader(), ServeOptions::default());
    let client = server.client();
    for v in bad {
        let served = client.search(Query::new().num(price, v), SearchRequest::new(3));
        rejected(served, &format!("Client::search {v}"));
    }
    let served = client
        .search(Query::new().num(price, 7.0), SearchRequest::new(3))
        .unwrap();
    assert_eq!(served.hits[0].tid, 7);
    server.shutdown();
}

/// Epochs advance on every publication — including mutations that fail
/// after possibly partial application.
#[test]
fn failed_mutations_still_publish() {
    let (mut writer, _) = text_db(5);
    let before = writer.epoch();
    let err = writer
        .apply(|_db| -> Result<()> { Err(IvaError::InvalidArgument("deliberate failure".into())) });
    assert!(err.is_err());
    assert_eq!(
        writer.epoch(),
        before + 1,
        "failed publication must still bump the epoch"
    );
}

/// `into_inner` refuses to tear down serving while read handles exist.
#[test]
fn into_inner_guarded_by_live_readers() {
    let (writer, _) = text_db(3);
    let reader = writer.reader();
    let writer = match writer.into_inner() {
        Ok(_) => panic!("teardown succeeded with a live reader"),
        Err(w) => w,
    };
    drop(reader);
    let db = match writer.into_inner() {
        Ok(db) => db,
        Err(_) => panic!("teardown failed with no readers left"),
    };
    assert_eq!(db.len(), 3);
}

/// A stopped server rejects new submissions instead of hanging them.
#[test]
fn stopped_server_rejects_submissions() {
    let (writer, name) = text_db(4);
    let server = Server::start(writer.reader(), ServeOptions::default());
    let client = server.client();
    let query = Query::new().text(name, "item number 0001");
    assert!(client.search(query.clone(), SearchRequest::new(1)).is_ok());
    server.shutdown();
    let err = client.search(query, SearchRequest::new(1)).unwrap_err();
    assert!(err.to_string().contains("stopped"), "got: {err}");
}
