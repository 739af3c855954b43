//! `ivactl` — command-line front end for iVA-file databases.
//!
//! ```text
//! ivactl create  <dir>                                create an empty database
//! ivactl define  <dir> text|num <name>...             add attributes
//! ivactl insert  <dir> "attr=value;attr=value;..."    insert one tuple
//! ivactl search  <dir> <k> "attr=value;..." [l1|l2|linf] [equ|itf]
//! ivactl stats   <dir>                                sizes and counts
//! ivactl gen     <dir> <n_tuples>                     load a synthetic CWMS dataset
//! ivactl rebuild <dir>                                compact table + rebuild index
//! ivactl export-ciff <dir> <out-file>                 export the index (CIFF-style)
//! ```
//!
//! Values are typed by the catalog: numbers on numerical attributes parse
//! as f64; everything else is a string. Multi-string text values use `|`:
//! `industry=Computer|Software`.

use std::path::Path;
use std::process::ExitCode;

use iva_file::workload::{Dataset, WorkloadConfig};
use iva_file::{
    AttrType, IvaDb, IvaDbOptions, MetricKind, Query, SearchRequest, Tuple, Value, WeightScheme,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ivactl: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let usage =
        "usage: ivactl <create|define|insert|search|stats|gen|rebuild|export-ciff> <dir> ...";
    let cmd = args.first().ok_or(usage)?;
    let dir = Path::new(args.get(1).ok_or(usage)?);
    let opts = IvaDbOptions::default();
    match cmd.as_str() {
        "create" => {
            IvaDb::create(dir, opts).map_err(|e| e.to_string())?;
            println!("created database at {}", dir.display());
            Ok(())
        }
        "define" => {
            let kind = args.get(2).ok_or("define needs text|num")?;
            let mut db = IvaDb::open(dir, opts).map_err(|e| e.to_string())?;
            for name in &args[3..] {
                let id = match kind.as_str() {
                    "text" => db.define_text(name),
                    "num" | "numeric" => db.define_numeric(name),
                    other => return Err(format!("unknown attribute kind {other:?}")),
                }
                .map_err(|e| e.to_string())?;
                println!("{name} -> {id}");
            }
            db.flush().map_err(|e| e.to_string())
        }
        "insert" => {
            let spec = args.get(2).ok_or("insert needs \"attr=value;...\"")?;
            let mut db = IvaDb::open(dir, opts).map_err(|e| e.to_string())?;
            let tuple = parse_tuple(&db, spec)?;
            let tid = db.insert(&tuple).map_err(|e| e.to_string())?;
            db.flush().map_err(|e| e.to_string())?;
            println!("inserted tuple {tid}");
            Ok(())
        }
        "search" => {
            let k: usize = args
                .get(2)
                .ok_or("search needs k")?
                .parse()
                .map_err(|_| "k must be a number")?;
            let spec = args.get(3).ok_or("search needs \"attr=value;...\"")?;
            let metric = match args.get(4).map(String::as_str) {
                None | Some("l2") => MetricKind::L2,
                Some("l1") => MetricKind::L1,
                Some("linf") => MetricKind::LInf,
                Some(other) => return Err(format!("unknown metric {other:?}")),
            };
            let weights = match args.get(5).map(String::as_str) {
                None | Some("equ") => WeightScheme::Equal,
                Some("itf") => WeightScheme::Itf,
                Some(other) => return Err(format!("unknown weights {other:?}")),
            };
            let db = IvaDb::open(dir, opts).map_err(|e| e.to_string())?;
            let query = parse_query(&db, spec)?;
            let outcome = db
                .execute(
                    &query,
                    &SearchRequest::new(k).metric(metric).weights(weights),
                )
                .map_err(|e| e.to_string())?;
            let stats = outcome.stats;
            for (rank, hit) in outcome.hits.iter().enumerate() {
                println!("#{rank} tid={} dist={:.3}", hit.tid, hit.dist);
                for (attr, value) in hit.tuple.iter() {
                    let name = db
                        .table()
                        .catalog()
                        .def(attr)
                        .map(|d| d.name.clone())
                        .unwrap_or_else(|| attr.to_string());
                    match value {
                        Value::Text(s) => println!("    {name} = {}", s.join(" | ")),
                        Value::Num(v) => println!("    {name} = {v}"),
                    }
                }
            }
            println!(
                "scanned {} tuples, {} table accesses, {:.1} ms filter + {:.1} ms refine",
                stats.tuples_scanned,
                stats.table_accesses,
                stats.filter_ms(),
                stats.refine_ms()
            );
            Ok(())
        }
        "stats" => {
            let db = IvaDb::open(dir, opts).map_err(|e| e.to_string())?;
            println!("tuples (live):     {}", db.len());
            println!("attributes:        {}", db.table().catalog().len());
            println!(
                "table file:        {} bytes",
                db.table().file().size_bytes()
            );
            println!("iVA-file:          {} bytes", db.index().size_bytes());
            println!("deleted fraction:  {:.2} %", db.deleted_fraction() * 100.0);
            let cfg = db.index().config();
            println!(
                "index config:      alpha={:.0}% n={} ndf-penalty={}",
                cfg.alpha * 100.0,
                cfg.n,
                cfg.ndf_penalty
            );
            Ok(())
        }
        "gen" => {
            let n: usize = args
                .get(2)
                .ok_or("gen needs a tuple count")?
                .parse()
                .map_err(|_| "tuple count must be a number")?;
            let dataset = Dataset::generate(&WorkloadConfig::scaled(n));
            let mut db = IvaDb::create(dir, opts).map_err(|e| e.to_string())?;
            for (i, ty) in dataset.attr_types.iter().enumerate() {
                let name = format!("attr_{i}");
                match ty {
                    AttrType::Text => db.define_text(&name),
                    AttrType::Numeric => db.define_numeric(&name),
                }
                .map_err(|e| e.to_string())?;
            }
            for t in &dataset.tuples {
                db.insert(t).map_err(|e| e.to_string())?;
            }
            db.rebuild().map_err(|e| e.to_string())?;
            db.flush().map_err(|e| e.to_string())?;
            println!(
                "generated {} tuples over {} attributes into {}",
                n,
                dataset.attr_types.len(),
                dir.display()
            );
            Ok(())
        }
        "rebuild" => {
            let mut db = IvaDb::open(dir, opts).map_err(|e| e.to_string())?;
            db.rebuild().map_err(|e| e.to_string())?;
            db.flush().map_err(|e| e.to_string())?;
            println!("rebuilt table + index");
            Ok(())
        }
        "export-ciff" => {
            let out = Path::new(args.get(2).ok_or("export-ciff needs an output file")?);
            let db = IvaDb::open(dir, opts).map_err(|e| e.to_string())?;
            let bytes = iva_baselines::export_iva(db.index()).map_err(|e| e.to_string())?;
            iva_file::vfs::write_vec(&iva_file::vfs::RealVfs, out, &bytes)
                .map_err(|e| e.to_string())?;
            println!(
                "exported {} tuples / {} attributes: {} index bytes -> {} CIFF bytes at {}",
                db.index().n_tuples(),
                db.table().catalog().len(),
                db.index().size_bytes(),
                bytes.len(),
                out.display()
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{usage}")),
    }
}

fn split_spec(spec: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    spec.split(';')
        .filter(|s| !s.trim().is_empty())
        .map(|pair| {
            pair.split_once('=')
                .map(|(a, v)| (a.trim(), v.trim()))
                .ok_or_else(|| format!("bad field {pair:?}, expected attr=value"))
        })
}

fn parse_tuple(db: &IvaDb, spec: &str) -> Result<Tuple, String> {
    let mut t = Tuple::new();
    for field in split_spec(spec) {
        let (name, raw) = field?;
        let attr = db
            .attr(name)
            .ok_or_else(|| format!("unknown attribute {name:?}"))?;
        match db.table().catalog().attr_type(attr) {
            Some(AttrType::Numeric) => {
                let v: f64 = raw
                    .parse()
                    .map_err(|_| format!("{name}: {raw:?} is not a number"))?;
                t.set(attr, Value::num(v));
            }
            _ => {
                let strings: Vec<String> = raw.split('|').map(str::to_string).collect();
                t.set(attr, Value::Text(strings));
            }
        }
    }
    Ok(t)
}

fn parse_query(db: &IvaDb, spec: &str) -> Result<Query, String> {
    let mut q = Query::new();
    for field in split_spec(spec) {
        let (name, raw) = field?;
        let attr = db
            .attr(name)
            .ok_or_else(|| format!("unknown attribute {name:?}"))?;
        match db.table().catalog().attr_type(attr) {
            Some(AttrType::Numeric) => {
                let v: f64 = raw
                    .parse()
                    .map_err(|_| format!("{name}: {raw:?} is not a number"))?;
                q = q.num(attr, v);
            }
            _ => q = q.text(attr, raw),
        }
    }
    Ok(q)
}
