//! The host block printed with every result: what the numbers were
//! measured on. Everything is read through the `Vfs` seam.

use std::path::Path;

use iva_storage::{RealVfs, Vfs};

use crate::json::Json;

/// Read a whole file through the seam. Unlike `read_to_vec` this does
/// not trust `len()`, which is 0 for `/proc` files.
fn read_text(path: &Path) -> Option<String> {
    let file = RealVfs.open(path).ok()?;
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = file.read_at(&mut buf, out.len() as u64).ok()?;
        if n == 0 {
            break;
        }
        out.extend_from_slice(buf.get(..n)?);
    }
    String::from_utf8(out).ok()
}

/// Value of the first `key: value` line of a `/proc`-style file.
fn field(text: &str, key: &str) -> Option<String> {
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// Cores this process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process high-water resident set, MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = read_text(Path::new("/proc/self/status"))?;
    let kb: f64 = field(&status, "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `(stolen, total)` CPU ticks of the whole host since boot, from the
/// first line of `/proc/stat`. The difference over a run says what share
/// of the cores' time other tenants took.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = read_text(Path::new("/proc/stat"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

fn cpu_model() -> String {
    read_text(Path::new("/proc/cpuinfo"))
        .and_then(|t| field(&t, "model name"))
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type and source of the mount holding `dir`: the longest
/// mount point of `/proc/self/mountinfo` that prefixes it.
fn storage_backing(dir: &Path) -> String {
    let Some(info) = read_text(Path::new("/proc/self/mountinfo")) else {
        return "unknown".into();
    };
    let abs = std::env::current_dir()
        .map(|cwd| cwd.join(dir))
        .unwrap_or_else(|_| dir.to_path_buf());
    info.lines()
        .filter_map(|line| {
            // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <super opts>"
            let (head, tail) = line.split_once(" - ")?;
            let mount = head.split(' ').nth(4)?;
            let mut tail = tail.split(' ');
            let (fstype, source) = (tail.next()?, tail.next()?);
            abs.starts_with(mount)
                .then(|| (mount.len(), format!("{fstype} ({source}) at {mount}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, desc)| desc)
}

/// The commit of the checkout the benchmark runs in, when it is a git
/// repository (the driver's checkouts are not).
fn git_commit() -> String {
    let Some(head) = read_text(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read_text(&Path::new(".git").join(r))
            .map_or_else(|| head.to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

/// The host block.
pub fn block(scratch: &Path) -> Json {
    Json::obj([
        ("host_cores", Json::Int(cores() as u64)),
        ("cpu_model", Json::str(cpu_model())),
        ("storage_backing", Json::str(storage_backing(scratch))),
        (
            "storage_note",
            Json::str(
                "files on RealVfs, OS page cache warm, flushes counted and not carried out: latency is the sandbox's, not a device's",
            ),
        ),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit", Json::str(git_commit())),
    ])
}
