//! What the benchmark needs from the host: a clean environment, a scratch
//! directory inside the checkout, peak memory, and the facts a reader needs
//! to interpret a number (cores, toolchain, filesystem).

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// Removes every ambient `VERTEXICA_*` variable from this process's
/// environment (and so from every child it starts): several of them silently
/// change `VertexicaConfig::default()`. Must run before any thread starts.
pub fn scrub_env() {
    let ambient: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("VERTEXICA_"))
        .collect();
    for key in ambient {
        std::env::remove_var(key);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where durable workloads keep their databases: beside the benchmark's
/// executable, which is inside the build directory and therefore inside the
/// checkout and ignored by git.
pub fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
        .join("vxbench-tmp")
}

/// A directory removed when dropped, so a failed run leaves nothing behind.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(label: &str) -> std::io::Result<ScratchDir> {
        let path = scratch_root().join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// This process's peak resident set (`VmHWM`) in MB; `None` where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host disclosure written at the top of every report.
pub fn disclosure() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("git_rev", Json::str(command_line("git", &["rev-parse", "--short", "HEAD"]))),
        ("scratch_dir", Json::str(scratch_root().to_string_lossy())),
        ("scratch_fs", Json::str(fs_type(&scratch_root()))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop_and_sized_while_alive() {
        let dir = ScratchDir::create("host-test").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::create_dir_all(path.join("sub")).unwrap();
        std::fs::write(path.join("a"), [0u8; 10]).unwrap();
        std::fs::write(path.join("sub/b"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&path), 15);
        assert!(path.starts_with(scratch_root()));
        drop(dir);
        assert!(!path.exists());
        assert_eq!(dir_bytes(&path), 0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }

    #[test]
    fn fs_type_resolves_the_root_mount() {
        if Path::new("/proc/self/mounts").exists() {
            assert_ne!(fs_type(Path::new("/")), "unknown");
        }
    }
}
