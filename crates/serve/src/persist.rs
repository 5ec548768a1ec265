//! Atomic rewrites of a job's small state files that reuse inodes.
//!
//! A job rewrites `state.json` at every transition, `checkpoint.json`
//! every `checkpoint_every` CR&P iterations and `gp_checkpoint.json`
//! every `checkpoint_every` GP iterations. The classic atomic rewrite
//! (write `<name>.tmp`, rename it over `<name>`) creates one inode and
//! frees another per write. On file systems where creating a file is
//! slow and grows slower with recent create/delete churn (ext4 without
//! a journal on a 2-vCPU VM: ~20 µs to over 1 ms per file), that churn
//! was most of a short job's latency, and it grew with the job rate.
//!
//! [`replace_file`] keeps the same guarantee — whoever reads `<name>`,
//! a live reader or a restart after a crash at any point, sees either
//! the old or the new contents — with the same two inodes every time:
//! the new bytes overwrite a spare file `<name>.tmp`, the spare takes
//! the name `<name>`, and the file `<name>` held before stays alive
//! under a second hard link (`<name>.old`) and becomes the next spare.
//! [`remove_spares`] deletes the spare files of a job that will not
//! write again, so a finished job's directory holds what it did before.

use std::ffi::OsString;
use std::io::Write;
use std::path::{Path, PathBuf};

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map_or_else(OsString::new, OsString::from);
    name.push(suffix);
    path.with_file_name(name)
}

/// Replaces the contents of `path` with `bytes` atomically.
///
/// After the first two writes to the same path no inode is created or
/// freed: the spare is overwritten in place (truncated only when the new
/// contents are shorter) and the two files trade names. Where hard links
/// are unavailable it falls back to a plain rename over `path`.
///
/// # Errors
///
/// Returns the first I/O error; `path` then still holds its old
/// contents.
pub(crate) fn replace_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let spare = sibling(path, ".tmp");
    let mut file = std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&spare)?;
    file.write_all(bytes)?;
    file.set_len(bytes.len() as u64)?;
    drop(file);
    // A crash between the renames below leaves `.old` behind; it names
    // the previous contents, which nothing reads any more.
    let held = sibling(path, ".old");
    let _ = std::fs::remove_file(&held);
    if std::fs::hard_link(path, &held).is_err() {
        // No previous file (the first write) or no hard links here.
        return std::fs::rename(&spare, path);
    }
    std::fs::rename(&spare, path)?;
    // `path` holds the new contents now. Should this rename fail, the
    // next call removes `.old` and creates a fresh spare instead.
    let _ = std::fs::rename(&held, &spare);
    Ok(())
}

/// Deletes the spare files [`replace_file`] keeps next to `path`, best
/// effort. Call it once `path` will not be rewritten again.
pub(crate) fn remove_spares(path: &Path) {
    for suffix in [".tmp", ".old"] {
        let _ = std::fs::remove_file(sibling(path, suffix));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(unix)]
    use std::os::unix::fs::MetadataExt;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("crp-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_write_is_read_back_whole() {
        let dir = tmp_dir("whole");
        let path = dir.join("state.json");
        for text in [
            "{\"state\":\"queued\"}",
            "{\"state\":\"running\"}",
            "{}",
            "a much longer body than before",
        ] {
            replace_file(&path, text.as_bytes()).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
        assert!(!sibling(&path, ".old").exists());
        remove_spares(&path);
        assert!(!sibling(&path, ".tmp").exists());
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn rewrites_trade_the_same_two_inodes() {
        let dir = tmp_dir("inodes");
        let path = dir.join("checkpoint.json");
        replace_file(&path, b"v1").unwrap();
        replace_file(&path, b"v2").unwrap();
        let ino = |p: &Path| std::fs::metadata(p).unwrap().ino();
        let pair = [ino(&path), ino(&sibling(&path, ".tmp"))];
        for v in 3..8 {
            replace_file(&path, format!("v{v}").as_bytes()).unwrap();
            let now = [ino(&path), ino(&sibling(&path, ".tmp"))];
            assert!(
                now == pair || now == [pair[1], pair[0]],
                "{now:?} vs {pair:?}"
            );
            assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("v{v}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftovers_of_an_interrupted_write_are_harmless() {
        let dir = tmp_dir("crash");
        let path = dir.join("state.json");
        replace_file(&path, b"old").unwrap();
        // Crashed after the spare was written and linked, before the
        // renames: the spare holds torn bytes and `.old` names `path`.
        std::fs::write(sibling(&path, ".tmp"), b"to").unwrap();
        std::fs::hard_link(&path, sibling(&path, ".old")).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old");
        replace_file(&path, b"new").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "new");
        assert_eq!(
            std::fs::read_to_string(sibling(&path, ".tmp")).unwrap(),
            "old"
        );
        assert!(!sibling(&path, ".old").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
