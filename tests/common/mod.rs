//! Helpers shared by the integration tests. Each test crate uses only
//! some of them.
#![allow(dead_code)]

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty directory under the system temp directory, removed with
/// everything in it when the guard drops, also when the test fails.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<temp>/<prefix>-<pid>-<tag>`, removing a leftover of the
    /// same name first.
    pub fn new(prefix: &str, tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("{prefix}-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A command whose working directory is a [`TempDir`] that lives as long
/// as the command.
pub struct CommandIn {
    cmd: Command,
    _cwd: TempDir,
}

impl CommandIn {
    /// `program`, to run in `cwd`.
    pub fn new(program: &str, cwd: TempDir) -> Self {
        let mut cmd = Command::new(program);
        cmd.current_dir(&cwd);
        CommandIn { cmd, _cwd: cwd }
    }
}

impl Deref for CommandIn {
    type Target = Command;

    fn deref(&self) -> &Command {
        &self.cmd
    }
}

impl DerefMut for CommandIn {
    fn deref_mut(&mut self) -> &mut Command {
        &mut self.cmd
    }
}
