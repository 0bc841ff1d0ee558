//! Running containers: install packages, record environment details.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::digest::{Digest, DigestBuilder};
use crate::fs::FileSystem;
use crate::image::Image;
use crate::registry::{Package, PackageRegistry};

/// Errors from container operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Requested package/version is not in the registry.
    UnknownPackage {
        /// Package name.
        name: String,
        /// Requested version.
        version: String,
    },
    /// A different version of the package is already installed — the
    /// reproducibility rules forbid silent version mixing.
    VersionConflict {
        /// Package name.
        name: String,
        /// Installed version.
        installed: String,
        /// Requested version.
        requested: String,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::UnknownPackage { name, version } => {
                write!(f, "package `{name}` version `{version}` not found in the registry")
            }
            ContainerError::VersionConflict { name, installed, requested } => write!(
                f,
                "package `{name}` already installed at `{installed}`, requested `{requested}`"
            ),
        }
    }
}

impl Error for ContainerError {}

/// One install action, for the experiment log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallEvent {
    /// Package name.
    pub name: String,
    /// Installed version.
    pub version: String,
    /// Bytes added to the container.
    pub size: u64,
    /// Whether this was pulled in as a dependency.
    pub as_dependency: bool,
}

/// A running container: image + writable layer + installed package set.
#[derive(Debug, Clone)]
pub struct Container {
    image_digest: Digest,
    image_name: String,
    fs: FileSystem,
    installed: BTreeMap<String, (String, u64)>,
    env: BTreeMap<String, String>,
    install_log: Vec<InstallEvent>,
}

impl Container {
    /// Starts a container from an image (adds a writable layer).
    pub fn start(image: &Image) -> Self {
        let mut fs = image.filesystem().clone();
        fs.push_layer(crate::fs::Layer::new());
        Container {
            image_digest: image.digest(),
            image_name: image.name().to_string(),
            fs,
            installed: BTreeMap::new(),
            env: BTreeMap::new(),
            install_log: Vec::new(),
        }
    }

    /// The base image's digest.
    pub fn image_digest(&self) -> Digest {
        self.image_digest
    }

    /// The unified filesystem view.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Mutable filesystem access (experiment scripts write logs/results).
    pub fn fs_mut(&mut self) -> &mut FileSystem {
        &mut self.fs
    }

    /// Sets an environment variable inside the container.
    pub fn set_env(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.env.insert(key.into(), value.into());
    }

    /// Reads an environment variable.
    pub fn env(&self, key: &str) -> Option<&str> {
        self.env.get(key).map(String::as_str)
    }

    /// Installs a package (and its dependencies, depth-first) from the
    /// registry. Idempotent for same-version re-installs.
    ///
    /// # Errors
    ///
    /// [`ContainerError::UnknownPackage`] if the exact version is absent;
    /// [`ContainerError::VersionConflict`] if a different version of the
    /// same package is already present.
    pub fn install(
        &mut self,
        registry: &PackageRegistry,
        name: &str,
        version: &str,
    ) -> Result<(), ContainerError> {
        self.install_inner(registry, name, version, false)
    }

    fn install_inner(
        &mut self,
        registry: &PackageRegistry,
        name: &str,
        version: &str,
        as_dependency: bool,
    ) -> Result<(), ContainerError> {
        if let Some((installed, _)) = self.installed.get(name) {
            if installed == version {
                return Ok(());
            }
            return Err(ContainerError::VersionConflict {
                name: name.to_string(),
                installed: installed.clone(),
                requested: version.to_string(),
            });
        }
        let pkg: Package = registry.fetch(name, version).cloned().ok_or_else(|| {
            ContainerError::UnknownPackage { name: name.to_string(), version: version.to_string() }
        })?;
        for (dep_name, dep_version) in &pkg.deps {
            self.install_inner(registry, dep_name, dep_version, true)?;
        }
        self.fs.write(
            format!("/opt/{}/{}/.installed", pkg.name, pkg.version),
            format!("{} {} {} bytes", pkg.name, pkg.version, pkg.size).into_bytes(),
        );
        self.installed.insert(pkg.name.clone(), (pkg.version.clone(), pkg.size));
        self.install_log.push(InstallEvent {
            name: pkg.name,
            version: pkg.version,
            size: pkg.size,
            as_dependency,
        });
        Ok(())
    }

    /// Whether an exact package version is installed.
    pub fn installed(&self, name: &str, version: &str) -> bool {
        self.installed.get(name).map(|(v, _)| v == version).unwrap_or(false)
    }

    /// The install log, in order.
    pub fn install_log(&self) -> &[InstallEvent] {
        &self.install_log
    }

    /// Digest of the complete experimental environment: image, installed
    /// package set and environment variables. Two containers with equal
    /// environment digests run experiments under identical software stacks
    /// — the paper's reproducibility criterion.
    pub fn environment_digest(&self) -> Digest {
        let mut b = DigestBuilder::new();
        b.update(&self.image_digest.0.to_le_bytes());
        for (name, (version, _)) in &self.installed {
            b.update_str(name);
            b.update_str(version);
        }
        for (k, v) in &self.env {
            b.update_str(k);
            b.update_str(v);
        }
        b.finish()
    }

    /// A human-readable environment report, mirroring the paper's "FEX
    /// outputs various environment details, so that the complete
    /// experimental setup is stored in the log file" (§VI).
    pub fn environment_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "image: {} ({})", self.image_name, self.image_digest);
        let _ = writeln!(s, "environment digest: {}", self.environment_digest());
        let _ = writeln!(s, "installed packages:");
        for (name, (version, size)) in &self.installed {
            let _ = writeln!(s, "  {name} {version} ({} MiB)", size / (1024 * 1024));
        }
        let _ = writeln!(s, "environment variables:");
        for (k, v) in &self.env {
            let _ = writeln!(s, "  {k}={v}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PackageRegistry, Container) {
        let r = PackageRegistry::standard();
        let c = Container::start(&Image::fex_shipping_image());
        (r, c)
    }

    #[test]
    fn install_resolves_dependencies() {
        let (r, mut c) = setup();
        c.install(&r, "nginx", "1.4.0").unwrap();
        assert!(c.installed("nginx", "1.4.0"));
        assert!(c.installed("openssl", "1.0.1f"));
        assert!(c.fs().exists("/opt/nginx/1.4.0/.installed"));
        let log = c.install_log();
        assert!(log[0].as_dependency);
        assert_eq!(log[1].name, "nginx");
    }

    #[test]
    fn reinstall_same_version_is_idempotent() {
        let (r, mut c) = setup();
        c.install(&r, "gcc", "6.1.0").unwrap();
        c.install(&r, "gcc", "6.1.0").unwrap();
        assert_eq!(c.install_log().iter().filter(|e| e.name == "gcc").count(), 1);
    }

    #[test]
    fn version_conflicts_are_rejected() {
        let (r, mut c) = setup();
        c.install(&r, "gcc", "6.1.0").unwrap();
        let err = c.install(&r, "gcc", "5.4.0").unwrap_err();
        assert!(matches!(err, ContainerError::VersionConflict { .. }));
    }

    #[test]
    fn unknown_packages_are_rejected() {
        let (r, mut c) = setup();
        let err = c.install(&r, "gcc", "99.0").unwrap_err();
        assert_eq!(
            err,
            ContainerError::UnknownPackage { name: "gcc".into(), version: "99.0".into() }
        );
    }

    #[test]
    fn environment_digest_captures_the_full_stack() {
        let (r, mut a) = setup();
        let (_, mut b) = setup();
        a.install(&r, "gcc", "6.1.0").unwrap();
        b.install(&r, "gcc", "6.1.0").unwrap();
        assert_eq!(a.environment_digest(), b.environment_digest());
        b.set_env("ASAN_OPTIONS", "detect_leaks=0");
        assert_ne!(a.environment_digest(), b.environment_digest());
        let (_, mut d) = setup();
        d.install(&r, "gcc", "5.4.0").unwrap();
        assert_ne!(a.environment_digest(), d.environment_digest());
    }

    #[test]
    fn environment_report_lists_everything() {
        let (r, mut c) = setup();
        c.install(&r, "clang", "3.8.0").unwrap();
        c.set_env("BUILD_TYPE", "clang_native");
        let rep = c.environment_report();
        assert!(rep.contains("clang 3.8.0"));
        assert!(rep.contains("BUILD_TYPE=clang_native"));
        assert!(rep.contains("environment digest"));
    }
}
