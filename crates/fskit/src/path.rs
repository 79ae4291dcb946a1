//! Path normalization and traversal helpers.
//!
//! All file systems in this workspace use absolute, `/`-separated paths.
//! These helpers centralize validation so every implementation rejects the
//! same malformed inputs.

use crate::error::{FsError, FsResult};

/// Splits an absolute path into its components.
///
/// `"/"` yields an empty vector. Consecutive slashes and a trailing slash are
/// tolerated; `.` and `..` components, empty paths and relative paths are
/// rejected.
///
/// # Errors
///
/// Returns [`FsError::InvalidPath`] for relative paths, empty paths, or paths
/// containing `.` / `..` components.
///
/// ```
/// use fskit::path::components;
/// assert_eq!(components("/a/b/c").unwrap(), vec!["a", "b", "c"]);
/// assert!(components("relative/path").is_err());
/// ```
pub fn components(path: &str) -> FsResult<Vec<&str>> {
    if path.is_empty() {
        return Err(FsError::InvalidPath(path.to_string()));
    }
    if !path.starts_with('/') {
        return Err(FsError::InvalidPath(path.to_string()));
    }
    let mut out = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" => continue,
            "." | ".." => return Err(FsError::InvalidPath(path.to_string())),
            c => out.push(c),
        }
    }
    Ok(out)
}

/// Splits a path into `(parent components, final name)`.
///
/// # Errors
///
/// Returns [`FsError::InvalidPath`] if the path is the root (`/`) or is
/// malformed.
pub fn split_parent(path: &str) -> FsResult<(Vec<&str>, &str)> {
    let mut comps = components(path)?;
    match comps.pop() {
        Some(name) => Ok((comps, name)),
        None => Err(FsError::InvalidPath(path.to_string())),
    }
}

/// Joins a parent path and a child name into an absolute path.
pub fn join(parent: &str, name: &str) -> String {
    if parent == "/" {
        format!("/{name}")
    } else {
        format!("{}/{}", parent.trim_end_matches('/'), name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_has_no_components() {
        assert_eq!(components("/").unwrap(), Vec::<&str>::new());
    }

    #[test]
    fn normal_paths_split() {
        assert_eq!(components("/a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(components("/a//b/").unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn invalid_paths_rejected() {
        assert!(components("").is_err());
        assert!(components("a/b").is_err());
        assert!(components("/a/./b").is_err());
        assert!(components("/a/../b").is_err());
    }

    #[test]
    fn split_parent_works() {
        let (parent, name) = split_parent("/a/b/c").unwrap();
        assert_eq!(parent, vec!["a", "b"]);
        assert_eq!(name, "c");
        let (parent, name) = split_parent("/top").unwrap();
        assert!(parent.is_empty());
        assert_eq!(name, "top");
        assert!(split_parent("/").is_err());
    }

    #[test]
    fn join_handles_root() {
        assert_eq!(join("/", "x"), "/x");
        assert_eq!(join("/a/b", "x"), "/a/b/x");
        assert_eq!(join("/a/b/", "x"), "/a/b/x");
    }
}
