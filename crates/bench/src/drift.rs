//! The drift gate shared by the bins that render a committed document
//! (`paper_tables`, `policy_study`, `transfer_study`).
//!
//! Run bare, such a bin rewrites its document; with `--check` it compares
//! the committed file with the one the code renders and fails on any
//! difference (CI runs this form); `--force` recomputes cached artifacts
//! instead of reading them from the store.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Exit status of a usage error, as in the `ffr` CLI.
const USAGE_EXIT: u8 = 64;

/// The flags of a doc-generating bin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DocArgs {
    /// Compare with the committed document instead of rewriting it.
    pub check: bool,
    /// Recompute cached artifacts.
    pub force: bool,
}

impl DocArgs {
    /// Parse `--check` / `--force`. An unknown flag is reported on stderr
    /// and yields the usage-error exit status 64.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<DocArgs, u8> {
        let mut parsed = DocArgs::default();
        for arg in args {
            match arg.as_str() {
                "--check" => parsed.check = true,
                "--force" => parsed.force = true,
                _ => {
                    eprintln!("unknown option `{arg}` (supported: --check, --force)");
                    return Err(USAGE_EXIT);
                }
            }
        }
        Ok(parsed)
    }

    /// [`DocArgs::parse`] over the process arguments.
    pub fn from_env() -> Result<DocArgs, u8> {
        DocArgs::parse(std::env::args().skip(1))
    }
}

/// A generated markdown document committed to the repository.
pub struct CommittedDoc {
    /// Name used in messages, e.g. `docs/policy-study.md`.
    name: String,
    /// Where the document lives.
    path: PathBuf,
    /// The `ffr-bench` bin that renders it.
    bin: &'static str,
}

impl CommittedDoc {
    /// The document at `rel` under the repository root, rendered by `bin`.
    pub fn in_repo(rel: &str, bin: &'static str) -> CommittedDoc {
        CommittedDoc {
            name: rel.to_string(),
            path: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(rel),
            bin,
        }
    }

    fn regenerate_command(&self) -> String {
        format!("`cargo run --release -p ffr-bench --bin {}`", self.bin)
    }

    /// With `check`, compare the committed document with `rendered`;
    /// otherwise write `rendered` to it. `Ok` carries the line for stdout,
    /// `Err` the report for stderr.
    pub fn sync(&self, rendered: &str, check: bool) -> Result<String, String> {
        if !check {
            if let Some(parent) = self.path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            return match std::fs::write(&self.path, rendered) {
                Ok(()) => Ok(format!(
                    "{} regenerated ({})",
                    self.name,
                    self.path.display()
                )),
                Err(e) => Err(format!("failed to write {}: {e}", self.path.display())),
            };
        }
        let committed = std::fs::read_to_string(&self.path).map_err(|e| {
            format!(
                "--check: cannot read {} ({e}); generate it first with {}",
                self.path.display(),
                self.regenerate_command()
            )
        })?;
        if committed == rendered {
            return Ok(format!("{} is up to date", self.name));
        }
        Err(self.drift_report(&committed, rendered))
    }

    /// The first differing line of a stale document, and the line counts
    /// when they differ.
    fn drift_report(&self, committed: &str, rendered: &str) -> String {
        let old: Vec<&str> = committed.lines().collect();
        let new: Vec<&str> = rendered.lines().collect();
        let mut report = format!(
            "{} is stale: the committed file differs from the one the code generates.\n",
            self.name
        );
        match (0..old.len().max(new.len())).find(|&i| old.get(i) != new.get(i)) {
            Some(i) => {
                let eof = "(end of file)";
                let _ = writeln!(report, "First differing line:\n  line {}:", i + 1);
                let _ = writeln!(report, "  - {}", old.get(i).unwrap_or(&eof));
                let _ = writeln!(report, "  + {}", new.get(i).unwrap_or(&eof));
            }
            None => {
                report.push_str("Every line agrees; the line endings or final newline differ.\n")
            }
        }
        if old.len() != new.len() {
            let _ = writeln!(
                report,
                "  (line counts differ: {} committed vs {} generated)",
                old.len(),
                new.len()
            );
        }
        let _ = write!(report, "Regenerate with {}.", self.regenerate_command());
        report
    }

    /// [`CommittedDoc::sync`], printing its outcome and mapping it to the
    /// bin's exit status.
    pub fn finish(&self, rendered: &str, check: bool) -> ExitCode {
        match self.sync(rendered, check) {
            Ok(message) => {
                println!("{message}");
                ExitCode::SUCCESS
            }
            Err(report) => {
                eprintln!("{report}");
                ExitCode::from(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A document in a fresh temp directory (the file itself is absent).
    fn temp_doc(test: &str) -> CommittedDoc {
        let dir =
            std::env::temp_dir().join(format!("ffr-bench-drift-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CommittedDoc {
            name: "docs/study.md".to_string(),
            path: dir.join("docs/study.md"),
            bin: "study",
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn equal_doc_passes_the_check() {
        let doc = temp_doc("equal");
        doc.sync("# T\n| a |\n", false).expect("write");
        assert_eq!(
            doc.sync("# T\n| a |\n", true),
            Ok("docs/study.md is up to date".to_string())
        );
    }

    #[test]
    fn changed_line_fails_naming_that_line() {
        let doc = temp_doc("changed");
        doc.sync("# T\n| 0.961 |\n| b |\n", false).expect("write");
        let report = doc.sync("# T\n| 0.962 |\n| b |\n", true).unwrap_err();
        assert!(
            report.contains("line 2:\n  - | 0.961 |\n  + | 0.962 |"),
            "{report}"
        );
        assert!(!report.contains("line counts differ"), "{report}");
    }

    #[test]
    fn committed_prefix_fails_naming_both_line_counts() {
        let doc = temp_doc("prefix");
        doc.sync("# T\n| a |\n", false).expect("write");
        let report = doc.sync("# T\n| a |\n| b |\n", true).unwrap_err();
        assert!(
            report.contains("line 3:\n  - (end of file)\n  + | b |"),
            "{report}"
        );
        assert!(
            report.contains("line counts differ: 2 committed vs 3 generated"),
            "{report}"
        );
    }

    #[test]
    fn missing_doc_fails_naming_the_regenerate_command() {
        let doc = temp_doc("missing");
        let report = doc.sync("# T\n", true).unwrap_err();
        assert!(report.contains("cannot read"), "{report}");
        assert!(
            report.contains("`cargo run --release -p ffr-bench --bin study`"),
            "{report}"
        );
    }

    #[test]
    fn write_mode_writes_the_doc() {
        let doc = temp_doc("write");
        let message = doc.sync("# T\n", false).expect("write");
        assert!(
            message.starts_with("docs/study.md regenerated"),
            "{message}"
        );
        assert_eq!(std::fs::read_to_string(&doc.path).expect("read"), "# T\n");
    }

    #[test]
    fn flags_parse_and_unknown_flag_is_a_usage_error() {
        assert_eq!(DocArgs::parse(args(&[])), Ok(DocArgs::default()));
        assert_eq!(
            DocArgs::parse(args(&["--force", "--check"])),
            Ok(DocArgs {
                check: true,
                force: true
            })
        );
        assert_eq!(
            DocArgs::parse(args(&["--check", "--chek"])),
            Err(USAGE_EXIT)
        );
        assert_eq!(USAGE_EXIT, 64);
    }
}
