//! The one command-line flag path of the `greenness` and `repro` binaries.
//!
//! [`Args`] is a cursor over the raw arguments that accepts both spellings
//! of a valued flag, `--flag V` and `--flag=V`; [`GridFlags`] is the flag
//! set every grid command shares (`--jobs`, `--trace`, `--metrics`,
//! `--fault-seed`) and the artifact-writing tail that goes with it. Every
//! malformed input exits 2 with a one-line message.

use std::str::FromStr;

fn fail(message: std::fmt::Arguments<'_>) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// Parse `s` as a `T`, or exit 2 with `invalid <what>: <s>`.
pub fn parse<T: FromStr>(s: &str, what: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| fail(format_args!("invalid {what}: {s}")))
}

/// Cursor over a command's arguments.
pub struct Args {
    rest: std::vec::IntoIter<String>,
    /// The flag [`Args::next_arg`] returned last, for error messages.
    flag: String,
    /// The `V` of a `--flag=V` argument until a value method takes it.
    inline: Option<String>,
}

impl Args {
    /// Start at the first of `args`.
    pub fn new(args: Vec<String>) -> Self {
        Args {
            rest: args.into_iter(),
            flag: String::new(),
            inline: None,
        }
    }

    /// The next argument; `--flag=V` yields `--flag` and holds `V` for the
    /// value methods. Exits 2 when the previous flag was given a `=V` it
    /// does not take.
    pub fn next_arg(&mut self) -> Option<String> {
        if let Some(v) = &self.inline {
            fail(format_args!("{} takes no value (got '{v}')", self.flag));
        }
        let arg = self.rest.next()?;
        self.flag = match arg.split_once('=') {
            Some((flag, v)) if flag.starts_with("--") => {
                self.inline = Some(v.to_string());
                flag.to_string()
            }
            _ => arg,
        };
        Some(self.flag.clone())
    }

    /// The current flag's value: the inline `=V` or the next argument.
    /// Exits 2 with `<flag> needs a value` when there is neither.
    pub fn text(&mut self) -> String {
        self.inline
            .take()
            .or_else(|| self.rest.next())
            .unwrap_or_else(|| fail(format_args!("{} needs a value", self.flag)))
    }

    /// The current flag's value parsed as a `T` (see [`parse`]).
    pub fn value<T: FromStr>(&mut self, what: &str) -> T {
        parse(&self.text(), what)
    }

    /// The current flag's value as one of a closed set of names, or exit 2
    /// with `invalid <what>: <s> (<options>)`.
    pub fn choice<T>(&mut self, what: &str, options: &str, parse: fn(&str) -> Option<T>) -> T {
        let s = self.text();
        parse(&s).unwrap_or_else(|| fail(format_args!("invalid {what}: {s} ({options})")))
    }
}

/// The flags every grid command (`placement`, `cluster`, `repro`) accepts.
pub struct GridFlags {
    /// `--jobs N` / `-j N`: worker threads (default: all cores).
    pub jobs: usize,
    /// `--trace PATH`: where to write the grid's event journal.
    pub trace_path: Option<String>,
    /// `--metrics PATH`: where to write the grid's metrics registry.
    pub metrics_path: Option<String>,
    /// `--fault-seed N`: base seed of the grid's fault plan.
    pub fault_seed: Option<u64>,
}

impl Default for GridFlags {
    fn default() -> Self {
        GridFlags {
            jobs: crate::default_jobs(),
            trace_path: None,
            metrics_path: None,
            fault_seed: None,
        }
    }
}

impl GridFlags {
    /// Consume `flag`'s value from `args` if it is one of the grid flags;
    /// `false` leaves `args` untouched for the command's own flags.
    pub fn take(&mut self, flag: &str, args: &mut Args) -> bool {
        match flag {
            "--jobs" | "-j" => self.jobs = args.value("worker count"),
            "--trace" => self.trace_path = Some(args.text()),
            "--metrics" => self.metrics_path = Some(args.text()),
            "--fault-seed" => self.fault_seed = Some(args.value("fault seed")),
            _ => return false,
        }
        true
    }

    /// Either observability flag turns tracing on for every grid job.
    pub fn traced(&self) -> bool {
        self.trace_path.is_some() || self.metrics_path.is_some()
    }

    /// Write the grid's manifest, then the journal and metrics files the
    /// flags asked for (only those are rendered), logging each as
    /// `<tag>wrote <path>`.
    ///
    /// # Panics
    /// When a file cannot be written, or a requested journal or metrics
    /// file comes back `None` (the grid did not run with
    /// [`GridFlags::traced`]).
    pub fn write_artifacts(
        &self,
        tag: &str,
        manifest_path: &str,
        manifest: String,
        journal: impl FnOnce() -> Option<String>,
        metrics: impl FnOnce() -> Option<String>,
    ) {
        let write = |path: &str, body: String| {
            std::fs::write(path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("{tag}wrote {path}");
        };
        if let Some(dir) = std::path::Path::new(manifest_path).parent() {
            std::fs::create_dir_all(dir).expect("create the manifest directory");
        }
        write(manifest_path, manifest);
        if let Some(path) = &self.trace_path {
            write(path, journal().expect("grid ran traced"));
        }
        if let Some(path) = &self.metrics_path {
            write(path, metrics().expect("grid ran traced"));
        }
    }
}
